//! Bounded frame queue between a tenant's connections and its drain.
//!
//! The backpressure seam of the ingest service: connection threads push
//! decoded frames, the tenant's single drain thread pops them into the
//! incremental analyzer. Capacity is bounded, so a tenant whose analysis
//! falls behind stalls *its own* producers' connection threads (and,
//! through TCP, the producers themselves) instead of growing server
//! memory — per-tenant isolation by construction.
//!
//! Built on the [`super::sync`] facade, so the `ingest` model-checking
//! scenario explores real interleavings of `try_push`/`try_pop` under
//! the deterministic scheduler. The armed mutant
//! `ingest-drop-contended-frame` turns a lock contention into a silently
//! dropped (but still counted) frame — the dropped-frame race the
//! scenario's FIFO oracle provably catches.
//!
//! A frame stays *unfinished* from its push until the drain calls
//! [`FrameQueue::done`] after analysing it, so [`FrameQueue::is_idle`]
//! cannot read true in the window between the drain's pop and its
//! analysis (the `quiesce` scenario; its `queue-idle-when-empty` mutant is
//! the emptiness check that had that window).

use std::collections::VecDeque;

use super::sync::{backoff, AtomicBool, AtomicU64, Mutex, Ordering};

/// Why a [`FrameQueue::try_push`] did not enqueue.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the item is handed back for retry.
    Full(T),
    /// The queue was closed (tenant shutting down); the item is lost to
    /// this queue and the caller must account for it.
    Closed(T),
}

/// A bounded MPSC-style queue of decoded frames.
pub struct FrameQueue<T> {
    inner: Mutex<VecDeque<T>>,
    capacity: usize,
    closed: AtomicBool,
    pushed: AtomicU64,
    popped: AtomicU64,
    /// Frames pushed and not yet [`Self::done`].
    unfinished: AtomicU64,
}

impl<T> FrameQueue<T> {
    /// An open queue holding at most `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        Self {
            inner: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            closed: AtomicBool::new(false),
            pushed: AtomicU64::new(0),
            popped: AtomicU64::new(0),
            unfinished: AtomicU64::new(0),
        }
    }

    /// Attempt one enqueue without blocking.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        if self.closed.load(Ordering::Acquire) {
            return Err(PushError::Closed(item));
        }
        #[cfg(feature = "sched")]
        if lc_sched::mutant_active("ingest-drop-contended-frame") {
            // Mutant: treat lock contention as success. The push counter
            // advances and the caller believes the frame is queued, but
            // it never reaches the drain — the dropped-frame race the
            // `ingest` scenario's FIFO oracle catches.
            let Some(mut buf) = self.inner.try_lock() else {
                self.pushed.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            };
            if buf.len() >= self.capacity {
                return Err(PushError::Full(item));
            }
            buf.push_back(item);
            self.pushed.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        let mut buf = self.inner.lock();
        if buf.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        self.unfinished.fetch_add(1, Ordering::AcqRel);
        buf.push_back(item);
        self.pushed.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Attempt one dequeue without blocking.
    pub fn try_pop(&self) -> Option<T> {
        let item = self.inner.lock().pop_front();
        if item.is_some() {
            self.popped.fetch_add(1, Ordering::Relaxed);
        }
        item
    }

    /// Enqueue, waiting out a full queue (the backpressure stall). Hands
    /// the item back only if the queue closes while waiting.
    pub fn push_blocking(&self, mut item: T) -> Result<(), T> {
        loop {
            match self.try_push(item) {
                Ok(()) => return Ok(()),
                Err(PushError::Closed(it)) => return Err(it),
                Err(PushError::Full(it)) => {
                    item = it;
                    backoff();
                }
            }
        }
    }

    /// Dequeue, waiting for a frame. Returns `None` once the queue is
    /// closed *and* drained — the drain thread's exit condition.
    pub fn pop_blocking(&self) -> Option<T> {
        loop {
            if let Some(item) = self.try_pop() {
                return Some(item);
            }
            if self.closed.load(Ordering::Acquire) {
                // Re-check after observing closed: a racing push may have
                // landed between the failed pop and the flag read.
                return self.try_pop();
            }
            backoff();
        }
    }

    /// The consumer is finished with one popped frame (analysed or counted
    /// lost).
    pub fn done(&self) {
        self.unfinished.fetch_sub(1, Ordering::AcqRel);
    }

    /// True when every pushed frame was popped and [`Self::done`]: nothing
    /// is buffered and nothing is between the drain's pop and its done.
    pub fn is_idle(&self) -> bool {
        #[cfg(feature = "sched")]
        if lc_sched::mutant_active("queue-idle-when-empty") {
            // Mutant: the emptiness check, blind to a popped frame the
            // drain has not analysed yet.
            return self.is_empty();
        }
        self.unfinished.load(Ordering::Acquire) == 0
    }

    /// Close the queue: future pushes fail, pops drain what remains.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// True once closed.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Frames currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Successful pushes so far.
    pub fn pushed(&self) -> u64 {
        self.pushed.load(Ordering::Relaxed)
    }

    /// Successful pops so far.
    pub fn popped(&self) -> u64 {
        self.popped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_within_capacity() {
        let q = FrameQueue::new(4);
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        assert!(matches!(q.try_push(9), Err(PushError::Full(9))));
        assert_eq!(q.len(), 4);
        for i in 0..4 {
            assert_eq!(q.try_pop(), Some(i));
        }
        assert_eq!(q.try_pop(), None);
        assert_eq!((q.pushed(), q.popped()), (4, 4));
    }

    #[test]
    fn close_rejects_pushes_but_drains_pops() {
        let q = FrameQueue::new(2);
        q.try_push(1).unwrap();
        q.close();
        assert!(matches!(q.try_push(2), Err(PushError::Closed(2))));
        assert_eq!(q.pop_blocking(), Some(1));
        assert_eq!(q.pop_blocking(), None);
        assert_eq!(q.push_blocking(3), Err(3));
    }

    #[test]
    fn blocking_producer_consumer_loses_nothing() {
        let q = Arc::new(FrameQueue::new(2));
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..500u64 {
                    assert!(q.push_blocking(i).is_ok());
                }
                q.close();
            })
        };
        let mut got = Vec::new();
        while let Some(v) = q.pop_blocking() {
            got.push(v);
        }
        producer.join().unwrap();
        assert_eq!(got, (0..500).collect::<Vec<_>>());
        assert_eq!(q.pushed(), 500);
        assert_eq!(q.popped(), 500);
    }
}
