//! One bounded hand-off between threads: a ring of recycled buffers.
//!
//! A [`ring`] of `n` buffers carries filled buffers from its [`Filler`]
//! end to its [`Drainer`] end and the drained ones back. The filler takes
//! an empty buffer ([`Filler::empty`]), fills it and sends it
//! ([`Filler::send`]); the drainer receives buffers in send order
//! ([`Drainer::recv`]), uses each and hands it back ([`Drainer::recycle`]).
//! At most `n` buffers are out — taken and not yet recycled — at once, so
//! a side that falls behind stalls the other instead of growing memory,
//! and a waiting side parks on a `Condvar` rather than spinning. A buffer
//! is made (`T::default()`) when it is first taken; at most `keep`
//! recycled ones wait for reuse, and one recycled beyond that is dropped
//! and made afresh when next taken.
//!
//! The filler end is shared: any number of threads may fill through one
//! `&Filler`. Closing the ring ([`Filler::close`], or dropping either
//! end) ends the hand-off: the drainer still receives what was sent and
//! then `None`, while every later `empty` and `send` fails at once. A side
//! that panics drops its end while unwinding, so the other side never
//! waits on it forever. [`Helper`] puts a thread behind one end: it joins
//! on drop and turns the thread's panic into an `Err` naming it.
//!
//! Built on a sync facade: `std::sync`'s `Mutex` and `Condvar` in the
//! default build, `lc_sched::sync`'s under the `sched` feature, so the
//! model checker explores the ring's interleavings (the `handoff`,
//! `ingest` and `quiesce` scenarios of `loopcomm simtest`).
//!
//! Users: `analyze`'s segment read-ahead ([`crate::MmapTrace::stream_events`]),
//! the recorder's spool writer ([`crate::SpoolSink`], which
//! [`crate::NetSink`] wraps) and every `serve` tenant's drain. The
//! coherence backend's cache-set shards hand their chunks over through
//! [`crate::pool`], which is built on the same facade.

use std::collections::VecDeque;
use std::io;
use std::sync::Arc;
use std::thread::JoinHandle;

#[cfg(feature = "sched")]
pub(crate) use lc_sched::sync::{Condvar, Mutex, MutexGuard};
#[cfg(not(feature = "sched"))]
pub(crate) use std::sync::{Condvar, Mutex, MutexGuard};

/// Lock the ring. A poisoned std lock is taken over: neither end panics
/// while holding it, and the queues stay consistent if one ever did.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    #[cfg(feature = "sched")]
    return m.lock();
    #[cfg(not(feature = "sched"))]
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Lock `m` unless another thread holds it. A poisoned std lock is
/// taken over, as [`lock`] does.
pub(crate) fn try_lock<T>(m: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    #[cfg(feature = "sched")]
    return m.try_lock();
    #[cfg(not(feature = "sched"))]
    match m.try_lock() {
        Ok(guard) => Some(guard),
        Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
        Err(std::sync::TryLockError::WouldBlock) => None,
    }
}

/// Release `guard` and wait for a notify on `cv`, then lock again.
pub(crate) fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    #[cfg(feature = "sched")]
    return cv.wait(guard);
    #[cfg(not(feature = "sched"))]
    cv.wait(guard).unwrap_or_else(|e| e.into_inner())
}

/// True when the named model-checking mutant is armed (never in the
/// default build).
pub(crate) fn mutant(_name: &str) -> bool {
    #[cfg(feature = "sched")]
    return lc_sched::mutant_active(_name);
    #[cfg(not(feature = "sched"))]
    false
}

struct State<T> {
    /// Sent and not yet received, in send order.
    full: VecDeque<T>,
    /// Recycled and not yet taken again: at most `keep`.
    free: Vec<T>,
    /// Taken and not yet recycled: being filled, sent, or in the
    /// drainer's hands. At most `size`.
    out: usize,
    closed: bool,
    /// The drainer is parked waiting for `full`.
    drainer_waits: bool,
    /// Fillers parked waiting for a buffer.
    fillers_waiting: usize,
}

struct Ring<T> {
    state: Mutex<State<T>>,
    size: usize,
    keep: usize,
    /// Each end parks on its own variable, so a wake-up is never spent
    /// on the side that did the notifying.
    to_drainer: Condvar,
    to_filler: Condvar,
}

impl<T> Ring<T> {
    fn close(&self) {
        let mut s = lock(&self.state);
        s.closed = true;
        drop(s);
        self.to_drainer.notify_all();
        self.to_filler.notify_all();
    }
}

/// The two ends of one bounded hand-off of `buffers` buffers, of which at
/// most `keep` are kept for reuse between a recycle and the next take.
pub fn ring<T>(buffers: usize, keep: usize) -> (Filler<T>, Drainer<T>) {
    assert!(buffers >= 1, "a ring needs a buffer");
    let ring = Arc::new(Ring {
        state: Mutex::new(State {
            full: VecDeque::new(),
            free: Vec::new(),
            out: 0,
            closed: false,
            drainer_waits: false,
            fillers_waiting: 0,
        }),
        size: buffers,
        keep,
        to_drainer: Condvar::default(),
        to_filler: Condvar::default(),
    });
    (
        Filler {
            ring: Arc::clone(&ring),
        },
        Drainer { ring },
    )
}

/// The sending end: takes empty buffers and sends them filled. Shared by
/// reference among any number of filling threads.
pub struct Filler<T> {
    ring: Arc<Ring<T>>,
}

impl<T: Default> Filler<T> {
    /// An empty buffer, waiting while all of them are out. `None` once
    /// the ring is closed.
    pub fn empty(&self) -> Option<T> {
        let mut s = lock(&self.ring.state);
        loop {
            if s.closed {
                return None;
            }
            if let Some(buf) = self.take(&mut s) {
                return Some(buf);
            }
            s.fillers_waiting += 1;
            s = wait(&self.ring.to_filler, s);
            s.fillers_waiting -= 1;
        }
    }

    /// [`Self::empty`] without waiting: `None` also while all the buffers
    /// are out.
    pub fn try_empty(&self) -> Option<T> {
        let mut s = lock(&self.ring.state);
        if s.closed {
            return None;
        }
        self.take(&mut s)
    }

    fn take(&self, s: &mut State<T>) -> Option<T> {
        if s.out == self.ring.size {
            return None;
        }
        s.out += 1;
        Some(s.free.pop().unwrap_or_default())
    }
}

impl<T> Filler<T> {
    /// Send a filled buffer; once the ring is closed it is handed back.
    pub fn send(&self, buf: T) -> Result<(), T> {
        #[cfg(feature = "sched")]
        if mutant("ingest-drop-contended-frame") {
            // Mutant: treat lock contention as success. The caller
            // believes the buffer is sent, but it never reaches the
            // drainer — the dropped-frame race the `ingest` scenario's
            // FIFO oracle catches.
            if self.ring.state.try_lock().is_none() {
                return Ok(());
            }
        }
        let mut s = lock(&self.ring.state);
        if s.closed {
            s.out -= 1;
            return Err(buf);
        }
        s.full.push_back(buf);
        // Mutant: skip the wake-up a parked drainer is owed, which the
        // `handoff` scenario finds as a deadlock.
        let wake = s.drainer_waits && !mutant("ring-lost-wakeup");
        drop(s);
        if wake {
            self.ring.to_drainer.notify_one();
        }
        Ok(())
    }

    /// Close the ring: later `empty` and `send` calls fail, and the
    /// drainer receives what was sent, then `None`.
    pub fn close(&self) {
        self.ring.close();
    }

    /// Whether the ring is closed.
    pub fn is_closed(&self) -> bool {
        lock(&self.ring.state).closed
    }

    /// Buffers sent and not yet received.
    pub fn len(&self) -> usize {
        lock(&self.ring.state).full.len()
    }

    /// True when nothing is sent and not yet received.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every buffer is home: none is being filled, waits to be received
    /// or is in the drainer's hands, so everything sent has been used.
    pub fn all_home(&self) -> bool {
        let s = lock(&self.ring.state);
        if mutant("queue-idle-when-empty") {
            // Mutant: "nothing waits to be received", blind to the buffer
            // the drainer is still using (the `quiesce` scenario).
            return s.full.is_empty();
        }
        s.out == 0
    }
}

impl<T> Drop for Filler<T> {
    /// No more buffers: the drainer receives what was sent, then `None`.
    fn drop(&mut self) {
        self.ring.close();
    }
}

/// The receiving end: receives filled buffers in send order and recycles
/// them.
pub struct Drainer<T> {
    ring: Arc<Ring<T>>,
}

impl<T> Drainer<T> {
    /// The next filled buffer, waiting while none is sent. `None` once the
    /// ring is closed and everything sent has been received.
    pub fn recv(&self) -> Option<T> {
        let mut s = lock(&self.ring.state);
        loop {
            if let Some(buf) = s.full.pop_front() {
                if mutant("ring-recycle-before-consumed") {
                    // Mutant: the buffer counts as home while the drainer
                    // still uses it, so a filler can take one more than
                    // the ring holds (the `handoff` scenario's bound).
                    s.out -= 1;
                }
                return Some(buf);
            }
            if s.closed {
                return None;
            }
            s.drainer_waits = true;
            s = wait(&self.ring.to_drainer, s);
            s.drainer_waits = false;
        }
    }

    /// Hand a used buffer back; it is kept for reuse unless `keep` are
    /// already waiting, and then dropped once the lock is released.
    pub fn recycle(&self, buf: T) {
        let mut s = lock(&self.ring.state);
        if !mutant("ring-recycle-before-consumed") {
            s.out -= 1;
        }
        let dropped = if s.free.len() < self.ring.keep {
            s.free.push(buf);
            None
        } else {
            Some(buf)
        };
        let wake = s.fillers_waiting > 0;
        drop(s);
        drop(dropped);
        if wake {
            self.ring.to_filler.notify_one();
        }
    }
}

impl<T> Drop for Drainer<T> {
    /// The receiver is gone: every later `send` or `empty` fails.
    fn drop(&mut self) {
        self.ring.close();
    }
}

/// The message a panicked thread left, or `"panicked"` when it is neither
/// a `&str` nor a `String`.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    (payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panicked".to_string())
}

/// A named thread behind one end of a ring. [`Helper::join`] turns its
/// panic into `Err`; dropping an unjoined helper joins it quietly, so a
/// run abandoned half-way leaves no thread behind — close the ring first,
/// which is what ends the helper's loop.
pub struct Helper<R> {
    /// `None` only while [`Helper::join`] or `drop` runs.
    thread: Option<JoinHandle<R>>,
}

impl<R: Send + 'static> Helper<R> {
    /// Start `body` on a thread called `name`; `Err` when no thread can
    /// be started.
    pub fn spawn(name: String, body: impl FnOnce() -> R + Send + 'static) -> io::Result<Self> {
        let thread = std::thread::Builder::new().name(name).spawn(body)?;
        Ok(Self {
            thread: Some(thread),
        })
    }

    /// Wait for the thread and take its result; `Err` says why it
    /// stopped when it panicked.
    pub fn join(mut self) -> Result<R, String> {
        let thread = self.thread.take().expect("joined only here or on drop");
        thread.join().map_err(|payload| panic_message(&*payload))
    }
}

impl<R> Drop for Helper<R> {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn a_hundred_sends_through_three_buffers_arrive_in_order() {
        let (tx, rx) = ring::<Vec<u32>>(3, 3);
        let producer = Helper::spawn("ring-test".into(), move || {
            for i in 0..100u32 {
                let mut buf = tx.empty().expect("drainer alive");
                buf.clear();
                buf.push(i);
                assert!(tx.send(buf).is_ok());
            }
        })
        .unwrap();
        let mut got = Vec::new();
        while let Some(buf) = rx.recv() {
            got.extend_from_slice(&buf);
            rx.recycle(buf);
        }
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn the_filler_waits_once_every_buffer_is_out() {
        let (tx, rx) = ring::<u8>(2, 2);
        assert_eq!(
            (tx.empty(), tx.empty(), tx.try_empty()),
            (Some(0), Some(0), None)
        );
        assert_eq!((tx.send(1), tx.send(2)), (Ok(()), Ok(())));
        assert_eq!(tx.len(), 2);
        let (done_tx, done_rx) = mpsc::channel();
        let waiter = Helper::spawn("ring-wait".into(), move || {
            let third = tx.empty();
            done_tx.send(third).unwrap();
        })
        .unwrap();
        assert!(
            done_rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "no third buffer exists until one is recycled"
        );
        let first = rx.recv().unwrap();
        rx.recycle(first);
        assert_eq!(
            done_rx.recv_timeout(Duration::from_secs(60)).unwrap(),
            Some(1),
            "the recycled buffer is the one handed out again"
        );
        waiter.join().unwrap();
    }

    /// Fillers on three threads share one end; each one's sends arrive in
    /// its own order, none is lost, and afterwards every buffer is home.
    #[test]
    fn shared_fillers_keep_their_own_order() {
        let (tx, rx) = ring::<u32>(2, 2);
        let tx = Arc::new(tx);
        let fillers: Vec<_> = (0..3u32)
            .map(|f| {
                let tx = Arc::clone(&tx);
                Helper::spawn(format!("ring-fill-{f}"), move || {
                    for i in 0..50 {
                        tx.empty().expect("drainer alive");
                        assert!(tx.send(f * 1000 + i).is_ok());
                    }
                })
                .unwrap()
            })
            .collect();
        let mut got = vec![Vec::new(); 3];
        for _ in 0..150 {
            let v = rx.recv().expect("150 sends");
            got[(v / 1000) as usize].push(v % 1000);
            rx.recycle(v);
        }
        for f in fillers {
            f.join().unwrap();
        }
        assert!(got.iter().all(|g| *g == (0..50).collect::<Vec<_>>()));
        assert!(tx.all_home() && tx.is_empty());
    }

    /// Buffers recycled beyond `keep` are dropped and made afresh.
    #[test]
    fn at_most_keep_buffers_wait_for_reuse() {
        let (tx, rx) = ring::<Vec<u8>>(4, 1);
        for _ in 0..4 {
            let mut buf = tx.empty().unwrap();
            buf.push(7);
            assert!(tx.send(buf).is_ok());
        }
        assert!(!tx.all_home());
        while !tx.is_empty() {
            rx.recycle(rx.recv().unwrap());
        }
        assert!(tx.all_home());
        let kept: Vec<_> = (0..4).map(|_| tx.try_empty().unwrap()).collect();
        assert_eq!(kept.iter().filter(|b| b.capacity() > 0).count(), 1);
    }

    #[test]
    fn closing_lets_the_drainer_finish_and_fails_the_filler() {
        let (tx, rx) = ring::<u8>(2, 2);
        tx.empty().unwrap();
        assert!(tx.send(5).is_ok());
        tx.close();
        assert!(tx.is_closed());
        assert_eq!((tx.empty(), tx.try_empty()), (None, None));
        assert_eq!((rx.recv(), rx.recv()), (Some(5), None));
    }

    #[test]
    fn dropping_the_drainer_releases_a_waiting_filler() {
        let (tx, rx) = ring::<u8>(1, 1);
        let buf = tx.empty().unwrap();
        let waiter = Helper::spawn("ring-close".into(), move || {
            let sent = tx.send(buf);
            (sent, tx.empty())
        })
        .unwrap();
        drop(rx);
        let (_, next) = waiter.join().unwrap();
        assert_eq!(next, None);
    }

    #[test]
    fn a_panicking_helper_joins_as_err() {
        let h = Helper::spawn("ring-panic".into(), || -> u8 { panic!("boom {}", 7) }).unwrap();
        assert_eq!(h.join(), Err("boom 7".to_string()));
    }
}
