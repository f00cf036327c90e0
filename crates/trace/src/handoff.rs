//! One bounded hand-off between two threads: a ring of recycled buffers.
//!
//! A [`ring`] starts with a fixed set of buffers, all empty. The
//! [`Filler`] end takes an empty one ([`Filler::empty`]), fills it and
//! sends it ([`Filler::send`]); the [`Drainer`] end receives it in send
//! order ([`Drainer::recv`]), uses it and hands it back
//! ([`Drainer::recycle`]). No buffer is ever allocated after the start,
//! so a side that falls behind stalls the other instead of growing
//! memory, and a waiting side parks on a `Condvar` rather than spinning.
//!
//! Dropping either end closes the ring: after the filler is gone the
//! drainer still receives what was sent and then `None`; after the
//! drainer is gone every `send` and `empty` fails at once. A side that
//! panics drops its end while unwinding, so the other side never waits on
//! it forever. [`Helper`] puts a thread behind one end: it joins on drop
//! and turns the thread's panic into an `Err` naming it.
//!
//! Users: `analyze`'s segment read-ahead ([`crate::MmapTrace::stream_events`])
//! and the coherence backend's cache-set shards (`lc_cachesim::ShardedCoherence`).

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

struct State<T> {
    /// Sent and not yet received, in send order.
    full: VecDeque<T>,
    /// Recycled and not yet taken.
    free: Vec<T>,
    closed: bool,
    /// A side is parked waiting for `full` (drainer) or `free` (filler).
    drainer_waits: bool,
    filler_waits: bool,
}

struct Ring<T> {
    state: Mutex<State<T>>,
    /// Each end parks on its own variable, so a wake-up is never spent
    /// on the side that did the notifying.
    to_drainer: Condvar,
    to_filler: Condvar,
}

impl<T> Ring<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // Neither end panics while holding the lock, but a poisoned ring
        // still holds consistent queues.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn close(&self) {
        let mut s = self.lock();
        s.closed = true;
        drop(s);
        self.to_drainer.notify_all();
        self.to_filler.notify_all();
    }
}

/// A ring of `buffers`, all empty: the two ends of one bounded hand-off.
pub fn ring<T>(buffers: impl IntoIterator<Item = T>) -> (Filler<T>, Drainer<T>) {
    let ring = Arc::new(Ring {
        state: Mutex::new(State {
            full: VecDeque::new(),
            free: buffers.into_iter().collect(),
            closed: false,
            drainer_waits: false,
            filler_waits: false,
        }),
        to_drainer: Condvar::new(),
        to_filler: Condvar::new(),
    });
    (
        Filler {
            ring: Arc::clone(&ring),
        },
        Drainer { ring },
    )
}

/// The sending end: takes empty buffers and sends them filled.
pub struct Filler<T> {
    ring: Arc<Ring<T>>,
}

impl<T> Filler<T> {
    /// An empty buffer, waiting while the drainer holds all of them.
    /// `None` once the drainer is gone.
    pub fn empty(&mut self) -> Option<T> {
        let mut s = self.ring.lock();
        loop {
            if s.closed {
                return None;
            }
            if let Some(buf) = s.free.pop() {
                return Some(buf);
            }
            s.filler_waits = true;
            s = (self.ring.to_filler.wait(s)).unwrap_or_else(|e| e.into_inner());
            s.filler_waits = false;
        }
    }

    /// Send a filled buffer. `false` (and the buffer dropped) once the
    /// drainer is gone.
    pub fn send(&mut self, buf: T) -> bool {
        let mut s = self.ring.lock();
        if s.closed {
            return false;
        }
        s.full.push_back(buf);
        let wake = s.drainer_waits;
        drop(s);
        if wake {
            self.ring.to_drainer.notify_one();
        }
        true
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
    /// filler is gone and everything it sent has been received.
    pub fn recv(&mut self) -> Option<T> {
        let mut s = self.ring.lock();
        loop {
            if let Some(buf) = s.full.pop_front() {
                return Some(buf);
            }
            if s.closed {
                return None;
            }
            s.drainer_waits = true;
            s = (self.ring.to_drainer.wait(s)).unwrap_or_else(|e| e.into_inner());
            s.drainer_waits = false;
        }
    }

    /// Hand a used buffer back to the filler.
    pub fn recycle(&mut self, buf: T) {
        let mut s = self.ring.lock();
        s.free.push(buf);
        let wake = s.filler_waits;
        drop(s);
        if wake {
            self.ring.to_filler.notify_one();
        }
    }
}

impl<T> Drop for Drainer<T> {
    /// The receiver is gone: the filler's next `send` or `empty` fails.
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
/// run abandoned half-way leaves no thread behind — drop the caller's end
/// of the ring first, which is what ends the helper's loop.
pub struct Helper<R> {
    /// `None` only while [`Helper::join`] or `drop` runs.
    thread: Option<JoinHandle<R>>,
}

impl<R: Send + 'static> Helper<R> {
    /// Start `body` on a thread called `name`.
    pub fn spawn(name: String, body: impl FnOnce() -> R + Send + 'static) -> Self {
        let thread = std::thread::Builder::new()
            .name(name.clone())
            .spawn(body)
            .unwrap_or_else(|e| panic!("spawn thread {name}: {e}"));
        Self {
            thread: Some(thread),
        }
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
        let (mut tx, mut rx) = ring((0..3).map(|_| Vec::<u32>::new()));
        let producer = Helper::spawn("ring-test".into(), move || {
            for i in 0..100u32 {
                let mut buf = tx.empty().expect("drainer alive");
                buf.clear();
                buf.push(i);
                assert!(tx.send(buf));
            }
        });
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
        let (mut tx, mut rx) = ring([1u8, 2]);
        let a = tx.empty().unwrap();
        let b = tx.empty().unwrap();
        assert!(tx.send(a) && tx.send(b));
        let (done_tx, done_rx) = mpsc::channel();
        let waiter = Helper::spawn("ring-wait".into(), move || {
            let third = tx.empty();
            done_tx.send(third).unwrap();
        });
        assert!(
            done_rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "no third buffer exists until one is recycled"
        );
        let first = rx.recv().unwrap();
        rx.recycle(first);
        assert_eq!(
            done_rx.recv_timeout(Duration::from_secs(60)).unwrap(),
            Some(first),
            "the recycled buffer is the one handed out again"
        );
        waiter.join().unwrap();
    }

    #[test]
    fn dropping_the_drainer_releases_a_waiting_filler() {
        let (mut tx, rx) = ring([0u8]);
        let buf = tx.empty().unwrap();
        let waiter = Helper::spawn("ring-close".into(), move || {
            let sent = tx.send(buf);
            (sent, tx.empty())
        });
        drop(rx);
        let (_, next) = waiter.join().unwrap();
        assert_eq!(next, None);
    }

    #[test]
    fn a_panicking_helper_joins_as_err() {
        let h = Helper::spawn("ring-panic".into(), || -> u8 { panic!("boom {}", 7) });
        assert_eq!(h.join(), Err("boom 7".to_string()));
    }
}
