//! Dense thread-id registry.
//!
//! The communication matrix is `t×t` over dense thread ids 0..t, so every
//! application thread registers itself before touching traced memory —
//! the analogue of DiscoPoP observing pthread creation. Registration is a
//! thread-local RAII guard; instrumented accesses read the thread-local.

use std::cell::Cell;

thread_local! {
    static CURRENT_TID: Cell<u32> = const { Cell::new(u32::MAX) };
}

/// RAII registration of the current OS thread as profiled thread `tid`.
#[must_use = "the thread is deregistered when the guard drops"]
pub struct ThreadGuard {
    prev: u32,
}

impl ThreadGuard {
    /// Register the calling thread under dense id `tid`. Nested guards
    /// restore the previous id on drop (useful when a main thread briefly
    /// acts as "thread 0" for serial phases).
    pub fn register(tid: u32) -> Self {
        let prev = CURRENT_TID.with(|c| c.replace(tid));
        ThreadGuard { prev }
    }
}

impl Drop for ThreadGuard {
    /// Delivers the thread's capture tile. A thread unwinding from a panic
    /// discards it instead: the run is failing, and a sink panic here
    /// would abort.
    fn drop(&mut self) {
        if std::thread::panicking() {
            crate::tile::discard_thread();
        } else {
            crate::tile::flush_thread();
        }
        CURRENT_TID.with(|c| c.set(self.prev));
    }
}

/// Dense id of the calling thread.
///
/// # Panics
/// If the thread never registered — an unregistered access would corrupt
/// the communication matrix, so this fails fast.
#[inline]
pub fn current_tid() -> u32 {
    let tid = CURRENT_TID.with(|c| c.get());
    assert!(
        tid != u32::MAX,
        "instrumented access from an unregistered thread; wrap the code in ThreadGuard::register"
    );
    tid
}

/// Dense id of the calling thread, or `None` when unregistered.
#[inline]
pub fn try_current_tid() -> Option<u32> {
    let tid = CURRENT_TID.with(|c| c.get());
    (tid != u32::MAX).then_some(tid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_read() {
        assert_eq!(try_current_tid(), None);
        {
            let _g = ThreadGuard::register(3);
            assert_eq!(current_tid(), 3);
            {
                let _g2 = ThreadGuard::register(7);
                assert_eq!(current_tid(), 7);
            }
            assert_eq!(current_tid(), 3);
        }
        assert_eq!(try_current_tid(), None);
    }

    #[test]
    #[should_panic(expected = "unregistered thread")]
    fn unregistered_access_panics() {
        let _ = current_tid();
    }

    #[test]
    fn registration_is_per_thread() {
        let _g = ThreadGuard::register(1);
        std::thread::spawn(|| {
            assert_eq!(try_current_tid(), None);
        })
        .join()
        .unwrap();
        assert_eq!(current_tid(), 1);
    }
}
