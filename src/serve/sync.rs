//! Sync-primitive facade for the ingest queue.
//!
//! Without the `sched` feature — the default, shipped and benchmarked
//! build — this is exactly the std atomics + `parking_lot::Mutex`. With
//! the feature (a test-only build: `cargo test` and `--features sched`
//! for `loopcomm simtest`) the bounded frame queue's atomics and mutex
//! come from `lc_sched::sync`, making every queue operation a scheduler
//! decision point inside a deterministic simulation (the `ingest`
//! scenario of `crate::simtest`). The shims are not free outside a
//! simulation — 88-byte cells, 1.4–3× lower end-to-end throughput, up
//! to 10× the RSS (DESIGN.md §11.1) — which is why the feature is not
//! default.

#[cfg(feature = "sched")]
pub use lc_sched::sync::{AtomicBool, AtomicU64, Mutex, Ordering};

#[cfg(not(feature = "sched"))]
pub use parking_lot::Mutex;
#[cfg(not(feature = "sched"))]
pub use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Backoff for the blocking queue paths: virtual time inside a
/// simulation, a short real sleep in production.
pub fn backoff() {
    #[cfg(feature = "sched")]
    if lc_sched::in_sim() {
        lc_sched::virtual_sleep_us(50);
        return;
    }
    std::thread::sleep(std::time::Duration::from_micros(200));
}
