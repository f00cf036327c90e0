//! Sync-primitive facade for the shard flush path.
//!
//! Without the `sched` feature — the default, shipped and benchmarked
//! build — this is exactly the std atomics + `parking_lot::Mutex` the
//! code always used. With the feature (a test-only build: `cargo test`
//! at the workspace root and `--features sched` for `loopcomm simtest`)
//! the accumulation layer's atomics and the per-shard buffer mutex come
//! from `lc_sched::sync`, whose operations are scheduler decision
//! points inside a deterministic simulation. Outside one they delegate
//! to the real primitives, but every cell is 88 bytes and every access
//! pays the in-simulation check: measured at 1.4–3× lower end-to-end
//! throughput and up to 10× the RSS (DESIGN.md §11.1), which is why the
//! feature is not default.

#[cfg(feature = "sched")]
pub use lc_sched::sync::{
    AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Mutex, MutexGuard, Ordering,
};

#[cfg(not(feature = "sched"))]
pub use parking_lot::{Mutex, MutexGuard};
#[cfg(not(feature = "sched"))]
pub use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
