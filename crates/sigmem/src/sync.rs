//! Sync-primitive facade for the concurrency core.
//!
//! Without the `sched` feature — the default, shipped and benchmarked
//! build — this module IS `std::sync::atomic`: a signature word is 8
//! bytes. With the feature (a test-only build: `cargo test` at the
//! workspace root and `--features sched` for `loopcomm simtest`) the
//! atomics come from `lc_sched::sync`, whose operations are scheduler
//! decision points inside a deterministic simulation. Those cells are 88
//! bytes each — measured at 1.4–3× lower throughput and up to 10× the RSS
//! of this module's std atomics (DESIGN.md §11.1) — so the model checker
//! verifies this crate's source, not its production layout. Mirrors how
//! `shims/` stands in for crossbeam and parking_lot: swap the provider,
//! keep the call sites.

#[cfg(feature = "sched")]
pub use lc_sched::sync::{AtomicU64, Ordering};

#[cfg(not(feature = "sched"))]
pub use std::sync::atomic::{AtomicU64, Ordering};
