//! # lc-cachesim — cache-coherence validation of thread mappings
//!
//! The paper's §III motivation, made measurable: "mapping threads that
//! communicate a lot to nearby cores on the memory hierarchy... there is
//! less replication of data in different caches. The caches can be used
//! more efficiently, and the number of cache misses is reduced."
//!
//! * [`Cache`] — set-associative LRU private cache with MESI line states.
//! * [`CoherenceBackend`] — the one MESI simulator: a private cache per
//!   thread plus an idealized full-map directory over the instrumentation
//!   event stream, reporting per-loop invalidation/transfer/bus-traffic
//!   matrices and a false-sharing detector.
//! * [`ShardedCoherence`] — that backend split by cache set across the
//!   host's cores, with a byte-identical merged report.
//! * [`write_coherence_report`] — the canonical text of a report, written
//!   one scope at a time on several threads.
//!
//! Together with `lc_profiler::mapping` this closes the loop the paper
//! draws: profile → communication matrix → placement → fewer remote
//! transfers. One backend pass yields the producer→consumer transfer
//! matrix; `ThreadMapping::cost` prices it under each placement (see the
//! `mapping_eval` harness and integration tests).

#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod render;
pub mod sharded;

pub use backend::{
    BusCounts, CoherenceBackend, CoherenceConfig, CoherenceReport, CoherenceTotals, FsLine,
    LoopCoh, SharedCoherence, BUS_OPS, MAX_ACCESS_LINES, MAX_COHERENCE_THREADS, WORD_BYTES,
};
pub use cache::{Cache, CacheConfig, Mesi};
pub use render::{canonical_coherence_report, write_coherence_report};
pub use sharded::ShardedCoherence;
