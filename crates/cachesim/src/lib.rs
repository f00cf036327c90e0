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
//!
//! Together with `lc_profiler::mapping` this closes the loop the paper
//! draws: profile → communication matrix → placement → fewer remote
//! transfers. One backend pass yields the producer→consumer transfer
//! matrix; `ThreadMapping::cost` prices it under each placement (see the
//! `mapping_eval` harness and integration tests).

#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod sharded;

pub use backend::{
    canonical_coherence_report, BusCounts, CoherenceBackend, CoherenceConfig, CoherenceReport,
    CoherenceTotals, FsLine, LoopCoh, SharedCoherence, BUS_OPS, MAX_ACCESS_LINES,
    MAX_COHERENCE_THREADS, WORD_BYTES,
};
pub use cache::{Cache, CacheConfig, Mesi};
pub use sharded::ShardedCoherence;
