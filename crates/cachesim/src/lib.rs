//! # lc-cachesim — cache-coherence validation of thread mappings
//!
//! The paper's §III motivation, made measurable: "mapping threads that
//! communicate a lot to nearby cores on the memory hierarchy... there is
//! less replication of data in different caches. The caches can be used
//! more efficiently, and the number of cache misses is reduced."
//!
//! * [`Cache`] — set-associative LRU private cache with MESI line states.
//! * [`CoherenceSim`] / [`simulate`] — replay a recorded trace under a
//!   thread→core [`lc_profiler::ThreadMapping`], maintain coherence with an
//!   idealized full-map directory, and report hits/misses/invalidations
//!   plus topology-weighted cache-to-cache transfer cost.
//! * [`CoherenceBackend`] / [`analyze_trace_coherence`] — a second
//!   analysis backend over the instrumentation event stream: per-loop
//!   invalidation/transfer/bus-traffic matrices and a false-sharing
//!   detector, deterministic under set-sharded `--jobs` parallelism.
//!
//! Together with `lc_profiler::mapping` this closes the loop the paper
//! draws: profile → communication matrix → placement → fewer remote
//! transfers (see the `mapping_eval` harness and integration tests).

#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod coherence;

pub use backend::{
    analyze_trace_coherence, canonical_coherence_report, BusCounts, CoherenceBackend,
    CoherenceConfig, CoherenceReport, CoherenceTotals, FsLine, LoopCoh, SharedCoherence, BUS_OPS,
    MAX_ACCESS_LINES, MAX_COHERENCE_THREADS, WORD_BYTES,
};
pub use cache::{Cache, CacheConfig, Mesi};
pub use coherence::{simulate, CoherenceSim, SimStats};
