//! # loopcomm — loop-level communication patterns for shared memory
//!
//! A production-quality Rust reproduction of *"Characterizing Loop-Level
//! Communication Patterns in Shared Memory Applications"* (Mazaheri,
//! Jannesari, Mirzaei, Wolf — ICPP 2015): an inter-thread RAW dependency
//! profiler that produces nested, per-hotspot-loop communication matrices
//! in bounded memory using an **asymmetric signature memory**.
//!
//! ## Quickstart
//!
//! ```
//! use loopcomm::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. Build the profiler (the paper's FPRate = 0.001 default).
//! let threads = 8;
//! let profiler = Arc::new(AsymmetricProfiler::asymmetric(
//!     SignatureConfig::paper_default(1 << 16, threads),
//!     ProfilerConfig::nested(threads),
//! ));
//!
//! // 2. Run an instrumented workload with the profiler as the sink.
//! let ctx = TraceCtx::new(profiler.clone(), threads);
//! let workload = lc_workloads::by_name("radix").unwrap();
//! workload.run(&ctx, &RunConfig::new(threads, InputSize::SimDev, 42));
//!
//! // 3. Inspect the communication pattern.
//! let report = profiler.report();
//! assert!(report.dependencies > 0);
//! let nested = NestedReport::build(ctx.loops(), &report.per_loop, threads);
//! assert!(lc_profiler::verify_sum_invariant(&nested).is_empty());
//! println!("{}", nested.render(3));
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`lc_sigmem`] | MurmurHash3, the asymmetric signature memory, Eq. 2 |
//! | [`lc_trace`] | instrumentation substrate: events, loop UIDs, traced buffers, replay |
//! | [`lc_profiler`] | Algorithm 1, communication matrices, nested patterns, thread load, phases, classification |
//! | [`lc_baselines`] | Memcheck/Helgrind/IPM/SD3-style comparators and exact ground truth |
//! | [`lc_workloads`] | fourteen SPLASH-style kernels, engineered false-sharing kernels + synthetic topologies |
//! | [`lc_cachesim`] | §III cache/MESI simulator + the `--coherence` analysis backend and false-sharing detector |

#![warn(missing_docs)]

pub use lc_baselines;
pub use lc_cachesim;
pub use lc_profiler;
pub use lc_sigmem;
pub use lc_trace;
pub use lc_workloads;

pub mod pipeline;
pub mod serve;
#[cfg(feature = "sched")]
pub mod simtest;

pub use pipeline::{Pipeline, PipelineConfig};

/// Everything needed for typical profiling sessions.
pub mod prelude {
    pub use lc_profiler::{
        AccumConfig, AsymmetricProfiler, CommProfiler, DenseMatrix, NestedReport, PerfectProfiler,
        ProfileReport, ProfilerConfig, ThreadLoad,
    };
    pub use lc_sigmem::SignatureConfig;
    pub use lc_trace::{AccessKind, AccessSink, LoopId, TraceCtx, TracedBuffer};
    pub use lc_workloads::{all_workloads, by_name, InputSize, RunConfig, Workload};
}
