//! # lc-profiler — loop-level communication pattern profiler
//!
//! The paper's primary contribution (Mazaheri et al., ICPP 2015): an
//! inter-thread RAW dependency profiler for shared-memory programs that
//! produces a **nested, per-hotspot-loop communication matrix** in bounded
//! memory.
//!
//! * [`raw`] — Algorithm 1 over the asymmetric signature memory.
//! * [`profiler`] — [`CommProfiler`], the [`lc_trace::AccessSink`] that
//!   application threads drive inline.
//! * [`matrix`] — concurrent communication matrices and snapshot math.
//! * [`shards`] — the accumulation state the hot path adds into:
//!   per-thread counters and the lock-free per-loop matrix registry.
//! * [`fused`] — the zero-materialization replay engine: borrowed event
//!   blocks straight into the detector with block-batched dependence
//!   recording.
//! * [`parallel`] — partition-aware offline analysis: slot-sharded
//!   parallel trace replay with exact merged results.
//! * [`checkpoint`] — crash-resumable analysis: versioned, CRC-framed
//!   snapshots of the full streaming-analyzer state (signatures,
//!   matrices, counters, replay cursor), written atomically.
//! * [`nested`] — the loop-tree report of Figures 6–7 with the Σ-children
//!   invariant.
//! * [`thread_load`] — the Eq. 1 quantitative metric of Figure 8.
//! * [`phases`] — dynamic-behaviour (phase) detection (§V-A4).
//! * [`classify`] — §VI parallel-pattern classification.
//! * [`mapping`] — §VI's application: communication-aware thread mapping.
//! * [`deps`] — the full DiscoPoP dependence taxonomy (RAW/WAR/WAW/RAR).
//! * [`viz`] — SVG heat maps / load charts (the figures' graphical form).
//! * [`metrics`] — [`MetricsRegistry`], the one Prometheus/JSON
//!   exposition every `--metrics` file and `serve`'s `/metrics` render.
//! * [`overhead`] / [`report`] — measurement and rendering support for the
//!   experiment harness.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod classify;
pub mod deps;
pub mod fused;
pub mod ingest;
pub mod mapping;
pub mod matrix;
pub mod metrics;
pub mod nested;
pub mod overhead;
pub mod parallel;
pub mod phases;
pub mod profiler;
pub mod raw;
pub mod report;
pub mod report_html;
pub mod shards;
pub mod sync;
pub mod thread_load;
pub mod viz;

pub use checkpoint::{checkpoint_path, write_atomic_blob, Checkpoint, DetectorState, WorkerState};
pub use deps::{DepConfig, DepKind, FullDetector};
pub use fused::{FusedScratch, FusedStats};
pub use ingest::{DetectorKind, IncrementalAnalyzer, MAX_JOBS};
pub use mapping::{greedy_mapping, MachineTopology, ThreadMapping};
pub use matrix::{CommMatrix, DenseMatrix};
pub use metrics::{Metric, MetricValue, MetricsRegistry};
pub use nested::{verify_sum_invariant, NestedNode, NestedReport};
pub use parallel::{analyze_trace_asymmetric, analyze_trace_perfect, ParAnalysis, ParReplayConfig};
pub use phases::{detect_phases, Phase, PhaseAccumulator};
pub use profiler::{
    AsymmetricProfiler, CommProfiler, PerfectProfiler, ProfileReport, ProfilerConfig,
};
pub use raw::{AsymmetricDetector, Dependence, PerfectDetector, RawDetector};
pub use report::canonical_report;
pub use report_html::html_report;
pub use shards::{AccumConfig, LoopRegistry, RegistryFull, ShardSet};
pub use thread_load::ThreadLoad;
pub use viz::{svg_heatmap, svg_thread_load};
