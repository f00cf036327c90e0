//! Partition-aware offline analysis: slot-sharded parallel trace replay.
//!
//! [`lc_trace::Trace::par_replay`] splits a recorded trace into per-worker
//! streams by address class and drives one sink per worker. This module
//! supplies the detector-aware halves of that contract:
//!
//! * the **router** — signature slot index for the asymmetric detector
//!   (the exact granularity at which its state couples), the hashed exact
//!   address for the perfect baseline;
//! * the **per-worker profilers** — private signature pairs plus private
//!   accumulation, so workers never contend;
//! * the **merge** — summing per-worker matrices, loop maps and counters,
//!   all of which are commutative `u64` additions, reproduces sequential
//!   replay byte for byte (correctness argument in DESIGN.md §10).
//!
//! Phase windows (§V-A4) are inherently order-dependent across the whole
//! dependence stream, so the parallel path refuses `phase_window` with more
//! than one job rather than silently producing scrambled windows.

use lc_sigmem::{murmur::fmix64, Signature, SignatureConfig, SlotRouter};
use lc_trace::{
    coalesce_events, AccessSink, ParReplayOptions, ParReplayStats, Trace, REPLAY_BATCH_EVENTS,
};

use crate::fused::FusedScratch;
use crate::metrics::MetricsRegistry;
use crate::profiler::{CommProfiler, ProfileReport, ProfilerConfig};
use crate::raw::{AsymmetricDetector, PerfectDetector};
use crate::shards::{AccumConfig, RegistryFull};

/// Tuning for one parallel analysis run.
#[derive(Clone, Copy, Debug)]
pub struct ParReplayConfig {
    /// Worker threads (1 = sequential replay, today's path).
    pub jobs: usize,
    /// Run-coalesce each worker stream before detection.
    pub coalesce: bool,
    /// Events per [`AccessSink::on_batch`] block.
    pub batch_events: usize,
    /// Drive the fused zero-materialization engine
    /// ([`CommProfiler::on_block_fused`]) instead of the `AccessSink`
    /// batched path. Byte-identical output (the `fused_replay_equivalence`
    /// suite's claim); the default since the fused path is strictly
    /// faster.
    pub fused: bool,
}

impl Default for ParReplayConfig {
    fn default() -> Self {
        Self {
            jobs: 1,
            coalesce: true,
            batch_events: REPLAY_BATCH_EVENTS,
            fused: true,
        }
    }
}

impl ParReplayConfig {
    /// Sequential, uncoalesced, unfused — byte-identical to
    /// [`Trace::replay`] into a single profiler (the pre-parallel
    /// analysis path, kept as the differential baseline).
    pub fn sequential() -> Self {
        Self {
            jobs: 1,
            coalesce: false,
            batch_events: REPLAY_BATCH_EVENTS,
            fused: false,
        }
    }
}

/// Everything one parallel analysis produced.
#[derive(Clone, Debug)]
pub struct ParAnalysis {
    /// The merged profile: global matrix, per-loop matrices, counts.
    ///
    /// With coalescing on, `report.accesses` counts the *coalesced* events
    /// the detectors actually processed; [`ParAnalysis::trace_events`] keeps
    /// the original trace length. Dependencies and matrices are identical
    /// either way.
    pub report: ProfileReport,
    /// Events in the input trace (before any coalescing).
    pub trace_events: u64,
    /// First registry-capacity overflow latched by any worker.
    pub overflow: Option<RegistryFull>,
    /// Replay mechanics: jobs, batches delivered, coalescing summary.
    pub replay: ParReplayStats,
}

impl ParAnalysis {
    /// Replay-layer gauges for metrics export, merged into `reg`.
    pub fn export_into(&self, reg: &mut MetricsRegistry) {
        reg.gauge(
            "loopcomm_replay_jobs",
            "Worker threads used for trace replay",
            self.replay.jobs as f64,
        );
        reg.counter(
            "loopcomm_replay_events_total",
            "Events delivered to detectors (after coalescing)",
            self.replay.replayed_events,
        );
        reg.counter(
            "loopcomm_replay_batches_total",
            "on_batch blocks delivered during replay",
            self.replay.batches,
        );
        reg.counter(
            "loopcomm_replay_runs_folded_total",
            "Access runs folded by coalescing",
            self.replay.coalesce.runs_folded,
        );
        reg.counter(
            "loopcomm_replay_events_folded_total",
            "Events removed by run coalescing",
            self.replay.coalesce.events_folded,
        );
    }
}

/// Analyze a trace with the paper's asymmetric signature detector,
/// partitioned by signature slot (`fmix64(addr) % n_slots`, the exact
/// index [`lc_sigmem::SlotSignature`] uses). Each worker owns a private
/// signature; results merge by matrix summation.
pub fn analyze_trace_asymmetric(
    trace: &Trace,
    sig: SignatureConfig,
    prof: ProfilerConfig,
    accum: AccumConfig,
    par: &ParReplayConfig,
) -> ParAnalysis {
    let router = SlotRouter::new(sig.n_slots);
    let jobs = par.jobs.max(1);
    analyze_with(
        trace,
        || CommProfiler::from_detector_with(AsymmetricDetector::asymmetric(sig), prof, accum),
        &|addr| router.worker(addr, jobs),
        &|addr| router.slot(addr) as u64,
        prof,
        par,
    )
}

/// Analyze a trace with the exact (perfect-signature) baseline detector,
/// partitioned by exact address class (`fmix64(addr) % jobs`). Coalescing
/// folds only same-address runs — the perfect detector keeps per-address
/// reader sets, so a coarser class would not be semantics-preserving.
pub fn analyze_trace_perfect(
    trace: &Trace,
    prof: ProfilerConfig,
    accum: AccumConfig,
    par: &ParReplayConfig,
) -> ParAnalysis {
    let jobs = par.jobs.max(1);
    analyze_with(
        trace,
        || CommProfiler::from_detector_with(PerfectDetector::perfect(), prof, accum),
        &|addr| (fmix64(addr) % jobs as u64) as usize,
        &|addr| addr,
        prof,
        par,
    )
}

/// Generic core: build one private profiler per worker, replay, merge.
fn analyze_with<S: Signature + Sync>(
    trace: &Trace,
    make: impl Fn() -> CommProfiler<S>,
    worker_of: &(dyn Fn(u64) -> usize + Sync),
    class: &(dyn Fn(u64) -> u64 + Sync),
    prof: ProfilerConfig,
    par: &ParReplayConfig,
) -> ParAnalysis {
    let jobs = par.jobs.max(1);
    assert!(
        jobs == 1 || prof.phase_window.is_none(),
        "phase windows are order-dependent across the whole dependence \
         stream; use jobs = 1 for phase tracking"
    );
    let profilers: Vec<CommProfiler<S>> = (0..jobs).map(|_| make()).collect();
    let replay = if par.fused {
        fused_replay(trace, &profilers, worker_of, class, par)
    } else {
        let sinks: Vec<&dyn AccessSink> = profilers.iter().map(|p| p as &dyn AccessSink).collect();
        let opts = ParReplayOptions {
            batch_events: par.batch_events,
            coalesce_class: par.coalesce.then_some(class),
        };
        trace.par_replay(&sinks, worker_of, &opts)
    };

    let mut overflow = None;
    let mut merged: Option<ProfileReport> = None;
    for p in &profilers {
        if overflow.is_none() {
            overflow = p.registry_overflow();
        }
        let r = p.report();
        merged = Some(match merged {
            None => r,
            Some(acc) => merge_reports(acc, r),
        });
    }
    ParAnalysis {
        report: merged.expect("jobs >= 1"),
        trace_events: trace.len() as u64,
        overflow,
        replay,
    }
}

/// Drive the fused engine over the trace: borrowed SoA slices straight
/// into [`CommProfiler::on_block_fused`], one [`FusedScratch`] per worker.
///
/// `jobs == 1` without coalescing is the true zero-materialization path —
/// the profiler reads the trace's own storage. Coalescing (a materializing
/// transform by nature) and multi-worker partitioning build the same
/// per-worker streams the non-fused path builds, so replay statistics and
/// reports match it field for field; only the consumption changes.
fn fused_replay<S: Signature + Sync>(
    trace: &Trace,
    profilers: &[CommProfiler<S>],
    worker_of: &(dyn Fn(u64) -> usize + Sync),
    class: &(dyn Fn(u64) -> u64 + Sync),
    par: &ParReplayConfig,
) -> ParReplayStats {
    let jobs = profilers.len();
    let batch = par.batch_events.max(1);
    let mut stats = ParReplayStats {
        jobs,
        ..ParReplayStats::default()
    };

    if jobs == 1 && !par.coalesce {
        let evs = trace.access_events();
        let mut scratch = FusedScratch::with_defaults();
        for chunk in evs.chunks(batch) {
            profilers[0].on_block_fused(chunk, &mut scratch);
        }
        profilers[0].flush_pending();
        stats.replayed_events = evs.len() as u64;
        stats.batches = evs.len().div_ceil(batch) as u64;
        return stats;
    }

    let mut parts = trace.partition(jobs, worker_of);
    if par.coalesce {
        for p in &mut parts {
            stats.coalesce.merge(coalesce_events(p, class));
        }
    }
    for p in &parts {
        stats.replayed_events += p.len() as u64;
        stats.batches += p.len().div_ceil(batch) as u64;
    }
    if jobs == 1 {
        let mut scratch = FusedScratch::with_defaults();
        for chunk in parts[0].chunks(batch) {
            profilers[0].on_block_fused(chunk, &mut scratch);
        }
        profilers[0].flush_pending();
        return stats;
    }
    std::thread::scope(|s| {
        for (part, p) in parts.iter().zip(profilers) {
            s.spawn(move || {
                let mut scratch = FusedScratch::with_defaults();
                for chunk in part.chunks(batch) {
                    p.on_block_fused(chunk, &mut scratch);
                }
                p.flush_pending();
            });
        }
    });
    stats
}

/// Sum two per-worker reports. Every field is a commutative accumulation:
/// dense matrices add cell-wise, per-loop maps union-with-sum, counters and
/// footprints add. Shared with the incremental ingest path
/// ([`crate::ingest`]), which partitions by the same routers.
pub(crate) fn merge_reports(mut acc: ProfileReport, r: ProfileReport) -> ProfileReport {
    acc.global.accumulate(&r.global);
    for (id, m) in r.per_loop {
        use std::collections::hash_map::Entry;
        match acc.per_loop.entry(id) {
            Entry::Occupied(mut e) => e.get_mut().accumulate(&m),
            Entry::Vacant(e) => {
                e.insert(m);
            }
        }
    }
    acc.accesses += r.accesses;
    acc.dependencies += r.dependencies;
    acc.memory_bytes += r.memory_bytes;
    debug_assert!(r.phase_windows.is_none(), "phases require jobs == 1");
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_trace::{AccessEvent, AccessKind, FuncId, LoopId, StampedEvent};

    fn trace(n: u64) -> Trace {
        // Writer thread 0 sweeps, readers 1..4 consume; several loops.
        let mut evs = Vec::new();
        for i in 0..n {
            let addr = 0x1000 + (i % 64) * 8;
            let kind = if i % 4 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let tid = if kind == AccessKind::Write {
                0
            } else {
                (i % 3 + 1) as u32
            };
            evs.push(StampedEvent {
                seq: i,
                event: AccessEvent {
                    tid,
                    addr,
                    size: 8,
                    kind,
                    loop_id: LoopId((i % 5) as u32 + 1),
                    parent_loop: LoopId::NONE,
                    func: FuncId::NONE,
                    site: 0,
                },
            });
        }
        Trace::new(evs)
    }

    fn assert_same(a: &ParAnalysis, b: &ParAnalysis) {
        assert_eq!(a.report.global, b.report.global);
        assert_eq!(a.report.per_loop, b.report.per_loop);
        assert_eq!(a.report.dependencies, b.report.dependencies);
    }

    #[test]
    fn asymmetric_parallel_matches_sequential() {
        let t = trace(4000);
        let sig = SignatureConfig::paper_default(1 << 10, 4);
        let prof = ProfilerConfig::nested(4);
        let seq = analyze_trace_asymmetric(
            &t,
            sig,
            prof,
            AccumConfig::default(),
            &ParReplayConfig::sequential(),
        );
        for jobs in [2usize, 4] {
            let par = analyze_trace_asymmetric(
                &t,
                sig,
                prof,
                AccumConfig::default(),
                &ParReplayConfig {
                    jobs,
                    coalesce: true,
                    batch_events: 64,
                    ..ParReplayConfig::sequential()
                },
            );
            assert_same(&seq, &par);
            assert_eq!(par.trace_events, 4000);
        }
    }

    #[test]
    fn perfect_parallel_matches_sequential() {
        let t = trace(4000);
        let prof = ProfilerConfig::nested(4);
        let seq = analyze_trace_perfect(
            &t,
            prof,
            AccumConfig::default(),
            &ParReplayConfig::sequential(),
        );
        for jobs in [2usize, 4] {
            for coalesce in [false, true] {
                let par = analyze_trace_perfect(
                    &t,
                    prof,
                    AccumConfig::default(),
                    &ParReplayConfig {
                        jobs,
                        coalesce,
                        batch_events: 128,
                        ..ParReplayConfig::sequential()
                    },
                );
                assert_same(&seq, &par);
                if !coalesce {
                    assert_eq!(par.report.accesses, seq.report.accesses);
                }
            }
        }
    }

    #[test]
    fn coalescing_keeps_matrices_and_changes_only_access_count() {
        let t = trace(2000);
        let prof = ProfilerConfig::nested(4);
        let plain = analyze_trace_perfect(
            &t,
            prof,
            AccumConfig::default(),
            &ParReplayConfig::sequential(),
        );
        let coalesced = analyze_trace_perfect(
            &t,
            prof,
            AccumConfig::default(),
            &ParReplayConfig {
                jobs: 1,
                coalesce: true,
                batch_events: REPLAY_BATCH_EVENTS,
                ..ParReplayConfig::sequential()
            },
        );
        assert_same(&plain, &coalesced);
        assert_eq!(
            coalesced.report.accesses + coalesced.replay.coalesce.events_folded,
            plain.report.accesses
        );
    }

    #[test]
    #[should_panic(expected = "phase windows")]
    fn parallel_refuses_phase_windows() {
        let t = trace(100);
        let prof = ProfilerConfig {
            threads: 4,
            track_nested: true,
            phase_window: Some(8),
        };
        analyze_trace_perfect(
            &t,
            prof,
            AccumConfig::default(),
            &ParReplayConfig {
                jobs: 2,
                coalesce: false,
                batch_events: 64,
                ..ParReplayConfig::sequential()
            },
        );
    }
}
