//! Incremental analysis: the engine behind `loopcomm analyze` (every
//! input format, one block at a time) and each `loopcomm serve` tenant.
//!
//! The library's materialised path ([`crate::parallel`]) partitions a
//! complete trace by address class and merges per-worker reports at the
//! end. A streaming server cannot wait for the end — frames arrive one at
//! a time and the tenant's matrices must be inspectable at any moment —
//! and an offline run should not hold the trace to analyse it. The
//! [`IncrementalAnalyzer`] keeps the *same* partitioning (signature slot
//! for the asymmetric detector, hashed exact address for the perfect
//! baseline) and the same private-profilers-merge-by-summation scheme,
//! but applies it frame by frame: each decoded frame is split into
//! per-worker sub-batches, fed through the fused tile loop
//! ([`crate::CommProfiler::on_block_fused`]), and forgotten.
//!
//! Because every worker sees exactly the subsequence of events it would
//! have seen in an offline run (same order, only different batch
//! boundaries — batching is proven boundary-invariant by
//! `tests/batched_hot_path.rs` and `tests/fused_replay_equivalence.rs`),
//! the merged report is byte-identical to
//! the materialised path over the same events
//! (`tests/serve_equivalence.rs`, `tests/analyze_route.rs`). Memory stays
//! bounded per analyzer: the footprint is `jobs` signature pairs plus the
//! per-loop matrix registry — the paper's Eq. 2 bound times the worker
//! count, independent of how many events have streamed through.

use lc_sigmem::{murmur::fmix64, SignatureConfig, SignatureHealth, SlotRouter, TableTooLarge};
use lc_trace::{AccessEvent, AsAccess};

use crate::fused::FusedScratch;
use crate::parallel::merge_reports;
use crate::profiler::{OwnedProfiler, PerfectProfiler, ProfileReport, ProfilerConfig};
use crate::raw::{PerfectDetector, RawDetector};
use crate::shards::{AccumConfig, RegistryFull};

/// Which detector a tenant's analyzer runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DetectorKind {
    /// The paper's bounded-memory asymmetric signature detector.
    Asymmetric,
    /// The exact (perfect-signature) reference baseline.
    Perfect,
}

pub(crate) enum Workers {
    Asymmetric {
        router: SlotRouter,
        profilers: Vec<OwnedProfiler>,
    },
    Perfect {
        profilers: Vec<PerfectProfiler>,
    },
}

/// The most workers an [`IncrementalAnalyzer`] is given: the CLI rejects a
/// larger `--jobs`, and [`crate::Checkpoint::load`] refuses a checkpoint
/// that claims more, so every checkpoint a run writes can be resumed.
pub const MAX_JOBS: usize = 1 << 16;

/// One tenant's live analysis state: `jobs` private profilers fed
/// per-address-class sub-batches of each arriving frame.
///
/// Fields are crate-visible so [`crate::checkpoint`] can capture and
/// restore the full analysis state.
pub struct IncrementalAnalyzer {
    pub(crate) workers: Workers,
    pub(crate) jobs: usize,
    /// Per-worker scratch reused across frames (cleared, not freed).
    pub(crate) scratch: Vec<Vec<AccessEvent>>,
    pub(crate) frames: u64,
    pub(crate) events: u64,
    /// Signature geometry (asymmetric only) — echoed into checkpoints.
    pub(crate) sig: Option<SignatureConfig>,
    pub(crate) prof: ProfilerConfig,
    pub(crate) accum: AccumConfig,
    /// One fused scratch per worker (empty between frames, so a
    /// checkpoint carries none of it).
    pub(crate) fused_scratch: Vec<FusedScratch>,
}

impl IncrementalAnalyzer {
    /// Asymmetric-signature analyzer with `jobs` slot-sharded workers.
    /// Panics when the host cannot hold the signature tables;
    /// [`Self::try_new`] returns the error instead.
    pub fn asymmetric(
        sig: SignatureConfig,
        prof: ProfilerConfig,
        accum: AccumConfig,
        jobs: usize,
    ) -> Self {
        Self::try_asymmetric(sig, prof, accum, jobs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::asymmetric`], or the table the allocator refused. Each
    /// worker owns its signature's words ([`lc_sigmem::OwnedWord`]): it is
    /// stepped by one thread at a time, so a reader bit is a plain store.
    fn try_asymmetric(
        sig: SignatureConfig,
        prof: ProfilerConfig,
        accum: AccumConfig,
        jobs: usize,
    ) -> Result<Self, TableTooLarge> {
        let jobs = jobs.max(1);
        assert!(
            prof.phase_window.is_none(),
            "phase windows are order-dependent across the whole dependence \
             stream; streaming ingest does not support them"
        );
        let profilers = (0..jobs)
            .map(|_| {
                let det = RawDetector::new(sig.try_build()?);
                Ok(OwnedProfiler::from_detector_with(det, prof, accum))
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            workers: Workers::Asymmetric {
                router: SlotRouter::new(sig.n_slots),
                profilers,
            },
            jobs,
            scratch: (0..jobs).map(|_| Vec::new()).collect(),
            frames: 0,
            events: 0,
            sig: Some(sig),
            prof,
            accum,
            fused_scratch: fused_scratches(jobs),
        })
    }

    /// Perfect-baseline analyzer with `jobs` address-hashed workers.
    pub fn perfect(prof: ProfilerConfig, accum: AccumConfig, jobs: usize) -> Self {
        let jobs = jobs.max(1);
        assert!(
            prof.phase_window.is_none(),
            "phase windows are order-dependent across the whole dependence \
             stream; streaming ingest does not support them"
        );
        Self {
            workers: Workers::Perfect {
                profilers: (0..jobs)
                    .map(|_| {
                        PerfectProfiler::from_detector_with(PerfectDetector::perfect(), prof, accum)
                    })
                    .collect(),
            },
            jobs,
            scratch: (0..jobs).map(|_| Vec::new()).collect(),
            frames: 0,
            events: 0,
            sig: None,
            prof,
            accum,
            fused_scratch: fused_scratches(jobs),
        }
    }

    /// Build for `kind` (CLI-facing convenience). Panics when the host
    /// cannot hold the signature tables.
    pub fn new(
        kind: DetectorKind,
        sig: SignatureConfig,
        prof: ProfilerConfig,
        accum: AccumConfig,
        jobs: usize,
    ) -> Self {
        Self::try_new(kind, sig, prof, accum, jobs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::new`], or the signature table the allocator refused.
    pub fn try_new(
        kind: DetectorKind,
        sig: SignatureConfig,
        prof: ProfilerConfig,
        accum: AccumConfig,
        jobs: usize,
    ) -> Result<Self, TableTooLarge> {
        match kind {
            DetectorKind::Asymmetric => Self::try_asymmetric(sig, prof, accum, jobs),
            DetectorKind::Perfect => Ok(Self::perfect(prof, accum, jobs)),
        }
    }

    /// Which detector this analyzer runs.
    pub fn kind(&self) -> DetectorKind {
        match self.workers {
            Workers::Asymmetric { .. } => DetectorKind::Asymmetric,
            Workers::Perfect { .. } => DetectorKind::Perfect,
        }
    }

    /// Matrix dimension: every event's thread id must be below it.
    pub fn threads(&self) -> usize {
        self.prof.threads
    }

    /// Analyze one decoded frame. Events are routed to workers by the
    /// same address-class function the offline parallel path uses, in
    /// frame order, and delivered through the fused tile loop. Generic
    /// over [`AsAccess`] so stamped serve/spool frames and bare SoA trace
    /// blocks both feed the detector without a re-stamping copy.
    pub fn on_frame<T: AsAccess>(&mut self, frame: &[T]) {
        if self.jobs == 1 {
            // One worker: the decoded frame feeds the detector in place —
            // no routing, no copy, no re-stamping.
            match &self.workers {
                Workers::Asymmetric { profilers, .. } => {
                    profilers[0].on_block_fused(frame, &mut self.fused_scratch[0]);
                }
                Workers::Perfect { profilers } => {
                    profilers[0].on_block_fused(frame, &mut self.fused_scratch[0]);
                }
            }
        } else {
            self.route_and_deliver(frame);
        }
        self.frames += 1;
        self.events += frame.len() as u64;
    }

    /// Split `frame` into per-worker sub-batches and deliver each.
    fn route_and_deliver<T: AsAccess>(&mut self, frame: &[T]) {
        for s in &mut self.scratch {
            s.clear();
        }
        match &self.workers {
            Workers::Asymmetric { router, .. } => {
                for e in frame {
                    let e = e.access();
                    self.scratch[router.worker(e.addr, self.jobs)].push(*e);
                }
            }
            Workers::Perfect { .. } => {
                for e in frame {
                    let e = e.access();
                    let w = (fmix64(e.addr) % self.jobs as u64) as usize;
                    self.scratch[w].push(*e);
                }
            }
        }
        let batches = self.scratch.iter().zip(&mut self.fused_scratch);
        match &self.workers {
            Workers::Asymmetric { profilers, .. } => {
                for (p, (batch, fs)) in profilers.iter().zip(batches) {
                    p.on_block_fused(batch, fs);
                }
            }
            Workers::Perfect { profilers } => {
                for (p, (batch, fs)) in profilers.iter().zip(batches) {
                    p.on_block_fused(batch, fs);
                }
            }
        }
    }

    /// Frames analyzed so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Events analyzed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// RAW dependencies recorded so far: the sum of the workers' counters,
    /// equal to [`Self::report`]'s `dependencies` without building it.
    pub fn dependencies(&self) -> u64 {
        match &self.workers {
            Workers::Asymmetric { profilers, .. } => {
                profilers.iter().map(|p| p.dependencies()).sum()
            }
            Workers::Perfect { profilers } => profilers.iter().map(|p| p.dependencies()).sum(),
        }
    }

    /// First registry-capacity overflow latched by any worker.
    pub fn overflow(&self) -> Option<RegistryFull> {
        match &self.workers {
            Workers::Asymmetric { profilers, .. } => {
                profilers.iter().find_map(|p| p.registry_overflow())
            }
            Workers::Perfect { profilers } => profilers.iter().find_map(|p| p.registry_overflow()),
        }
    }

    /// Live heap footprint across all workers (the bounded-memory claim:
    /// this does not grow with streamed events).
    pub fn memory_bytes(&self) -> usize {
        match &self.workers {
            Workers::Asymmetric { profilers, .. } => {
                profilers.iter().map(|p| p.memory_bytes()).sum()
            }
            Workers::Perfect { profilers } => profilers.iter().map(|p| p.memory_bytes()).sum(),
        }
    }

    /// Signature health of the whole analysis (asymmetric detector only).
    /// Workers own disjoint slot classes of the one `n_slots` geometry, so
    /// occupied slots sum across workers; the occupancy-derived estimates
    /// are then taken over that sum. Costs one scan of each worker's slot
    /// array — call at report time, not per frame.
    pub fn signature_health(&self) -> Option<SignatureHealth> {
        let Workers::Asymmetric { profilers, .. } = &self.workers else {
            return None;
        };
        let mut parts = profilers.iter().map(|p| p.signature_health());
        let mut h = parts.next().expect("jobs >= 1");
        for w in parts {
            h.absorb_disjoint(&w);
        }
        Some(h)
    }

    /// Snapshot the merged report — non-destructive, callable between
    /// frames; identical to what the offline parallel path would merge.
    pub fn report(&self) -> ProfileReport {
        let reports: Vec<ProfileReport> = match &self.workers {
            Workers::Asymmetric { profilers, .. } => profilers.iter().map(|p| p.report()).collect(),
            Workers::Perfect { profilers } => profilers.iter().map(|p| p.report()).collect(),
        };
        let mut merged: Option<ProfileReport> = None;
        for r in reports {
            merged = Some(match merged {
                None => r,
                Some(acc) => merge_reports(acc, r),
            });
        }
        merged.expect("jobs >= 1")
    }
}

/// One fused scratch per worker.
pub(crate) fn fused_scratches(jobs: usize) -> Vec<FusedScratch> {
    (0..jobs).map(|_| FusedScratch::with_defaults()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{analyze_trace_asymmetric, analyze_trace_perfect, ParReplayConfig};
    use lc_trace::{AccessKind, FuncId, LoopId, StampedEvent, Trace};

    fn trace(n: u64) -> Trace {
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

    fn assert_matches(inc: &ProfileReport, offline: &ProfileReport) {
        assert_eq!(inc.global, offline.global);
        assert_eq!(inc.per_loop, offline.per_loop);
        assert_eq!(inc.dependencies, offline.dependencies);
        assert_eq!(inc.threads, offline.threads);
    }

    #[test]
    fn frame_by_frame_asymmetric_matches_offline() {
        let t = trace(3000);
        let sig = SignatureConfig::paper_default(1 << 10, 4);
        let prof = ProfilerConfig::nested(4);
        for jobs in [1usize, 2, 4] {
            for frame_events in [7usize, 256] {
                let mut inc =
                    IncrementalAnalyzer::asymmetric(sig, prof, AccumConfig::default(), jobs);
                for frame in t.events().chunks(frame_events) {
                    inc.on_frame(frame);
                }
                assert_eq!(inc.events(), 3000);
                assert_eq!(inc.dependencies(), inc.report().dependencies, "jobs {jobs}");
                let offline = analyze_trace_asymmetric(
                    &t,
                    sig,
                    prof,
                    AccumConfig::default(),
                    &ParReplayConfig {
                        jobs,
                        coalesce: false,
                        batch_events: 512,
                        ..ParReplayConfig::sequential()
                    },
                );
                assert_matches(&inc.report(), &offline.report);
            }
        }
    }

    #[test]
    fn frame_by_frame_perfect_matches_offline() {
        let t = trace(2000);
        let prof = ProfilerConfig::nested(4);
        for jobs in [1usize, 3] {
            let mut inc = IncrementalAnalyzer::perfect(prof, AccumConfig::default(), jobs);
            for frame in t.events().chunks(33) {
                inc.on_frame(frame);
            }
            let offline = analyze_trace_perfect(
                &t,
                prof,
                AccumConfig::default(),
                &ParReplayConfig {
                    jobs,
                    coalesce: false,
                    batch_events: 128,
                    ..ParReplayConfig::sequential()
                },
            );
            assert_matches(&inc.report(), &offline.report);
        }
    }

    #[test]
    fn memory_stays_bounded_as_frames_stream() {
        let sig = SignatureConfig::paper_default(1 << 8, 4);
        let prof = ProfilerConfig::nested(4);
        let mut inc = IncrementalAnalyzer::asymmetric(sig, prof, AccumConfig::default(), 2);
        let t = trace(500);
        for frame in t.events().chunks(50) {
            inc.on_frame(frame);
        }
        let early = inc.memory_bytes();
        for _ in 0..10 {
            for frame in t.events().chunks(50) {
                inc.on_frame(frame);
            }
        }
        // Same loops, same signatures: footprint must not grow with
        // streamed volume.
        assert_eq!(inc.memory_bytes(), early);
        assert_eq!(inc.events(), 500 * 11);
    }

    #[test]
    fn signature_health_is_independent_of_jobs() {
        let t = trace(3000);
        let sig = SignatureConfig::paper_default(1 << 10, 4);
        let prof = ProfilerConfig::nested(4);
        let health = |jobs| {
            let mut inc = IncrementalAnalyzer::asymmetric(sig, prof, AccumConfig::default(), jobs);
            // Bare SoA blocks: the route `loopcomm analyze` feeds v1/v2 input on.
            for block in t.access_events().chunks(100) {
                inc.on_frame(block);
            }
            inc.signature_health().expect("asymmetric analyzer")
        };
        let one = health(1);
        // 16 written addresses (every 4th of 64), less any slot collisions.
        assert_eq!(one.slots, 1 << 10);
        assert!((1..=16).contains(&one.write_occupied), "{one:?}");
        for jobs in [2usize, 4] {
            let h = health(jobs);
            assert_eq!(h.slots, one.slots, "jobs {jobs}");
            assert_eq!(h.write_occupied, one.write_occupied, "jobs {jobs}");
            assert_eq!(h.read_occupied, one.read_occupied, "jobs {jobs}");
            assert_eq!(h.est_written_addresses, one.est_written_addresses);
        }
        let perfect = IncrementalAnalyzer::perfect(prof, AccumConfig::default(), 2);
        assert!(perfect.signature_health().is_none());
    }

    #[test]
    #[should_panic(expected = "phase windows")]
    fn ingest_refuses_phase_windows() {
        let prof = ProfilerConfig {
            threads: 4,
            track_nested: true,
            phase_window: Some(8),
        };
        IncrementalAnalyzer::perfect(prof, AccumConfig::default(), 2);
    }
}
