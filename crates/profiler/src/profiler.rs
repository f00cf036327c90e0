//! The communication-pattern profiler: Algorithm 1 wired to the matrices.
//!
//! [`CommProfiler`] is an [`AccessSink`]: application threads run the
//! analysis inline, exactly like the paper's design ("we use the same
//! threads in the program... without any need to any extra threads",
//! §IV-D3). Live threads hand it their accesses a capture tile at a time
//! (`lc_trace::tile`) through `on_batch`, which runs the one tiled loop of
//! [`crate::fused`] that replay, `analyze` and `serve` run too.
//! Each detected RAW dependence is accumulated into
//!
//! * the **global** communication matrix,
//! * the matrix of the access's **innermost loop** (the multi-layer /
//!   nested structure of §IV-B and Figures 6–7), and
//! * optionally a **phase window** (§V-A4).
//!
//! Accumulation uses the state of [`crate::shards`]: per-thread padded
//! counters and a lock-free fixed-capacity registry of per-loop matrices.
//! Each dependence, or each `(loop, src, dst)` key a fused block folded,
//! is added straight into its matrix cells (`CommProfiler::add_deps`). The
//! `sharded_equivalence` differential test holds the reports byte-identical
//! to a plain fold of the detector's dependences into one matrix.

use std::collections::HashMap;

use lc_sigmem::{ReaderSet, SignatureConfig, WriterMap};
use lc_trace::{AccessEvent, AccessSink, LoopId};
use parking_lot::Mutex;

use crate::matrix::{CommMatrix, DenseMatrix};
use crate::phases::{detect_phases, Phase, PhaseAccumulator};
use crate::raw::{AsymmetricDetector, PerfectDetector, RawDetector};
use crate::shards::{pack_key, unpack_key, AccumConfig, LoopRegistry, RegistryFull, ShardSet};
use crate::telemetry::{HistId, MetricsRegistry, Stat, Telemetry, TelemetryConfig};

/// Tunables for one profiling run.
#[derive(Clone, Copy, Debug)]
pub struct ProfilerConfig {
    /// Number of profiled threads (matrix dimension).
    pub threads: usize,
    /// Attribute dependencies to per-loop matrices (Figures 6–7). Costs one
    /// registry lookup per *dependence* (not per access).
    pub track_nested: bool,
    /// When `Some(w)`, snapshot the matrix every `w` dependencies for phase
    /// detection (§V-A4).
    pub phase_window: Option<u64>,
}

impl ProfilerConfig {
    /// Nested tracking on, phases off — the Figures 6–8 configuration.
    pub fn nested(threads: usize) -> Self {
        Self {
            threads,
            track_nested: true,
            phase_window: None,
        }
    }
}

/// The profiler, generic over the signature implementation.
pub struct CommProfiler<R: ReaderSet, W: WriterMap> {
    pub(crate) detector: RawDetector<R, W>,
    pub(crate) config: ProfilerConfig,
    global: CommMatrix,
    pub(crate) loops: LoopRegistry,
    pub(crate) counters: ShardSet,
    pub(crate) phases: Option<Mutex<PhaseAccumulator>>,
    pub(crate) telemetry: Option<Telemetry>,
}

/// The paper's profiler: approximate bounded-memory signatures.
pub type AsymmetricProfiler = CommProfiler<lc_sigmem::ReadSignature, lc_sigmem::WriteSignature>;

/// The exact baseline profiler (perfect signature, §V-A3).
pub type PerfectProfiler = CommProfiler<lc_sigmem::PerfectReaderSet, lc_sigmem::PerfectWriterMap>;

impl AsymmetricProfiler {
    /// Build the signature-memory profiler.
    pub fn asymmetric(sig: SignatureConfig, config: ProfilerConfig) -> Self {
        Self::from_detector(AsymmetricDetector::asymmetric(sig), config)
    }

    /// Live signature-health diagnostics: occupancy, estimated footprint
    /// and aliasing risk (was `n_slots` adequate for this program?).
    pub fn signature_health(&self) -> lc_sigmem::SignatureHealth {
        lc_sigmem::SignatureHealth::inspect(self.detector().read_sig(), self.detector().write_sig())
    }

    /// [`CommProfiler::metrics`] plus live signature-health gauges: write
    /// occupancy and aliasing, the estimated written footprint, and the
    /// online Bloom saturation / false-positive estimate — the runtime
    /// counterpart of the `fpr_sweep` ground-truth experiment (see
    /// EXPERIMENTS.md for how to read the two against each other).
    pub fn metrics_with_health(&self) -> MetricsRegistry {
        let mut reg = self.metrics();
        let h = self.signature_health();
        reg.gauge(
            "loopcomm_sig_slots",
            "First-level signature slots",
            h.slots as f64,
        );
        reg.gauge(
            "loopcomm_sig_write_occupied",
            "Occupied write-signature slots",
            h.write_occupied as f64,
        );
        reg.gauge(
            "loopcomm_sig_read_filters",
            "Allocated read-signature Bloom filters",
            h.read_filters as f64,
        );
        reg.gauge(
            "loopcomm_sig_est_written_addresses",
            "Estimated distinct written addresses (occupancy inversion)",
            h.est_written_addresses,
        );
        reg.gauge(
            "loopcomm_sig_write_aliasing",
            "Probability a fresh address aliases an occupied writer slot",
            h.write_aliasing,
        );
        reg.gauge(
            "loopcomm_sig_bloom_mean_fill",
            "Mean read-filter Bloom saturation (sampled)",
            h.read_bloom.mean_fill,
        );
        reg.gauge(
            "loopcomm_sig_bloom_max_fill",
            "Worst read-filter Bloom saturation (sampled)",
            h.read_bloom.max_fill,
        );
        reg.gauge(
            "loopcomm_sig_bloom_est_fp_rate",
            "Estimated live Bloom false-positive rate (fill^k, sampled)",
            h.read_bloom.est_fp_rate,
        );
        reg
    }
}

impl PerfectProfiler {
    /// Build the collision-free baseline profiler.
    pub fn perfect(config: ProfilerConfig) -> Self {
        Self::from_detector(PerfectDetector::perfect(), config)
    }
}

impl<R: ReaderSet, W: WriterMap> CommProfiler<R, W> {
    /// Build from an explicit detector with default accumulation tunables.
    pub fn from_detector(detector: RawDetector<R, W>, config: ProfilerConfig) -> Self {
        Self::from_detector_with(detector, config, AccumConfig::default())
    }

    /// Build from an explicit detector and accumulation-layer tunables.
    pub fn from_detector_with(
        detector: RawDetector<R, W>,
        config: ProfilerConfig,
        accum: AccumConfig,
    ) -> Self {
        Self::from_detector_full(detector, config, accum, None)
    }

    /// Build with every layer explicit, including the optional telemetry
    /// layer. `telemetry: None` (what all other constructors pass) keeps the
    /// hot path identical to a build without this module — see DESIGN.md §8
    /// for the zero-cost-when-off argument.
    pub fn from_detector_full(
        detector: RawDetector<R, W>,
        config: ProfilerConfig,
        accum: AccumConfig,
        telemetry: Option<TelemetryConfig>,
    ) -> Self {
        assert!(config.threads >= 1);
        let phases = config
            .phase_window
            .map(|w| Mutex::new(PhaseAccumulator::new(config.threads, w)));
        Self {
            detector,
            config,
            global: CommMatrix::new(config.threads),
            loops: LoopRegistry::new(config.threads, accum.loop_capacity),
            counters: ShardSet::new(config.threads),
            phases,
            telemetry: telemetry.map(|t| Telemetry::new(config.threads, t)),
        }
    }

    /// Deliver the calling thread's live capture tile
    /// ([`lc_trace::flush_thread`]), so a registered thread reading a
    /// profiler it feeds sees its own accesses. It is also the
    /// [`AccessSink::flush`] hook. Everything already delivered is in the
    /// matrices: dependences are added to their cells as they are
    /// recorded, with nothing buffered in between.
    pub fn flush_pending(&self) {
        lc_trace::flush_thread();
    }

    /// Count `n_deps` dependences on `tid`'s shard and add each aggregated
    /// `(packed key, bytes)` delta straight into its cells: the global
    /// matrix and, with nested tracking, the key's loop matrix. One relaxed
    /// add per key per matrix. The result equals adding the dependences one
    /// by one, because matrix cell addition commutes.
    #[inline]
    pub(crate) fn add_deps(&self, tid: u32, n_deps: u64, deltas: &[(u64, u64)]) {
        self.counters.count_deps(tid, n_deps);
        for &(key, bytes) in deltas {
            let (loop_id, src, dst) = unpack_key(key);
            self.global.add(src, dst, bytes);
            if !self.config.track_nested {
                continue;
            }
            // Lossy on overflow: accumulation runs on application threads,
            // so a capacity panic here would strand sibling threads at
            // their next barrier (the error is latched and surfaced after
            // the run instead).
            if let Some((m, probe, inserted)) = self.loops.get_or_insert_lossy(loop_id) {
                if let Some(t) = &self.telemetry {
                    t.observe(tid, HistId::RegistryProbeLen, probe as u64);
                    if inserted {
                        t.bump(tid, Stat::RegistryInsert);
                    }
                }
                m.add(src, dst, bytes);
            }
        }
    }

    /// The telemetry layer, when enabled at construction.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// Scrape a metrics registry: run totals, memory, loop registry size
    /// and — when telemetry is on — the full counter/histogram set.
    /// Delivers the caller's live tile first, like every read path.
    pub fn metrics(&self) -> MetricsRegistry {
        self.flush_pending();
        let mut reg = MetricsRegistry::new();
        reg.counter(
            "loopcomm_accesses_total",
            "Instrumented accesses observed",
            self.accesses(),
        );
        reg.counter(
            "loopcomm_dependences_total",
            "RAW dependences recorded",
            self.dependencies(),
        );
        reg.gauge(
            "loopcomm_memory_bytes",
            "Profiler heap footprint (signatures + matrices + shards)",
            self.memory_bytes() as f64,
        );
        reg.gauge(
            "loopcomm_loops_tracked",
            "Distinct loops with a published matrix",
            self.loops.len() as f64,
        );
        reg.gauge(
            "loopcomm_threads",
            "Matrix dimension (profiled threads)",
            self.config.threads as f64,
        );
        reg.counter(
            "loopcomm_loops_dropped_deltas_total",
            "Deltas left unattributed per-loop after a registry overflow",
            self.loops.dropped_deltas(),
        );
        if let Some(t) = &self.telemetry {
            t.export_into(&mut reg);
        }
        reg
    }

    /// The capacity error latched if this run touched more distinct loops
    /// than [`AccumConfig::loop_capacity`] provisioned. Per-loop
    /// attribution degraded for the overflow's victims (the global matrix
    /// and counters are unaffected); rerun with a larger capacity.
    pub fn registry_overflow(&self) -> Option<RegistryFull> {
        self.loops.overflow()
    }

    /// Number of instrumented accesses observed.
    pub fn accesses(&self) -> u64 {
        self.counters.accesses()
    }

    /// Number of RAW dependencies recorded.
    pub fn dependencies(&self) -> u64 {
        self.counters.deps()
    }

    /// Live snapshot of the global communication matrix.
    pub fn global_matrix(&self) -> DenseMatrix {
        self.flush_pending();
        self.global.snapshot()
    }

    /// Live snapshot of one loop's matrix (zero matrix if never touched).
    pub fn loop_matrix_snapshot(&self, id: LoopId) -> DenseMatrix {
        self.flush_pending();
        self.loops
            .get(id)
            .map(|m| m.snapshot())
            .unwrap_or_else(|| DenseMatrix::zero(self.config.threads))
    }

    /// Current profiler heap footprint: signatures + matrices + the
    /// per-thread counters. The signatures dominate and are input-size
    /// independent — the Figure 5 property (the counters add a small
    /// bounded term, quantified in DESIGN.md).
    pub fn memory_bytes(&self) -> usize {
        self.detector.memory_bytes()
            + self.global.memory_bytes()
            + self.loops.memory_bytes()
            + self.counters.memory_bytes()
    }

    /// The underlying detector (diagnostics).
    pub fn detector(&self) -> &RawDetector<R, W> {
        &self.detector
    }

    /// Produce the full report. Non-destructive: the profiler keeps all
    /// accumulated state, so calling `report()` twice (or profiling further
    /// and reporting again) works and the second report extends the first.
    pub fn report(&self) -> ProfileReport {
        self.flush_pending();
        let per_loop = self.loops.snapshot_all();
        let phases = self.phases.as_ref().map(|p| p.lock().clone().finish());
        ProfileReport {
            threads: self.config.threads,
            global: self.global.snapshot(),
            per_loop,
            accesses: self.accesses(),
            dependencies: self.dependencies(),
            memory_bytes: self.memory_bytes(),
            phase_windows: phases,
        }
    }

    /// Seed a freshly built profiler with accumulator state from a
    /// checkpoint: counters, the global matrix, and per-loop matrices.
    /// Signature state is restored separately (directly into the detector
    /// halves); phase tracking is not checkpointable and must be off.
    /// Single-threaded by contract — restore happens before any replay
    /// resumes, and every seeded quantity is commutative, so the result is
    /// indistinguishable from having profiled the prefix live.
    pub fn restore_accumulators(
        &self,
        accesses: u64,
        dependencies: u64,
        global: &DenseMatrix,
        loops: &[(LoopId, DenseMatrix)],
    ) {
        assert!(
            self.phases.is_none(),
            "phase tracking is not checkpointable"
        );
        self.counters.seed_counts(accesses, dependencies);
        self.global.add_dense(global);
        for (id, m) in loops {
            self.loops.get_or_insert(*id).add_dense(m);
        }
    }
}

impl<R: ReaderSet, W: WriterMap> CommProfiler<R, W> {
    /// Metrics-on access path: probe the detector, classify the outcome,
    /// and time the detect/accumulate stages for one access in
    /// [`TelemetryConfig::sample_every`]. Accumulation is identical to the
    /// plain path — the `telemetry_observability` test proves the outputs
    /// are byte-for-byte the same.
    pub(crate) fn on_access_instrumented(&self, ev: &AccessEvent, t: &Telemetry) {
        let t0 = t.should_sample(ev.tid).then(std::time::Instant::now);
        let (dep, probe) = self
            .detector
            .on_access_probed(ev.tid, ev.addr, ev.size, ev.kind);
        let detect_done = t0.map(|s| (s.elapsed(), std::time::Instant::now()));
        t.record_access(ev.tid, ev.kind, probe, dep.is_some());
        self.accumulate(ev, dep);
        if let Some((detect, accum_start)) = detect_done {
            t.observe(ev.tid, HistId::DetectNs, detect.as_nanos() as u64);
            t.observe(
                ev.tid,
                HistId::AccumNs,
                accum_start.elapsed().as_nanos() as u64,
            );
        }
    }

    /// Count one access and record its dependence, if any — the per-event
    /// accumulation step both per-event paths share.
    #[inline]
    fn accumulate(&self, ev: &AccessEvent, dep: Option<crate::raw::Dependence>) {
        self.counters.count_access(ev.tid);
        if let Some(dep) = dep {
            self.add_deps(
                ev.tid,
                1,
                &[(pack_key(ev.loop_id, dep.src, dep.dst), dep.bytes)],
            );
            if let Some(p) = &self.phases {
                p.lock().add(dep.src, dep.dst, dep.bytes);
            }
        }
    }
}

impl<R: ReaderSet, W: WriterMap> AccessSink for CommProfiler<R, W> {
    #[inline]
    fn on_access(&self, ev: &AccessEvent) {
        // One well-predicted branch when telemetry is off (the default) —
        // the zero-cost-when-off contract.
        if let Some(t) = &self.telemetry {
            self.on_access_instrumented(ev, t);
            return;
        }
        let dep = self.detector.on_access(ev.tid, ev.addr, ev.size, ev.kind);
        self.accumulate(ev, dep);
    }

    /// Batched delivery — live capture tiles, `Trace::replay` and
    /// `par_replay` blocks. It is the fused tile loop of
    /// [`CommProfiler::on_block_fused`] (DESIGN.md §12, §15) on this
    /// thread's scratch, so the result is byte-identical to per-event
    /// delivery — the `batched_hot_path` suite pins exactly that.
    fn on_batch(&self, evs: &[AccessEvent]) {
        crate::fused::with_thread_scratch(|scratch| self.on_block_fused(evs, scratch));
    }

    fn flush(&self) {
        self.flush_pending();
    }

    /// Algorithm 1 needs each thread's accesses in program order and the
    /// synchronised ones in synchronisation order; live capture tiles keep
    /// both (DESIGN.md, "Live capture tiles"), so live threads feed
    /// [`Self::on_batch`] a tile at a time.
    fn accepts_tiles(&self) -> bool {
        true
    }
}

/// Everything one profiling run produced.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Matrix dimension.
    pub threads: usize,
    /// Whole-program communication matrix.
    pub global: DenseMatrix,
    /// Per-loop matrices (innermost attribution), keyed by loop UID.
    pub per_loop: HashMap<LoopId, DenseMatrix>,
    /// Instrumented accesses observed.
    pub accesses: u64,
    /// RAW dependencies recorded.
    pub dependencies: u64,
    /// Profiler heap footprint at report time.
    pub memory_bytes: usize,
    /// Phase windows, when phase tracking was enabled.
    pub phase_windows: Option<Vec<DenseMatrix>>,
}

impl ProfileReport {
    /// Run phase detection on the recorded windows (None if phases were
    /// not tracked).
    pub fn phases(&self, threshold: f64) -> Option<Vec<Phase>> {
        self.phase_windows
            .as_ref()
            .map(|w| detect_phases(w, threshold))
    }

    /// Sum of all per-loop matrices — for the Σ-children invariant check
    /// against `global` (accesses outside any loop are attributed to
    /// `LoopId::NONE`, so the sum over *all* keys equals the global).
    pub fn per_loop_sum(&self) -> DenseMatrix {
        let mut acc = DenseMatrix::zero(self.threads);
        for m in self.per_loop.values() {
            acc.accumulate(m);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_trace::{AccessKind, FuncId};
    use std::sync::Arc;

    fn ev(tid: u32, addr: u64, kind: AccessKind, loop_id: LoopId) -> AccessEvent {
        AccessEvent {
            tid,
            addr,
            size: 8,
            kind,
            loop_id,
            parent_loop: LoopId::NONE,
            func: FuncId::NONE,
            site: 0,
        }
    }

    #[test]
    fn profiler_builds_global_matrix() {
        let p = PerfectProfiler::perfect(ProfilerConfig::nested(4));
        p.on_access(&ev(0, 0x10, AccessKind::Write, LoopId(1)));
        p.on_access(&ev(1, 0x10, AccessKind::Read, LoopId(1)));
        p.on_access(&ev(2, 0x10, AccessKind::Read, LoopId(2)));
        let r = p.report();
        assert_eq!(r.accesses, 3);
        assert_eq!(r.dependencies, 2);
        assert_eq!(r.global.get(0, 1), 8);
        assert_eq!(r.global.get(0, 2), 8);
        assert_eq!(r.global.total(), 16);
    }

    #[test]
    fn registry_overflow_degrades_without_panicking() {
        // One-loop capacity, three distinct loops carrying dependences: the
        // run completes, the global matrix stays exact, and the latched
        // overflow (plus a dropped-delta count) is readable afterwards.
        let p = PerfectProfiler::from_detector_with(
            PerfectDetector::perfect(),
            ProfilerConfig::nested(4),
            AccumConfig { loop_capacity: 1 },
        );
        for l in 1..=3u32 {
            p.on_access(&ev(0, 0x10 * l as u64, AccessKind::Write, LoopId(l)));
            p.on_access(&ev(1, 0x10 * l as u64, AccessKind::Read, LoopId(l)));
        }
        let r = p.report();
        assert_eq!(r.dependencies, 3);
        assert_eq!(r.global.get(0, 1), 24, "global must stay exact");
        let e = p.registry_overflow().expect("overflow latched");
        assert!(e.to_string().contains("loop-matrix registry full"));
        assert!(p.loops.dropped_deltas() > 0);
        assert!(r.per_loop.len() <= 1, "capacity bound exceeded");
    }

    #[test]
    fn nested_attribution_is_per_loop() {
        let p = PerfectProfiler::perfect(ProfilerConfig::nested(4));
        p.on_access(&ev(0, 0x10, AccessKind::Write, LoopId(1)));
        p.on_access(&ev(1, 0x10, AccessKind::Read, LoopId(1)));
        p.on_access(&ev(0, 0x18, AccessKind::Write, LoopId(2)));
        p.on_access(&ev(3, 0x18, AccessKind::Read, LoopId(2)));
        let r = p.report();
        assert_eq!(r.per_loop[&LoopId(1)].get(0, 1), 8);
        assert_eq!(r.per_loop[&LoopId(2)].get(0, 3), 8);
        // Σ per-loop == global.
        assert_eq!(r.per_loop_sum(), r.global);
    }

    #[test]
    fn nested_tracking_can_be_disabled() {
        let p = PerfectProfiler::perfect(ProfilerConfig {
            threads: 2,
            track_nested: false,
            phase_window: None,
        });
        p.on_access(&ev(0, 0x10, AccessKind::Write, LoopId(1)));
        p.on_access(&ev(1, 0x10, AccessKind::Read, LoopId(1)));
        let r = p.report();
        assert!(r.per_loop.is_empty());
        assert_eq!(r.global.total(), 8);
    }

    #[test]
    fn phase_windows_are_recorded() {
        let p = PerfectProfiler::perfect(ProfilerConfig {
            threads: 2,
            track_nested: false,
            phase_window: Some(2),
        });
        for i in 0..5u64 {
            p.on_access(&ev(0, 0x100 + i * 8, AccessKind::Write, LoopId::NONE));
            p.on_access(&ev(1, 0x100 + i * 8, AccessKind::Read, LoopId::NONE));
        }
        let r = p.report();
        let windows = r.phase_windows.as_ref().unwrap();
        assert_eq!(windows.len(), 3); // 2 + 2 + 1 deps
        assert_eq!(r.phases(0.5).unwrap().len(), 1); // same pattern: 1 phase
    }

    #[test]
    fn report_is_non_destructive() {
        // Regression test: report() used to mem::replace the phase
        // accumulator, so a second report lost all phase windows (and any
        // caller reporting mid-run destroyed the rest of the run's phases).
        let p = PerfectProfiler::perfect(ProfilerConfig {
            threads: 2,
            track_nested: true,
            phase_window: Some(2),
        });
        for i in 0..4u64 {
            p.on_access(&ev(0, 0x100 + i * 8, AccessKind::Write, LoopId(1)));
            p.on_access(&ev(1, 0x100 + i * 8, AccessKind::Read, LoopId(1)));
        }
        let first = p.report();
        let second = p.report();
        assert_eq!(first.global, second.global);
        assert_eq!(first.per_loop, second.per_loop);
        assert_eq!(first.accesses, second.accesses);
        assert_eq!(first.dependencies, second.dependencies);
        assert_eq!(first.phase_windows, second.phase_windows);
        assert_eq!(first.phase_windows.as_ref().unwrap().len(), 2);

        // Profiling continues seamlessly after a mid-run report.
        p.on_access(&ev(0, 0x400, AccessKind::Write, LoopId(1)));
        p.on_access(&ev(1, 0x400, AccessKind::Read, LoopId(1)));
        let third = p.report();
        assert_eq!(third.dependencies, second.dependencies + 1);
        assert_eq!(third.phase_windows.as_ref().unwrap().len(), 3);
    }

    #[test]
    fn profiler_is_reusable_from_many_threads() {
        let p = Arc::new(PerfectProfiler::perfect(ProfilerConfig::nested(8)));
        std::thread::scope(|s| {
            for tid in 1..8u32 {
                let p = Arc::clone(&p);
                s.spawn(move || {
                    // Thread 0 wrote these addresses up front... simulate by
                    // each reader thread first writing its own then reading
                    // a shared one written by tid-1 pattern.
                    p.on_access(&ev(
                        tid,
                        0x1000 + tid as u64 * 8,
                        AccessKind::Write,
                        LoopId(1),
                    ));
                });
            }
        });
        // Now single "reader" thread reads everything.
        for tid in 1..8u32 {
            p.on_access(&ev(0, 0x1000 + tid as u64 * 8, AccessKind::Read, LoopId(1)));
        }
        let r = p.report();
        assert_eq!(r.dependencies, 7);
        let loads = r.global.col_sums();
        assert_eq!(loads[0], 7 * 8); // thread 0 consumed from everyone
    }

    #[test]
    fn live_reads_see_every_recorded_dependence() {
        let p = PerfectProfiler::perfect(ProfilerConfig::nested(2));
        p.on_access(&ev(0, 0x10, AccessKind::Write, LoopId(3)));
        p.on_access(&ev(1, 0x10, AccessKind::Read, LoopId(3)));
        assert_eq!(p.global_matrix().get(0, 1), 8);
        assert_eq!(p.loop_matrix_snapshot(LoopId(3)).get(0, 1), 8);
        assert_eq!(p.dependencies(), 1);
    }

    #[test]
    fn memory_bytes_reports_signatures_plus_matrices() {
        let p = AsymmetricProfiler::asymmetric(
            SignatureConfig::paper_default(1 << 10, 4),
            ProfilerConfig::nested(4),
        );
        let m = p.memory_bytes();
        assert!(m >= (1 << 10) * 4); // at least the write signature
        p.on_access(&ev(0, 0x10, AccessKind::Write, LoopId(1)));
        p.on_access(&ev(1, 0x10, AccessKind::Read, LoopId(1)));
        assert!(p.memory_bytes() > m); // a loop matrix + a bloom appeared
    }
}
