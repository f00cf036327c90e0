//! Differential test: the sharded accumulation path must be *lossless*.
//!
//! The profiler counts per thread, folds a fused block's dependences by
//! `(loop, src, dst)` key, and adds each key straight into the shared
//! matrices through the loop registry; matrix-cell addition commutes, so
//! the result must be **byte-identical** to an independent reference fed
//! the same access stream: the bare detector's dependences folded straight
//! into one global matrix, a per-loop map, the counts and a phase
//! accumulator — no shard, block fold or loop registry involved. These
//! tests record one trace (including genuinely concurrent recordings),
//! replay it into both, and require identical `DenseMatrix` snapshots,
//! identical per-loop maps, identical access/dependence counts and
//! identical phase windows.

use std::collections::HashMap;
use std::sync::Arc;

use lc_profiler::raw::{AsymmetricDetector, PerfectDetector, RawDetector};
use lc_profiler::{
    AsymmetricProfiler, CommProfiler, DenseMatrix, FusedScratch, PerfectProfiler, PhaseAccumulator,
    ProfilerConfig,
};
use lc_sigmem::{ReaderSet, SignatureConfig, WriterMap};
use lc_trace::{run_threads, RecordingSink, StampedEvent, Trace, TraceCtx, TracedBuffer};
use loopcomm::prelude::*;

/// Record a deterministic-by-stamp trace from a concurrent exchange
/// workload: every thread writes its own block, then reads every other
/// thread's block, across several loops.
fn record_exchange(threads: usize, rounds: usize, words: usize, loops: usize) -> Trace {
    let rec = Arc::new(RecordingSink::new());
    let ctx = TraceCtx::new(rec.clone(), threads);
    let f = ctx.func("exchange");
    let loop_ids: Vec<_> = (0..loops)
        .map(|i| ctx.root_loop(&format!("l{i}"), f))
        .collect();
    let buf: TracedBuffer<u64> = ctx.alloc(threads * words);
    run_threads(threads, |tid| {
        for round in 0..rounds {
            let l = loop_ids[round % loops];
            let _g = lc_trace::enter_loop(l);
            for w in 0..words {
                buf.store(tid * words + w, (round + w) as u64);
            }
            for other in 0..threads {
                if other != tid {
                    for w in 0..words {
                        std::hint::black_box(buf.load(other * words + w));
                    }
                }
            }
        }
    });
    rec.finish()
}

fn config(threads: usize, phase_window: Option<u64>) -> ProfilerConfig {
    ProfilerConfig {
        threads,
        track_nested: true,
        phase_window,
    }
}

/// The reference fold over `events`, in stream order.
struct Reference<R: ReaderSet, W: WriterMap> {
    detector: RawDetector<R, W>,
    threads: usize,
    global: DenseMatrix,
    per_loop: HashMap<lc_trace::LoopId, DenseMatrix>,
    accesses: u64,
    dependencies: u64,
    phases: Option<PhaseAccumulator>,
}

impl<R: ReaderSet, W: WriterMap> Reference<R, W> {
    fn new(detector: RawDetector<R, W>, prof: ProfilerConfig) -> Self {
        Self {
            detector,
            threads: prof.threads,
            global: DenseMatrix::zero(prof.threads),
            per_loop: HashMap::new(),
            accesses: 0,
            dependencies: 0,
            phases: prof
                .phase_window
                .map(|w| PhaseAccumulator::new(prof.threads, w)),
        }
    }

    fn feed(&mut self, events: &[StampedEvent]) {
        for e in events {
            let ev = &e.event;
            self.accesses += 1;
            let Some(d) = self.detector.on_access(ev.tid, ev.addr, ev.size, ev.kind) else {
                continue;
            };
            let (src, dst) = (d.src as usize, d.dst as usize);
            self.dependencies += 1;
            self.global.bump(src, dst, d.bytes);
            self.per_loop
                .entry(ev.loop_id)
                .or_insert_with(|| DenseMatrix::zero(self.threads))
                .bump(src, dst, d.bytes);
            if let Some(p) = &mut self.phases {
                p.add(d.src, d.dst, d.bytes);
            }
        }
    }

    fn report(&self) -> ProfileReport {
        ProfileReport {
            threads: self.threads,
            global: self.global.clone(),
            per_loop: self.per_loop.clone(),
            accesses: self.accesses,
            dependencies: self.dependencies,
            memory_bytes: 0,
            phase_windows: self.phases.clone().map(PhaseAccumulator::finish),
        }
    }
}

fn assert_reports_identical(a: &ProfileReport, b: &ProfileReport) {
    assert_eq!(a.accesses, b.accesses, "access counts diverge");
    assert_eq!(a.dependencies, b.dependencies, "dependence counts diverge");
    assert_eq!(a.global, b.global, "global matrices diverge");
    assert_eq!(
        a.per_loop.len(),
        b.per_loop.len(),
        "per-loop key sets diverge"
    );
    for (id, m) in &a.per_loop {
        assert_eq!(
            Some(m),
            b.per_loop.get(id),
            "loop {id:?} matrix diverges between profiler and reference"
        );
    }
    assert_eq!(a.phase_windows, b.phase_windows, "phase windows diverge");
}

#[test]
fn sharded_report_is_byte_identical_to_reference_perfect() {
    let threads = 6;
    let trace = record_exchange(threads, 24, 8, 5);
    let profiler = PerfectProfiler::perfect(config(threads, None));
    trace.replay(&profiler);
    let mut reference = Reference::new(PerfectDetector::perfect(), config(threads, None));
    reference.feed(trace.events());

    let (a, b) = (profiler.report(), reference.report());
    assert!(a.dependencies > 0, "workload produced no dependences");
    assert_reports_identical(&a, &b);
}

#[test]
fn sharded_report_is_byte_identical_to_reference_asymmetric() {
    // Same property through the paper's approximate signatures: on an
    // identical replayed stream the detector is deterministic, so any
    // divergence would come from the accumulation layer.
    let threads = 4;
    let trace = record_exchange(threads, 16, 16, 3);
    let sig = SignatureConfig::paper_default(1 << 12, threads);
    let profiler = AsymmetricProfiler::asymmetric(sig, config(threads, Some(32)));
    trace.replay(&profiler);
    let mut reference = Reference::new(
        AsymmetricDetector::asymmetric(sig),
        config(threads, Some(32)),
    );
    reference.feed(trace.events());

    let (a, b) = (profiler.report(), reference.report());
    assert!(a.dependencies > 0);
    assert!(a.phase_windows.is_some());
    assert_reports_identical(&a, &b);
}

/// Per-event `on_access` and fused blocks of `block` events must both
/// match the reference on `trace`.
fn assert_block_sizes_agree<R: ReaderSet, W: WriterMap>(
    trace: &Trace,
    make: impl Fn() -> CommProfiler<R, W>,
    expected: &ProfileReport,
) {
    let per_event = make();
    for e in trace.events() {
        per_event.on_access(&e.event);
    }
    assert_reports_identical(&per_event.report(), expected);
    for block in [1, 7, 256, 4096] {
        let fused = make();
        let mut scratch = FusedScratch::with_defaults();
        for chunk in trace.events().chunks(block) {
            fused.on_block_fused(chunk, &mut scratch);
        }
        let got = fused.report();
        assert_eq!(
            got.global, expected.global,
            "diverged at block size {block}"
        );
        assert_reports_identical(&got, expected);
    }
}

#[test]
fn per_event_and_fused_blocks_agree_across_block_sizes() {
    // Block boundaries change how many keys one add covers, never what
    // lands.
    let threads = 4;
    let trace = record_exchange(threads, 12, 8, 4);
    let mut reference = Reference::new(PerfectDetector::perfect(), config(threads, None));
    reference.feed(trace.events());
    assert_block_sizes_agree(
        &trace,
        || PerfectProfiler::perfect(config(threads, None)),
        &reference.report(),
    );

    let sig = SignatureConfig::paper_default(1 << 12, threads);
    let mut reference = Reference::new(
        AsymmetricDetector::asymmetric(sig),
        config(threads, Some(32)),
    );
    reference.feed(trace.events());
    let expected = reference.report();
    assert!(expected.phase_windows.is_some());
    assert_block_sizes_agree(
        &trace,
        || AsymmetricProfiler::asymmetric(sig, config(threads, Some(32))),
        &expected,
    );
}

#[test]
fn mid_run_snapshots_match_the_reference() {
    // Interleave per-event delivery with live reads: every dependence is
    // in its cell as soon as it is recorded, so the running totals must
    // match the reference at every cut point.
    let threads = 4;
    let trace = record_exchange(threads, 8, 4, 2);
    let profiler = PerfectProfiler::perfect(config(threads, None));
    let mut reference = Reference::new(PerfectDetector::perfect(), config(threads, None));
    for e in trace.events() {
        profiler.on_access(&e.event);
        reference.feed(std::slice::from_ref(e));
        if e.seq % 97 == 0 {
            assert_eq!(profiler.global_matrix(), reference.global);
            assert_eq!(profiler.dependencies(), reference.dependencies);
        }
    }
    assert_reports_identical(&profiler.report(), &reference.report());
}
