//! Differential suite: the fused zero-materialization replay engine is
//! **byte-identical** to the materialized batched path.
//!
//! The fused path (DESIGN.md §15) streams decoded event tiles straight
//! into the detectors with block-batched dependence recording. The
//! batching may not be observable: for every trace, batch size, worker
//! count, detector, and event source (in-RAM SoA or v3 spool via mmap),
//! the canonical report produced with `fused: true` must equal the report
//! produced with `fused: false` byte for byte, including with phase
//! windows whose boundaries straddle tile boundaries.

use std::sync::Arc;

use lc_profiler::{
    analyze_trace_asymmetric, analyze_trace_perfect, canonical_report, AccumConfig,
    IncrementalAnalyzer, ParAnalysis, ParReplayConfig, ProfilerConfig,
};
use lc_sigmem::SignatureConfig;
use lc_trace::{
    AccessEvent, AccessKind, FuncId, LoopId, MmapTrace, RecordingSink, SpoolV3Writer, StampedEvent,
    Trace, TraceCtx,
};
use loopcomm::prelude::*;
use proptest::prelude::*;

/// The batch sizes the issue calls out: degenerate (1), prime and
/// unaligned (7), the serve-path default (256), and a tile far larger
/// than the dep-scratch drain threshold (4096).
const BATCHES: [usize; 4] = [1, 7, 256, 4096];
const JOBS: [usize; 3] = [1, 2, 4];

fn record_workload(name: &str, threads: usize, seed: u64) -> Trace {
    let rec = Arc::new(RecordingSink::new());
    let ctx = TraceCtx::new(rec.clone(), threads);
    by_name(name)
        .expect("workload exists")
        .run(&ctx, &RunConfig::new(threads, InputSize::SimDev, seed));
    rec.finish()
}

/// Reports must match to the byte, including access counts (neither
/// side coalesces here) and phase windows when present.
fn assert_identical(mat: &ParAnalysis, fused: &ParAnalysis, events: u64, what: &str) {
    assert_eq!(
        canonical_report(&mat.report, events),
        canonical_report(&fused.report, events),
        "{what}: canonical reports diverge"
    );
    assert_eq!(
        mat.report.accesses, fused.report.accesses,
        "{what}: access counts diverge"
    );
    assert_eq!(
        mat.report.phase_windows, fused.report.phase_windows,
        "{what}: phase windows diverge"
    );
}

fn cfg(jobs: usize, batch: usize, fused: bool) -> ParReplayConfig {
    ParReplayConfig {
        jobs,
        coalesce: false,
        batch_events: batch,
        fused,
    }
}

fn sweep_asymmetric(trace: &Trace, threads: usize, slots: usize) {
    let sig = SignatureConfig::paper_default(slots, threads);
    let prof = ProfilerConfig::nested(threads);
    let events = trace.len() as u64;
    for jobs in JOBS {
        for batch in BATCHES {
            let mat = analyze_trace_asymmetric(
                trace,
                sig,
                prof,
                AccumConfig::default(),
                &cfg(jobs, batch, false),
            );
            let fused = analyze_trace_asymmetric(
                trace,
                sig,
                prof,
                AccumConfig::default(),
                &cfg(jobs, batch, true),
            );
            let what = format!("asymmetric jobs={jobs} batch={batch}");
            assert_identical(&mat, &fused, events, &what);
        }
    }
}

fn sweep_perfect(trace: &Trace, threads: usize) {
    let prof = ProfilerConfig::nested(threads);
    let events = trace.len() as u64;
    for jobs in JOBS {
        for batch in BATCHES {
            let mat = analyze_trace_perfect(
                trace,
                prof,
                AccumConfig::default(),
                &cfg(jobs, batch, false),
            );
            let fused =
                analyze_trace_perfect(trace, prof, AccumConfig::default(), &cfg(jobs, batch, true));
            let what = format!("perfect jobs={jobs} batch={batch}");
            assert_identical(&mat, &fused, events, &what);
        }
    }
}

#[test]
fn fused_matches_materialized_on_radix() {
    let threads = 4;
    let trace = record_workload("radix", threads, 7);
    assert!(!trace.is_empty());
    sweep_asymmetric(&trace, threads, 1 << 12);
    sweep_perfect(&trace, threads);
}

#[test]
fn fused_matches_materialized_on_fft() {
    let threads = 4;
    let trace = record_workload("fft", threads, 11);
    sweep_asymmetric(&trace, threads, 1 << 12);
    sweep_perfect(&trace, threads);
}

#[test]
fn fused_matches_under_tiny_signature_aliasing() {
    // An undersized signature maximizes slot sharing: every write clears
    // a whole filter that many addresses alias into, so suppressed and
    // re-armed dependences are dense in the stream.
    let threads = 4;
    let trace = record_workload("radix", threads, 13);
    sweep_asymmetric(&trace, threads, 1 << 6);
}

#[test]
fn phase_windows_straddling_tile_boundaries_agree() {
    // phase_window = 37 events against tiles of {7, 256}: window
    // boundaries land mid-tile, so the fused engine's deferred in-order
    // phase drain must reproduce the materialized accumulator exactly.
    let threads = 4;
    let trace = record_workload("fft", threads, 5);
    let sig = SignatureConfig::paper_default(1 << 10, threads);
    let prof = ProfilerConfig {
        phase_window: Some(37),
        ..ProfilerConfig::nested(threads)
    };
    let events = trace.len() as u64;
    for batch in [7usize, 256] {
        let mat = analyze_trace_asymmetric(
            &trace,
            sig,
            prof,
            AccumConfig::default(),
            &cfg(1, batch, false),
        );
        assert!(
            mat.report.phase_windows.is_some(),
            "phase tracking must be active for this test to mean anything"
        );
        let fused = analyze_trace_asymmetric(
            &trace,
            sig,
            prof,
            AccumConfig::default(),
            &cfg(1, batch, true),
        );
        assert_identical(&mat, &fused, events, &format!("phases batch={batch}"));
    }
}

// ---- v3 spool / mmap source ----------------------------------------------

/// Round-trip a trace through an indexed v3 spool and stream the mmap'd
/// frames into incremental analyzers — the serve-path shape. The fused
/// consumer sees borrowed `&[StampedEvent]` tiles decoded straight from
/// spool pages; its canonical report must match the unfused consumer's.
#[test]
fn mmap_spool_source_agrees_with_in_ram() {
    let threads = 4;
    let trace = record_workload("radix", threads, 21);
    let dir = std::env::temp_dir().join(format!("lc-fused-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("trace.spool");

    let mut w = SpoolV3Writer::create(&path).expect("create spool");
    // Deliberately ragged frame sizes so spool frame boundaries disagree
    // with every analyzer batch size.
    let mut off = 0usize;
    let evs = trace.events();
    for width in [13usize, 256, 1000, 4096].iter().cycle() {
        if off >= evs.len() {
            break;
        }
        let end = (off + width).min(evs.len());
        w.append_frame(&evs[off..end]).expect("append frame");
        off = end;
    }
    w.finish().expect("finish spool");

    let mmap = MmapTrace::open(&path).expect("open mmap trace");
    let sig = SignatureConfig::paper_default(1 << 10, threads);
    let prof = ProfilerConfig::nested(threads);

    let run = |fused: bool, jobs: usize| -> String {
        let mut an = IncrementalAnalyzer::asymmetric(sig, prof, AccumConfig::default(), jobs);
        an.set_fused(fused);
        mmap.stream_from(0, |frame| an.on_frame(frame))
            .expect("stream spool");
        canonical_report(&an.report(), an.events())
    };

    // The in-RAM materialized analysis anchors everything.
    let anchor = analyze_trace_asymmetric(
        &trace,
        sig,
        prof,
        AccumConfig::default(),
        &cfg(1, 512, false),
    );
    let anchor = canonical_report(&anchor.report, trace.len() as u64);

    for jobs in [1usize, 2, 4] {
        assert_eq!(
            anchor,
            run(false, jobs),
            "unfused mmap stream diverges at jobs={jobs}"
        );
        assert_eq!(
            anchor,
            run(true, jobs),
            "fused mmap stream diverges at jobs={jobs}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

// ---- adversarial random traces -------------------------------------------

const THREADS: u32 = 6;

/// Tiny address pool ⇒ dense writer/reader interleavings, heavy slot
/// aliasing, and high idempotent-read rates.
fn arb_event() -> impl Strategy<Value = (u32, u64, bool, u32)> {
    (0..THREADS, 0u64..24, any::<bool>(), 0..4u32)
}

fn script_to_trace(script: &[(u32, u64, bool, u32)]) -> Trace {
    Trace::new(
        script
            .iter()
            .enumerate()
            .map(|(i, &(tid, slot, is_write, lp))| StampedEvent {
                seq: i as u64,
                event: AccessEvent {
                    tid,
                    addr: 0x1000 + slot * 8,
                    size: 8,
                    kind: if is_write {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                    loop_id: if lp == 0 { LoopId::NONE } else { LoopId(lp) },
                    parent_loop: LoopId::NONE,
                    func: FuncId::NONE,
                    site: 0,
                },
            })
            .collect(),
    )
}

proptest! {
    // Each case sweeps batch {1, 7, 64} × jobs {1, 2} × both detectors;
    // case count follows PROPTEST_CASES.
    #[test]
    fn random_traces_agree_fused_vs_materialized(
        script in prop::collection::vec(arb_event(), 1..300),
    ) {
        let trace = script_to_trace(&script);
        let threads = THREADS as usize;
        let events = trace.len() as u64;
        let prof = ProfilerConfig::nested(threads);
        let sig = SignatureConfig::paper_default(1 << 8, threads);
        for jobs in [1usize, 2] {
            for batch in [1usize, 7, 64] {
                let mat_a = analyze_trace_asymmetric(
                    &trace, sig, prof, AccumConfig::default(), &cfg(jobs, batch, false));
                let mat_p = analyze_trace_perfect(
                    &trace, prof, AccumConfig::default(), &cfg(jobs, batch, false));
                let fus_a = analyze_trace_asymmetric(
                    &trace, sig, prof, AccumConfig::default(), &cfg(jobs, batch, true));
                prop_assert_eq!(
                    canonical_report(&mat_a.report, events),
                    canonical_report(&fus_a.report, events),
                    "asymmetric jobs={} batch={}", jobs, batch);
                let fus_p = analyze_trace_perfect(
                    &trace, prof, AccumConfig::default(), &cfg(jobs, batch, true));
                prop_assert_eq!(
                    canonical_report(&mat_p.report, events),
                    canonical_report(&fus_p.report, events),
                    "perfect jobs={} batch={}", jobs, batch);
            }
        }
    }
}
