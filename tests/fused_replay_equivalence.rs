//! Differential suite: the fused tile loop is **byte-identical** to
//! per-event delivery.
//!
//! The fused loop (DESIGN.md §15) streams event tiles straight into the
//! detectors with block-batched dependence recording; `on_batch` and the
//! fused replay engine both run it. The batching may not be observable:
//! for every trace, batch size, worker count, detector, replay route
//! (`ParReplayConfig::fused` on and off) and event source (in-RAM SoA or
//! v3 spool read a segment at a time), the canonical report must equal one profiler fed
//! every event through per-event `on_access`, byte for byte, including
//! with phase windows whose boundaries straddle tile boundaries.

use std::sync::Arc;

use lc_profiler::{
    analyze_trace_asymmetric, analyze_trace_perfect, canonical_report, AccumConfig,
    AsymmetricProfiler, IncrementalAnalyzer, ParAnalysis, ParReplayConfig, PerfectProfiler,
    ProfilerConfig,
};
use lc_sigmem::SignatureConfig;
use lc_trace::{
    AccessEvent, AccessKind, AccessSink, FuncId, LoopId, MmapTrace, RecordingSink, SpoolV3Writer,
    StampedEvent, Trace, TraceCtx,
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

/// The anchor: one profiler fed every event through per-event
/// `on_access`, in stream order.
fn per_event<S: AccessSink>(trace: &Trace, profiler: S) -> S {
    for e in trace.events() {
        profiler.on_access(&e.event);
    }
    profiler
}

fn per_event_asymmetric(
    trace: &Trace,
    sig: SignatureConfig,
    prof: ProfilerConfig,
) -> ProfileReport {
    per_event(trace, AsymmetricProfiler::asymmetric(sig, prof)).report()
}

fn per_event_perfect(trace: &Trace, prof: ProfilerConfig) -> ProfileReport {
    per_event(trace, PerfectProfiler::perfect(prof)).report()
}

/// Reports must match to the byte, including access counts (neither
/// side coalesces here) and phase windows when present.
fn assert_identical(anchor: &ProfileReport, got: &ParAnalysis, events: u64, what: &str) {
    assert_eq!(
        canonical_report(anchor, events),
        canonical_report(&got.report, events),
        "{what}: canonical reports diverge"
    );
    assert_eq!(
        anchor.accesses, got.report.accesses,
        "{what}: access counts diverge"
    );
    assert_eq!(
        anchor.phase_windows, got.report.phase_windows,
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
    let anchor = per_event_asymmetric(trace, sig, prof);
    for jobs in JOBS {
        for batch in BATCHES {
            for fused in [false, true] {
                let got = analyze_trace_asymmetric(
                    trace,
                    sig,
                    prof,
                    AccumConfig::default(),
                    &cfg(jobs, batch, fused),
                );
                let what = format!("asymmetric jobs={jobs} batch={batch} fused={fused}");
                assert_identical(&anchor, &got, events, &what);
            }
        }
    }
}

fn sweep_perfect(trace: &Trace, threads: usize) {
    let prof = ProfilerConfig::nested(threads);
    let events = trace.len() as u64;
    let anchor = per_event_perfect(trace, prof);
    for jobs in JOBS {
        for batch in BATCHES {
            for fused in [false, true] {
                let got = analyze_trace_perfect(
                    trace,
                    prof,
                    AccumConfig::default(),
                    &cfg(jobs, batch, fused),
                );
                let what = format!("perfect jobs={jobs} batch={batch} fused={fused}");
                assert_identical(&anchor, &got, events, &what);
            }
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
    // boundaries land mid-tile, so the fused loop's deferred in-order
    // phase drain must reproduce the per-event accumulator exactly.
    let threads = 4;
    let trace = record_workload("fft", threads, 5);
    let sig = SignatureConfig::paper_default(1 << 10, threads);
    let prof = ProfilerConfig {
        phase_window: Some(37),
        ..ProfilerConfig::nested(threads)
    };
    let events = trace.len() as u64;
    let anchor = per_event_asymmetric(&trace, sig, prof);
    assert!(
        anchor.phase_windows.is_some(),
        "phase tracking must be active for this test to mean anything"
    );
    for batch in [7usize, 256] {
        for fused in [false, true] {
            let got = analyze_trace_asymmetric(
                &trace,
                sig,
                prof,
                AccumConfig::default(),
                &cfg(1, batch, fused),
            );
            let what = format!("phases batch={batch} fused={fused}");
            assert_identical(&anchor, &got, events, &what);
        }
    }
}

// ---- v3 spool source -------------------------------------------------------

/// Round-trip a trace through an indexed v3 spool and stream its segments
/// into incremental analyzers — the serve-path shape. The analyzer sees
/// borrowed `&[StampedEvent]` tiles decoded from each segment as it is
/// read; its canonical report must match per-event delivery's.
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

    let spool = MmapTrace::open(&path).expect("open spool");
    let sig = SignatureConfig::paper_default(1 << 10, threads);
    let prof = ProfilerConfig::nested(threads);

    let run = |jobs: usize| -> String {
        let mut an = IncrementalAnalyzer::asymmetric(sig, prof, AccumConfig::default(), jobs);
        spool
            .stream_from(0, |frame| an.on_frame(frame))
            .expect("stream spool");
        canonical_report(&an.report(), an.events())
    };

    // In-RAM per-event delivery anchors everything.
    let anchor = canonical_report(&per_event_asymmetric(&trace, sig, prof), trace.len() as u64);

    for jobs in [1usize, 2, 4] {
        assert_eq!(anchor, run(jobs), "spool stream diverges at jobs={jobs}");
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
    // Each case sweeps batch {1, 7, 64} × jobs {1, 2} × both replay
    // routes × both detectors;
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
        let anchor_a = canonical_report(&per_event_asymmetric(&trace, sig, prof), events);
        let anchor_p = canonical_report(&per_event_perfect(&trace, prof), events);
        for jobs in [1usize, 2] {
            for batch in [1usize, 7, 64] {
                for fused in [false, true] {
                    let got_a = analyze_trace_asymmetric(
                        &trace, sig, prof, AccumConfig::default(), &cfg(jobs, batch, fused));
                    prop_assert_eq!(
                        &anchor_a,
                        &canonical_report(&got_a.report, events),
                        "asymmetric jobs={} batch={} fused={}", jobs, batch, fused);
                    let got_p = analyze_trace_perfect(
                        &trace, prof, AccumConfig::default(), &cfg(jobs, batch, fused));
                    prop_assert_eq!(
                        &anchor_p,
                        &canonical_report(&got_p.report, events),
                        "perfect jobs={} batch={} fused={}", jobs, batch, fused);
                }
            }
        }
    }
}
