//! Differential tests for the batched replay hot loop (DESIGN.md §12).
//!
//! The batched `on_batch` path earns its throughput through SWAR block
//! hashing (`hash_block`) and hash reuse across every signature
//! consultation (`on_access_hashed`), neither of which may change a single
//! reported byte. These tests pin that claim at each layer:
//!
//! 1. `hash_block` is lane-for-lane identical to scalar `fmix64`;
//! 2. batched replay produces reports byte-identical to per-event replay
//!    for every batch size — including sizes that straddle phase-window
//!    boundaries — on both detectors.

use std::sync::Arc;

use lc_profiler::raw::{AsymmetricDetector, PerfectDetector};
use lc_sigmem::hash_block;
use lc_sigmem::murmur::fmix64;
use lc_trace::{AccessKind, AccessSink, RecordingSink, Trace, TraceCtx};
use loopcomm::prelude::*;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Layer 1: SWAR hashing.
// ---------------------------------------------------------------------------

#[test]
fn hash_block_matches_scalar_on_awkward_lengths() {
    // Lengths around the 4-lane boundary exercise both the unrolled body
    // and the scalar remainder.
    for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 256, 1000] {
        let addrs: Vec<u64> = (0..len as u64)
            .map(|i| 0x1000 + i.wrapping_mul(0x9e37_79b9))
            .collect();
        let mut out = vec![0u64; len];
        hash_block(&addrs, &mut out);
        for (i, (&a, &h)) in addrs.iter().zip(&out).enumerate() {
            assert_eq!(h, fmix64(a), "lane {i} of {len} diverged from scalar");
        }
    }
}

proptest! {
    #[test]
    fn hash_block_matches_scalar_on_random_blocks(
        seed in 0u64..u64::MAX,
        len in 0usize..512,
    ) {
        // Mix addresses from a seeded counter so runs cover sequential,
        // strided, and high-entropy inputs without a Vec<u64> strategy.
        let addrs: Vec<u64> = (0..len as u64)
            .map(|i| seed ^ fmix64(seed.wrapping_add(i)))
            .collect();
        let mut out = vec![0u64; len];
        hash_block(&addrs, &mut out);
        for (&a, &h) in addrs.iter().zip(&out) {
            prop_assert_eq!(h, fmix64(a));
        }
    }
}

// ---------------------------------------------------------------------------
// Layer 2: batched replay is byte-identical to per-event replay.
// ---------------------------------------------------------------------------

/// Record one SPLASH-style workload trace through the real tracing stack.
fn record_workload(name: &str, threads: usize, seed: u64) -> Trace {
    let rec = Arc::new(RecordingSink::new());
    let ctx = TraceCtx::new(rec.clone(), threads);
    by_name(name)
        .expect("workload exists")
        .run(&ctx, &RunConfig::new(threads, InputSize::SimDev, seed));
    rec.finish()
}

fn config(threads: usize, phase_window: Option<u64>) -> ProfilerConfig {
    ProfilerConfig {
        threads,
        track_nested: true,
        phase_window,
    }
}

fn assert_reports_identical(a: &ProfileReport, b: &ProfileReport, what: &str) {
    assert_eq!(a.accesses, b.accesses, "{what}: access counts diverge");
    assert_eq!(
        a.dependencies, b.dependencies,
        "{what}: dependence counts diverge"
    );
    assert_eq!(a.global, b.global, "{what}: global matrices diverge");
    assert_eq!(
        a.per_loop.len(),
        b.per_loop.len(),
        "{what}: per-loop key sets diverge"
    );
    for (id, m) in &a.per_loop {
        assert_eq!(
            Some(m),
            b.per_loop.get(id),
            "{what}: loop {id:?} matrix diverges"
        );
    }
    assert_eq!(
        a.phase_windows, b.phase_windows,
        "{what}: phase windows diverge"
    );
}

const BATCH_SIZES: [usize; 5] = [1, 7, 256, 1024, 5000];

fn check_batched_equivalence(trace: &Trace, threads: usize, what: &str) {
    // Per-event ground truth, both detectors.
    let sig = SignatureConfig::paper_default(1 << 12, threads);
    let per_event_asym = AsymmetricProfiler::from_detector_with(
        AsymmetricDetector::asymmetric(sig),
        config(threads, None),
        AccumConfig::default(),
    );
    let per_event_perfect = PerfectProfiler::from_detector_with(
        PerfectDetector::perfect(),
        config(threads, None),
        AccumConfig::default(),
    );
    for ev in trace.access_events() {
        per_event_asym.on_access(ev);
        per_event_perfect.on_access(ev);
    }
    let (truth_asym, truth_perfect) = (per_event_asym.report(), per_event_perfect.report());

    for batch in BATCH_SIZES {
        let asym = AsymmetricProfiler::from_detector_with(
            AsymmetricDetector::asymmetric(sig),
            config(threads, None),
            AccumConfig::default(),
        );
        trace.replay_batched(&asym, batch);
        assert_reports_identical(
            &truth_asym,
            &asym.report(),
            &format!("{what}, asymmetric, batch {batch}"),
        );
        let perfect = PerfectProfiler::from_detector_with(
            PerfectDetector::perfect(),
            config(threads, None),
            AccumConfig::default(),
        );
        trace.replay_batched(&perfect, batch);
        assert_reports_identical(
            &truth_perfect,
            &perfect.report(),
            &format!("{what}, perfect, batch {batch}"),
        );
    }
}

#[test]
fn batched_replay_is_byte_identical_on_radix() {
    let trace = record_workload("radix", 4, 7);
    check_batched_equivalence(&trace, 4, "radix");
}

#[test]
fn batched_replay_is_byte_identical_on_fft() {
    let trace = record_workload("fft", 4, 11);
    check_batched_equivalence(&trace, 4, "fft");
}

#[test]
fn batched_replay_is_byte_identical_on_lu_cb() {
    let trace = record_workload("lu_cb", 8, 3);
    check_batched_equivalence(&trace, 8, "lu_cb");
}

proptest! {
    #[test]
    fn batched_replay_is_byte_identical_on_random_traces(
        seed in 0u64..u64::MAX,
        events in 100usize..600,
    ) {
        use lc_trace::{AccessEvent, FuncId, LoopId, StampedEvent};
        let threads = 4;
        let evs: Vec<StampedEvent> = (0..events as u64).map(|seq| {
            let r = fmix64(seed.wrapping_add(seq));
            StampedEvent {
                seq,
                event: AccessEvent {
                    tid: (r % threads as u64) as u32,
                    addr: 0x1000 + (r >> 8) % 512 * 8,
                    size: 8,
                    kind: if r & 0x80 == 0 { AccessKind::Write } else { AccessKind::Read },
                    loop_id: LoopId(1 + ((r >> 16) % 4) as u32),
                    parent_loop: LoopId::NONE,
                    func: FuncId::NONE,
                    site: 0,
                },
            }
        }).collect();
        let trace = Trace::new(evs);
        check_batched_equivalence(&trace, threads, "random");
    }
}

/// Phase windows close on dependence counts, not event counts, so a batch
/// that straddles a window boundary must split its dependencies across the
/// windows exactly as the per-event path does. Batch sizes here are chosen
/// to straddle every boundary of an 8-dependence window.
#[test]
fn phase_windows_survive_batches_straddling_window_boundaries() {
    let trace = record_workload("radix", 4, 13);
    let threads = 4;
    let sig = SignatureConfig::paper_default(1 << 12, threads);
    let window = Some(8u64);

    let per_event = AsymmetricProfiler::from_detector_with(
        AsymmetricDetector::asymmetric(sig),
        config(threads, window),
        AccumConfig::default(),
    );
    for ev in trace.access_events() {
        per_event.on_access(ev);
    }
    let truth = per_event.report();
    let windows = truth.phase_windows.as_ref().expect("phases recorded");
    assert!(
        windows.len() > 2,
        "need several windows for the straddle to be probative"
    );

    for batch in [3usize, 7, 13, 100, 4096] {
        let batched = AsymmetricProfiler::from_detector_with(
            AsymmetricDetector::asymmetric(sig),
            config(threads, window),
            AccumConfig::default(),
        );
        trace.replay_batched(&batched, batch);
        assert_reports_identical(
            &truth,
            &batched.report(),
            &format!("phase windows, batch {batch}"),
        );
    }
}
