//! Differential tests pinning the coherence backend against the RAW
//! profiler on real recorded kernels.
//!
//! The two backends consume the *same* event stream, and on word-aligned
//! traces the coherence backend's first-touch word attribution guarantees
//! a per-loop, per-cell ordering: every RAW dependence the perfect
//! profiler reports is matched by at least one attributed transfer in the
//! same matrix cell. The tests also pin block-split invariance end to
//! end — the canonical coherence report must be byte-identical across
//! fused (block-streamed) vs materialized (whole-trace) consumption at
//! several block sizes.

use std::sync::Arc;

use lc_cachesim::{canonical_coherence_report, CoherenceBackend, CoherenceConfig};
use lc_profiler::{PerfectProfiler, ProfilerConfig};
use lc_trace::{LoopId, RecordingSink, Trace, TraceCtx};
use lc_workloads::{by_name, InputSize, RunConfig};

const THREADS: usize = 4;
const SEED: u64 = 13;
const KERNELS: [&str; 3] = ["radix", "fft", "lu_cb"];

fn record(name: &str) -> Trace {
    let rec = Arc::new(RecordingSink::new());
    let ctx = TraceCtx::new(rec.clone(), THREADS);
    by_name(name)
        .unwrap()
        .run(&ctx, &RunConfig::new(THREADS, InputSize::SimDev, SEED));
    rec.finish()
}

fn raw_profile(trace: &Trace) -> PerfectProfiler {
    let p = PerfectProfiler::perfect(ProfilerConfig {
        threads: THREADS,
        track_nested: false,
        phase_window: None,
    });
    trace.replay(&p);
    p
}

/// Every loop id that appears in the trace (including the no-loop bucket).
fn loop_ids(trace: &Trace) -> std::collections::BTreeSet<u32> {
    trace.access_events().iter().map(|e| e.loop_id.0).collect()
}

#[test]
fn raw_dependences_are_bounded_by_transfers_per_loop() {
    for name in KERNELS {
        let trace = record(name);
        let p = raw_profile(&trace);
        let mut b = CoherenceBackend::new(CoherenceConfig::default(), THREADS);
        b.on_block(trace.access_events());
        let rep = b.report();
        // Global first: the coarse sanity check with a readable failure.
        let g = p.global_matrix();
        for w in 0..THREADS {
            for r in 0..THREADS {
                assert!(
                    g.get(w, r) <= rep.global.transfers.get(w, r),
                    "{name} global ({w},{r}): RAW {} > transfers {}",
                    g.get(w, r),
                    rep.global.transfers.get(w, r)
                );
            }
        }
        for lid in loop_ids(&trace) {
            if lid == 0 {
                continue;
            }
            let raw = p.loop_matrix_snapshot(LoopId(lid));
            if raw.total() == 0 {
                continue;
            }
            let coh = rep
                .loops
                .get(&lid)
                .unwrap_or_else(|| panic!("{name} loop {lid}: RAW present, coherence absent"));
            for w in 0..THREADS {
                for r in 0..THREADS {
                    assert!(
                        raw.get(w, r) <= coh.transfers.get(w, r),
                        "{name} loop {lid} cell ({w},{r}): RAW {} > transfers {}",
                        raw.get(w, r),
                        coh.transfers.get(w, r)
                    );
                }
            }
            // The byte split explains the remainder: every RAW byte lands
            // on the *true* side of the ledger (first-touch attributed),
            // so transfer traffic invisible to the RAW matrix is exactly
            // the true-sharing surplus plus `false_bytes` — never
            // negative, never unclassified.
            assert!(
                raw.total() <= coh.true_bytes(),
                "{name} loop {lid}: RAW bytes {} exceed true-sharing bytes {}",
                raw.total(),
                coh.true_bytes()
            );
        }
    }
}

#[test]
fn fused_and_materialized_paths_agree_at_every_block_size() {
    for name in KERNELS {
        let trace = record(name);
        let mut materialized = CoherenceBackend::new(CoherenceConfig::default(), THREADS);
        materialized.on_block(trace.access_events());
        let want = canonical_coherence_report(&materialized.report());
        for block_events in [1usize, 7, 64, 4096] {
            let mut fused = CoherenceBackend::new(CoherenceConfig::default(), THREADS);
            fused
                .consume_source(&mut trace.block_source(block_events))
                .unwrap();
            let got = canonical_coherence_report(&fused.report());
            assert!(
                want == got,
                "{name}: fused path at block size {block_events} diverged from materialized"
            );
        }
    }
}
