//! The paper's full motivational loop, end to end: profile → communication
//! matrix → greedy thread mapping → measurably cheaper cache-to-cache
//! transfers in a MESI simulation of the same execution.
//!
//! One `CoherenceBackend` pass serves every placement. Caches are private
//! and a placement puts one thread per core, so hits, fills and
//! invalidations do not depend on it; `ThreadMapping::cost` and
//! `ThreadMapping::remote` price the pass's producer→consumer transfer
//! matrix under each one.

use std::sync::Arc;

use lc_cachesim::{CoherenceBackend, CoherenceConfig, CoherenceReport};
use lc_profiler::{
    greedy_mapping, MachineTopology, PerfectProfiler, ProfilerConfig, ThreadMapping,
};
use lc_trace::{ForkSink, RecordingSink, Trace};
use loopcomm::prelude::*;

fn record_and_profile(name: &str, threads: usize) -> (Trace, lc_profiler::DenseMatrix) {
    let rec = Arc::new(RecordingSink::new());
    let prof = Arc::new(PerfectProfiler::perfect(ProfilerConfig {
        threads,
        track_nested: false,
        phase_window: None,
    }));
    let fork = Arc::new(ForkSink::new(vec![
        rec.clone() as Arc<dyn lc_trace::AccessSink>,
        prof.clone(),
    ]));
    let ctx = TraceCtx::new(fork, threads);
    by_name(name)
        .unwrap()
        .run(&ctx, &RunConfig::new(threads, InputSize::SimDev, 31));
    (rec.finish(), prof.global_matrix())
}

/// One MESI pass over the recorded trace (16 KiB, 4-way, 64 B lines).
fn sim(trace: &Trace) -> CoherenceReport {
    let mut b = CoherenceBackend::new(CoherenceConfig::default(), 16);
    b.on_block(trace.access_events());
    b.report()
}

#[test]
fn greedy_mapping_cuts_remote_transfer_cost_on_structured_apps() {
    let topo = MachineTopology::dual_socket_xeon();
    for name in ["ocean_cp", "water_spatial", "fmm"] {
        let (trace, matrix) = record_and_profile(name, 16);
        let transfers = sim(&trace).global.transfers;
        let greedy = greedy_mapping(&matrix, &topo);
        let scrambled = ThreadMapping::scrambled(16, 4242);
        let (g, s) = (
            greedy.cost(&transfers, &topo),
            scrambled.cost(&transfers, &topo),
        );
        assert!(
            (g as f64) < s as f64 * 0.8,
            "{name}: greedy cost {g} vs scrambled {s}"
        );
        let (g, s) = (
            greedy.remote(&transfers, &topo),
            scrambled.remote(&transfers, &topo),
        );
        assert!(g <= s, "{name}: cross-socket bytes {g} vs {s}");
    }
}

#[test]
fn mapping_does_not_change_total_accesses_or_correctness_counters() {
    // The one pass takes no placement, so no placement can change it; what
    // remains to check is that it saw every access and that each
    // line-access either hit or filled (word-aligned accesses span one line).
    let (trace, _) = record_and_profile("cholesky", 16);
    let r = sim(&trace);
    assert_eq!(r.accesses, trace.len() as u64);
    assert_eq!(r.hits + r.fills, r.accesses);
}

#[test]
fn profiled_raw_matrix_predicts_coherence_transfers() {
    // The paper's premise, validated: shared-memory communication is
    // implicit and "happens through memory". The backend attributes each
    // first touch of a word to the word's last writer, so the transfer
    // matrix's (producer, consumer) support must lie inside the RAW matrix
    // the profiler built for the same execution — up to false sharing,
    // where two addresses on one line alias.
    for name in ["ocean_cp", "water_nsq", "lu_ncb"] {
        let (trace, raw) = record_and_profile(name, 16);
        let transfers = sim(&trace).global.transfers;
        assert!(transfers.total() > 0, "{name}: no coherence transfers");

        // ≥ 80% of transfer volume lands on RAW-communicating pairs.
        let mut on_raw = 0u64;
        for i in 0..16 {
            for j in 0..16 {
                if raw.get(i, j) > 0 {
                    on_raw += transfers.get(i, j);
                }
            }
        }
        let frac = on_raw as f64 / transfers.total() as f64;
        assert!(
            frac > 0.8,
            "{name}: only {:.0}% of transfers lie on RAW pairs\nraw:\n{}\ntransfers:\n{}",
            frac * 100.0,
            raw.heatmap(),
            transfers.heatmap()
        );
    }

    // For a halo-exchange code the full pattern agreement also holds.
    let (trace, raw) = record_and_profile("ocean_cp", 16);
    let transfers = sim(&trace).global.transfers;
    let d = raw.l1_distance(&transfers);
    assert!(
        d < 1.0,
        "ocean_cp: transfers diverge from RAW (L1 {d})\nraw:\n{}\ntransfers:\n{}",
        raw.heatmap(),
        transfers.heatmap()
    );
}

#[test]
fn all_to_all_apps_have_nothing_to_localize() {
    // The honest counterpart: for a uniform all-to-all pattern every
    // placement is equivalent up to noise, so greedy cannot be required
    // to win — but it must not be catastrophically worse either.
    let (trace, matrix) = record_and_profile("radix", 16);
    let topo = MachineTopology::dual_socket_xeon();
    let transfers = sim(&trace).global.transfers;
    let greedy = greedy_mapping(&matrix, &topo).cost(&transfers, &topo);
    let scrambled = ThreadMapping::scrambled(16, 7).cost(&transfers, &topo);
    assert!(
        (greedy as f64) < scrambled as f64 * 1.15,
        "greedy should stay within noise of any placement on all-to-all"
    );
}
