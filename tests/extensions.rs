//! End-to-end tests of the extension subsystems: the TLB baseline and
//! communication-aware thread mapping.

use std::sync::Arc;

use lc_baselines::TlbProfiler;
use lc_profiler::{
    greedy_mapping, MachineTopology, PerfectProfiler, ProfilerConfig, ThreadMapping,
};
use loopcomm::prelude::*;

fn flat(threads: usize) -> ProfilerConfig {
    ProfilerConfig {
        threads,
        track_nested: false,
        phase_window: None,
    }
}

#[test]
fn tlb_profiler_sees_neighbour_pattern_shape() {
    // ocean_cp's halo exchange must show neighbour-dominated estimated
    // communication even through the page-granular, sampled TLB lens.
    let threads = 6;
    let tlb = Arc::new(TlbProfiler::new(threads, 128, 9, 512)); // 512B pages
    let ctx = TraceCtx::new(tlb.clone(), threads);
    by_name("ocean_cp")
        .unwrap()
        .run(&ctx, &RunConfig::new(threads, InputSize::SimDev, 5));
    assert!(tlb.samples() > 0, "sampling never fired");
    let m = tlb.matrix();
    assert!(m.total() > 0);
    let neighbour: u64 = (0..threads)
        .flat_map(|i| (0..threads).map(move |j| (i, j)))
        .filter(|&(i, j)| i.abs_diff(j) == 1)
        .map(|(i, j)| m.get(i, j))
        .sum();
    assert!(
        neighbour as f64 / m.total() as f64 > 0.4,
        "TLB estimate lost the neighbour structure:\n{}",
        m.heatmap()
    );
}

#[test]
fn tlb_memory_is_execution_length_independent() {
    let tlb = Arc::new(TlbProfiler::with_defaults(4));
    let before = tlb.memory_bytes();
    let ctx = TraceCtx::new(tlb.clone(), 4);
    by_name("radix")
        .unwrap()
        .run(&ctx, &RunConfig::new(4, InputSize::SimSmall, 1));
    assert_eq!(tlb.memory_bytes(), before);
}

#[test]
fn mapping_improves_real_measured_patterns() {
    let threads = 16;
    let topo = MachineTopology::dual_socket_xeon();
    for name in ["ocean_cp", "water_spatial", "fft"] {
        let p = Arc::new(PerfectProfiler::perfect(flat(threads)));
        let ctx = TraceCtx::new(p.clone(), threads);
        by_name(name)
            .unwrap()
            .run(&ctx, &RunConfig::new(threads, InputSize::SimDev, 13));
        let m = p.global_matrix();
        let greedy = greedy_mapping(&m, &topo).cost(&m, &topo);
        let scrambled = ThreadMapping::scrambled(threads, 77).cost(&m, &topo);
        let identity = ThreadMapping::identity(threads).cost(&m, &topo);
        assert!(
            greedy <= scrambled,
            "{name}: greedy {greedy} vs scrambled {scrambled}"
        );
        // Identity is already near-optimal for these chain/grid codes;
        // greedy must land in the same cost class. Barrier-arrival noise
        // perturbs the measured matrix between runs, so single-swap local
        // search can settle one chain-split away from identity's optimum —
        // allow that slack, but nothing structural.
        assert!(
            (greedy as f64) <= identity as f64 * 1.25,
            "{name}: greedy {greedy} vs identity {identity}"
        );
    }
}
