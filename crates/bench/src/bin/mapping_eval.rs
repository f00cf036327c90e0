//! §III/§VI application closed loop — does communication-aware mapping
//! actually cut the cost of cache-to-cache transfers?
//!
//! For each workload: run it once into the perfect RAW profiler and one
//! MESI `CoherenceBackend` (16 KiB private caches), derive the greedy
//! mapping from the *profiled communication matrix*, then price the
//! simulated producer→consumer transfer matrix under identity / scrambled
//! / greedy placements on the dual-socket machine model. One simulation
//! serves all three: caches are private and a placement puts one thread
//! per core, so the simulated state does not depend on it. The paper's
//! claim to reproduce: greedy placement cuts cross-socket transfer volume
//! and the weighted transfer cost versus a poor placement.

use std::sync::Arc;

use lc_bench::{ascii_table, save_csv};
use lc_cachesim::{CoherenceBackend, CoherenceConfig, SharedCoherence};
use lc_profiler::{
    greedy_mapping, MachineTopology, PerfectProfiler, ProfilerConfig, ThreadMapping,
};
use lc_trace::TraceCtx;
use lc_workloads::{all_workloads, InputSize, RunConfig};

fn main() {
    let topo = MachineTopology::dual_socket_xeon();
    let threads = 16;
    let cfg = CoherenceConfig::default();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut rows = Vec::new();
    for w in all_workloads() {
        // Simulate + profile in one run (fork the event stream).
        let coh = Arc::new(SharedCoherence::new(CoherenceBackend::new(cfg, threads)));
        let prof = Arc::new(PerfectProfiler::perfect(ProfilerConfig {
            threads,
            track_nested: false,
            phase_window: None,
        }));
        let fork = Arc::new(lc_trace::ForkSink::new(vec![
            coh.clone() as Arc<dyn lc_trace::AccessSink>,
            prof.clone(),
        ]));
        let ctx = TraceCtx::new(fork, threads);
        w.run(&ctx, &RunConfig::new(threads, InputSize::SimDev, 31));
        let rep = coh.report();
        let transfers = &rep.global.transfers;

        let placements = [
            ThreadMapping::identity(threads),
            ThreadMapping::scrambled(threads, 4242),
            greedy_mapping(&prof.global_matrix(), &topo),
        ];
        let remote = placements.each_ref().map(|m| m.remote(transfers, &topo));
        let cost = placements.each_ref().map(|m| m.cost(transfers, &topo));

        rows.push(vec![
            w.name().to_string(),
            format!(
                "{:.1}%",
                100.0 * rep.fills as f64 / (rep.hits + rep.fills).max(1) as f64
            ),
            format!("{} / {} / {}", remote[0], remote[1], remote[2]),
            format!("{} / {} / {}", cost[0], cost[1], cost[2]),
            format!(
                "{:+.1}%",
                100.0 * (cost[2] as f64 - cost[1] as f64) / cost[1].max(1) as f64
            ),
            host_cores.to_string(),
        ]);
        eprintln!("  simulated {}", w.name());
    }

    println!(
        "\n§III/§VI closed loop: one MESI simulation priced under thread mappings\n\
         ({} threads on 2x8 cores, {} KiB private caches, {host_cores} host core(s);\n\
         cross-socket transfer bytes and cost shown as identity / scrambled / greedy)\n",
        threads, cfg.cache_kib
    );
    println!(
        "{}",
        ascii_table(
            &[
                "app",
                "miss ratio",
                "cross-socket B",
                "transfer cost",
                "greedy vs scrambled",
                "host cores"
            ],
            &rows
        )
    );
    println!(
        "expected shape: greedy ≤ scrambled on cross-socket bytes/cost for\n\
         structured apps (the all-to-all apps have nothing to localize)."
    );
    save_csv(
        "mapping_eval.csv",
        &[
            "app",
            "miss_ratio",
            "remote_bytes_id_sc_gr",
            "cost_id_sc_gr",
            "greedy_vs_scrambled",
            "host_cores",
        ],
        &rows,
    );
}
