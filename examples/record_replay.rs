//! Record once, analyze many ways — the offline workflow behind the
//! paper's FPR study (§V-A3).
//!
//! Records one execution of a workload to a trace file, then replays the
//! identical access stream through the asymmetric signature profiler at
//! several slot counts and through the perfect baseline, printing the
//! error-vs-memory trade-off the signature knob controls.
//!
//! ```sh
//! cargo run --release --example record_replay -- [workload] [threads]
//! ```

use std::sync::Arc;

use lc_profiler::{PerfectProfiler, ProfilerConfig};
use lc_trace::{load_trace, SpoolSink};
use loopcomm::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "radix".to_string());
    let threads: usize = args
        .next()
        .map(|s| s.parse().expect("threads must be a number"))
        .unwrap_or(4);

    let flat = ProfilerConfig {
        threads,
        track_nested: false,
        phase_window: None,
    };

    // 1. Record, streaming a v3 spool to disk as the run goes.
    let workload = by_name(&name).expect("unknown workload");
    let path = std::env::temp_dir().join(format!("loopcomm_{name}.lcv3"));
    let spool = Arc::new(SpoolSink::create(&path).expect("start spool"));
    let ctx = TraceCtx::new(spool.clone(), threads);
    workload.run(&ctx, &RunConfig::new(threads, InputSize::SimDev, 42));
    spool.finish().expect("finish spool");

    // 2. Load (proving the file is self-contained) and get ground truth.
    let trace = load_trace(&path).expect("load trace");
    println!(
        "recorded {} events / {} distinct addresses to {}",
        trace.len(),
        trace.stats().distinct_addrs,
        path.display()
    );
    let perfect = PerfectProfiler::perfect(flat);
    trace.replay(&perfect);
    let exact = perfect.global_matrix();
    println!(
        "\nexact analysis: {} dependencies, {} of analyzer memory",
        perfect.dependencies(),
        lc_profiler::report::fmt_bytes(perfect.memory_bytes() as u64)
    );

    // 3. Sweep the signature size on the identical stream.
    println!("\n{:>12} {:>14} {:>10}", "slots", "memory", "L1 error");
    for shift in [8usize, 10, 12, 14, 16, 20] {
        let asym = AsymmetricProfiler::asymmetric(
            SignatureConfig::paper_default(1 << shift, threads),
            flat,
        );
        trace.replay(&asym);
        println!(
            "{:>12} {:>14} {:>10.4}",
            1 << shift,
            lc_profiler::report::fmt_bytes(asym.memory_bytes() as u64),
            exact.l1_distance(&asym.global_matrix())
        );
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(lc_trace::index_path(&path)).ok();
}
