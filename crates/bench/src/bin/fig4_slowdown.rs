//! Figure 4 — slowdown of the SPLASH applications under instrumentation.
//!
//! The paper runs each app natively and instrumented (32 threads, simdev)
//! and reports per-app slowdown (15×–700×) with a 225× average. Here
//! "native" is the workload with a no-op sink (event generation only) and
//! "instrumented" attaches the full asymmetric-signature profiler with
//! nested tracking — so the factor isolates the *analysis* cost, the paper's
//! quantity of interest. Absolute factors differ from the paper's
//! (their baseline is an uninstrumented C binary); the shape — apps with
//! more communication slow down more — is the reproduced result.

use std::sync::Arc;

use lc_bench::{ascii_table, env_size, env_threads, fmt_slowdown, save_csv, time_workload};
use lc_profiler::overhead::average_slowdown;
use lc_profiler::{AsymmetricProfiler, ProfilerConfig};
use lc_sigmem::SignatureConfig;
use lc_trace::NoopSink;
use lc_workloads::all_workloads;

fn main() {
    let threads = env_threads();
    let size = env_size();
    let reps = 3;
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!(
        "Figure 4: instrumentation slowdown ({} threads on {host_cores} core(s), {}, best of {reps})\n",
        threads,
        size.name()
    );

    let mut rows = Vec::new();
    let mut factors = Vec::new();
    for w in all_workloads() {
        let native = time_workload(&*w, || Arc::new(NoopSink), threads, size, reps);
        let instrumented = time_workload(
            &*w,
            || {
                Arc::new(AsymmetricProfiler::asymmetric(
                    SignatureConfig::paper_default(1 << 20, threads),
                    ProfilerConfig::nested(threads),
                ))
            },
            threads,
            size,
            reps,
        );
        let factor = instrumented.as_secs_f64() / native.as_secs_f64().max(1e-9);
        factors.push(factor);
        rows.push(vec![
            w.name().to_string(),
            format!("{:.2?}", native),
            format!("{:.2?}", instrumented),
            fmt_slowdown(factor),
        ]);
        eprintln!("  measured {}", w.name());
    }

    println!(
        "{}",
        ascii_table(&["app", "native", "instrumented", "slowdown"], &rows)
    );
    println!(
        "average slowdown (paper: 225x on their C/LLVM baseline): {}",
        fmt_slowdown(average_slowdown(&factors))
    );
    println!(
        "range: {} .. {} (paper: 15x .. 700x)",
        fmt_slowdown(factors.iter().cloned().fold(f64::INFINITY, f64::min)),
        fmt_slowdown(factors.iter().cloned().fold(0.0, f64::max)),
    );

    for row in &mut rows {
        row.extend([threads.to_string(), host_cores.to_string()]);
    }
    save_csv(
        "fig4_slowdown.csv",
        &[
            "app",
            "native_s",
            "instrumented_s",
            "slowdown",
            "threads",
            "host_cores",
        ],
        &rows,
    );
}
