//! Eq. 2 — the closed-form signature-memory model versus live allocation.
//!
//! `SigMem(n,t) = n·(4 + (−t·ln FPRate)/(8·ln²2))`. The paper evaluates it
//! at n = 10⁷, t = 32, FPRate = 0.001 and quotes "around 580 MB". This
//! binary (1) tabulates the model across slot counts and thread counts,
//! including the paper's operating point, beside the slot layout's exact
//! `n·8·w(t)`, and (2) measures the live allocation of real signatures
//! after profiling a workload, showing it equals that layout whatever the
//! input size.

use std::sync::Arc;

use lc_bench::{ascii_table, env_threads, fmt_bytes, run_with_sink, save_csv};
use lc_profiler::{AsymmetricProfiler, ProfilerConfig};
use lc_sigmem::mem_model::{paper_sig_mem_bytes, slot_signature_bytes};
use lc_sigmem::SignatureConfig;
use lc_workloads::{by_name, InputSize};

fn main() {
    println!("Eq. 2: SigMem(n, t) model (FPRate = 0.001)\n");
    let mut rows = Vec::new();
    for &(n, t) in &[
        (1_000_000usize, 32usize),
        (4_000_000, 32),
        (10_000_000, 32), // the paper's operating point
        (100_000_000, 32),
        (10_000_000, 8),
        (10_000_000, 64),
    ] {
        let model = paper_sig_mem_bytes(n, t, 0.001);
        let bound = slot_signature_bytes(n, t);
        rows.push(vec![
            format!("{n:.0e}").replace("e", "e+"),
            t.to_string(),
            fmt_bytes(model as u64),
            fmt_bytes(bound as u64),
        ]);
    }
    println!(
        "{}",
        ascii_table(
            &["slots n", "threads t", "Eq.2 model", "slot layout"],
            &rows
        )
    );
    let op = paper_sig_mem_bytes(10_000_000, 32, 0.001) / (1024.0 * 1024.0);
    println!(
        "paper's operating point n=1e7, t=32: {:.0} MiB (paper prose: ~580 MB)\n",
        op
    );

    // Live measurement: profile at growing input sizes with a fixed config.
    let threads = env_threads();
    let cfg = SignatureConfig::paper_default(1 << 16, threads);
    println!("live allocation with n = 2^16 slots, t = {threads} (radix, growing input):\n");
    let mut live_rows = Vec::new();
    for size in [InputSize::SimDev, InputSize::SimSmall, InputSize::SimLarge] {
        let asym = Arc::new(AsymmetricProfiler::asymmetric(
            cfg,
            ProfilerConfig {
                threads,
                track_nested: false,
                phase_window: None,
            },
        ));
        let w = by_name("radix").unwrap();
        run_with_sink(&*w, asym.clone(), threads, size, 1);
        live_rows.push(vec![
            size.name().to_string(),
            fmt_bytes(asym.detector().memory_bytes() as u64),
            fmt_bytes(cfg.memory_bytes() as u64),
            fmt_bytes(paper_sig_mem_bytes(cfg.n_slots, threads, 0.001) as u64),
        ]);
    }
    println!(
        "{}",
        ascii_table(
            &["input", "live signature", "slot layout", "Eq.2 model"],
            &live_rows
        )
    );
    println!("the live column is the layout at every size: input-size independent.");

    save_csv(
        "eq2_memmodel.csv",
        &["slots", "threads", "model_bytes", "layout_bytes"],
        &rows,
    );
}
