//! The §V-A3 accuracy story: the asymmetric signature against the perfect
//! signature on identical replayed traces.

use std::sync::Arc;

use lc_profiler::{AsymmetricProfiler, PerfectProfiler, ProfilerConfig};
use lc_sigmem::SignatureConfig;
use lc_trace::{RecordingSink, StampedEvent, Trace};
use loopcomm::prelude::*;

fn record(name: &str, threads: usize) -> Trace {
    let w = by_name(name).expect("workload exists");
    let rec = Arc::new(RecordingSink::new());
    let ctx = TraceCtx::new(rec.clone(), threads);
    w.run(&ctx, &RunConfig::new(threads, InputSize::SimDev, 7));
    rec.finish()
}

/// [`record`], normalized to thread-serial order exactly as
/// `tests/golden_reports.rs::thread_serial_trace` does: stable sort by
/// `(tid, seq)` and re-stamp. Each thread's own stream depends only on
/// the seed, so the input — and every dependence count taken on it — is
/// the same on every run, however the OS interleaved the recording.
fn record_thread_serial(name: &str, threads: usize) -> Trace {
    let mut evs: Vec<StampedEvent> = record(name, threads).events().to_vec();
    evs.sort_by_key(|e| (e.event.tid, e.seq));
    for (i, e) in evs.iter_mut().enumerate() {
        e.seq = i as u64;
    }
    Trace::new(evs)
}

fn flat(threads: usize) -> ProfilerConfig {
    ProfilerConfig {
        threads,
        track_nested: false,
        phase_window: None,
    }
}

#[test]
fn ample_slots_reproduce_the_exact_matrix() {
    for name in ["radix", "ocean_cp", "raytrace"] {
        let trace = record(name, 4);
        let perfect = PerfectProfiler::perfect(flat(4));
        trace.replay(&perfect);
        // 2^22 slots vs ~10^5 distinct addresses: collisions negligible.
        let asym =
            AsymmetricProfiler::asymmetric(SignatureConfig::paper_default(1 << 22, 4), flat(4));
        trace.replay(&asym);
        let (pm, am) = (perfect.global_matrix(), asym.global_matrix());
        let diff = pm.l1_distance(&am);
        assert!(
            diff < 0.01,
            "{name}: asymmetric diverges from perfect (L1 {diff})\nperfect:\n{}\nasym:\n{}",
            pm.heatmap(),
            am.heatmap()
        );
    }
}

#[test]
fn false_positive_rate_decreases_with_slots() {
    let trace = record_thread_serial("radix", 4);
    let perfect = PerfectProfiler::perfect(flat(4));
    trace.replay(&perfect);
    let exact_deps = perfect.dependencies();

    let fpr = |slots: usize| -> f64 {
        let asym =
            AsymmetricProfiler::asymmetric(SignatureConfig::paper_default(slots, 4), flat(4));
        trace.replay(&asym);
        let got = asym.dependencies();
        // Signature error manifests as spurious or suppressed dependencies;
        // measure total deviation relative to ground truth.
        got.abs_diff(exact_deps) as f64 / exact_deps as f64
    };

    let small = fpr(1 << 8);
    let medium = fpr(1 << 14);
    let large = fpr(1 << 22);
    assert!(
        large <= medium + 0.02 && medium <= small + 0.02,
        "error not monotone: {small} -> {medium} -> {large}"
    );
    assert!(
        large < 0.01,
        "large signature should be near-exact: {large}"
    );
}

#[test]
fn signature_memory_is_input_size_independent() {
    // Slot count below even the simdev footprint: the lazily allocated
    // second-level filters saturate immediately, after which the paper's
    // "memory footprint remains the same in every situation" holds exactly.
    let cfg = SignatureConfig::paper_default(1 << 12, 4);
    let mem_for = |size: InputSize| {
        let asym = Arc::new(AsymmetricProfiler::asymmetric(cfg, flat(4)));
        let ctx = TraceCtx::new(asym.clone(), 4);
        by_name("radix")
            .unwrap()
            .run(&ctx, &RunConfig::new(4, size, 3));
        asym.memory_bytes()
    };
    let dev = mem_for(InputSize::SimDev);
    let large = mem_for(InputSize::SimLarge);
    // 16x more input, < 15% more memory (residual filter fill-in), versus
    // the footprint-proportional comparators' ~16x.
    assert!(
        (large as f64) < dev as f64 * 1.15,
        "signature memory grew with a 16x input: {dev} -> {large}"
    );
    let ceiling =
        lc_sigmem::mem_model::actual_upper_bound_bytes(cfg.n_slots, cfg.threads, cfg.fp_rate);
    assert!(dev <= ceiling + (1 << 16), "above the configured bound");
}

#[test]
fn perfect_profiler_memory_grows_with_input() {
    let mem_for = |size: InputSize| {
        let p = Arc::new(PerfectProfiler::perfect(flat(4)));
        let ctx = TraceCtx::new(p.clone(), 4);
        by_name("radix")
            .unwrap()
            .run(&ctx, &RunConfig::new(4, size, 3));
        p.memory_bytes()
    };
    let dev = mem_for(InputSize::SimDev);
    let large = mem_for(InputSize::SimLarge);
    assert!(
        large > dev * 4,
        "exact structures should track footprint: {dev} -> {large}"
    );
}

#[test]
fn eq2_model_brackets_actual_signature_allocation() {
    let cfg = SignatureConfig::paper_default(1 << 16, 8);
    let asym = Arc::new(AsymmetricProfiler::asymmetric(cfg, flat(8)));
    let ctx = TraceCtx::new(asym.clone(), 8);
    by_name("fft")
        .unwrap()
        .run(&ctx, &RunConfig::new(8, InputSize::SimDev, 2));
    let actual = asym.detector().memory_bytes() as f64;
    let model = cfg.predicted_bytes();
    let upper =
        lc_sigmem::mem_model::actual_upper_bound_bytes(cfg.n_slots, cfg.threads, cfg.fp_rate)
            as f64;
    // Lazy allocation keeps actual at or below the all-filters bound.
    assert!(actual <= upper, "actual {actual} above bound {upper}");
    // At small t the fixed filter header dominates Eq. 2's idealized
    // per-slot bytes; at the paper's t = 32 the bound tracks the model.
    assert!(
        upper < model * 6.0,
        "bound drifted from Eq. 2: {upper} vs {model}"
    );
    let model32 = lc_sigmem::mem_model::paper_sig_mem_bytes(cfg.n_slots, 32, cfg.fp_rate);
    let upper32 =
        lc_sigmem::mem_model::actual_upper_bound_bytes(cfg.n_slots, 32, cfg.fp_rate) as f64;
    assert!(
        upper32 < model32 * 2.5,
        "t=32 bound vs model: {upper32} vs {model32}"
    );
}
