//! Cross-validation: every exact analyzer (perfect profiler, shadow
//! memory, IPM post-mortem, O(n) pairwise, O(n²) pairwise) produces the
//! same communication matrix from the same replayed trace.

use std::sync::Arc;

use lc_baselines::{exact_dependences, naive_pairwise, IpmLogger, ShadowModel, ShadowProfiler};
use lc_profiler::{PerfectProfiler, ProfilerConfig};
use lc_trace::{RecordingSink, Trace};
use loopcomm::prelude::*;

fn record(name: &str, threads: usize) -> Trace {
    let w = by_name(name).expect("workload exists");
    let rec = Arc::new(RecordingSink::new());
    let ctx = TraceCtx::new(rec.clone(), threads);
    w.run(&ctx, &RunConfig::new(threads, InputSize::SimDev, 13));
    rec.finish()
}

fn flat(threads: usize) -> ProfilerConfig {
    ProfilerConfig {
        threads,
        track_nested: false,
        phase_window: None,
    }
}

#[test]
fn all_exact_analyzers_agree_on_real_traces() {
    for name in ["radix", "ocean_ncp", "volrend", "cholesky"] {
        let trace = record(name, 4);

        let perfect = PerfectProfiler::perfect(flat(4));
        trace.replay(&perfect);
        let m_perfect = perfect.global_matrix();

        let shadow = ShadowProfiler::new(4, ShadowModel::Helgrind32);
        trace.replay(&shadow);
        let m_shadow = shadow.matrix();

        let ipm = IpmLogger::new(4);
        trace.replay(&ipm);
        let m_ipm = ipm.analyze();

        let m_pairwise = exact_dependences(&trace).to_matrix(4);

        assert_eq!(m_perfect, m_shadow, "{name}: shadow disagrees");
        assert_eq!(m_perfect, m_ipm, "{name}: ipm disagrees");
        assert_eq!(m_perfect, m_pairwise, "{name}: pairwise disagrees");
    }
}

#[test]
fn quadratic_reference_agrees_on_trace_prefix() {
    // O(n²) is only feasible on a few thousand events; cross-check the
    // linear implementation on a prefix.
    let trace = record("raytrace", 4);
    let prefix = Trace::new(trace.events().iter().copied().take(4000).collect());
    assert_eq!(exact_dependences(&prefix), naive_pairwise(&prefix));
}

#[test]
fn memory_growth_classes_are_ordered_as_figure5() {
    // The Figure 5 story is about *growth*: the log grows per event, the
    // shadow per distinct word, the signature not at all. At simdev a fixed
    // signature can legitimately exceed a tiny footprint (compare Fig. 5a
    // vs 5b); at larger inputs the ordering log > shadow > signature holds.
    let grow = |size: InputSize| {
        let w = by_name("radix").unwrap();
        let shadow = Arc::new(ShadowProfiler::new(4, ShadowModel::Memcheck));
        let ctx = TraceCtx::new(shadow.clone(), 4);
        w.run(&ctx, &RunConfig::new(4, size, 13));

        let ipm = Arc::new(IpmLogger::new(4));
        let ctx = TraceCtx::new(ipm.clone(), 4);
        w.run(&ctx, &RunConfig::new(4, size, 13));

        let asym = Arc::new(lc_profiler::AsymmetricProfiler::asymmetric(
            lc_sigmem::SignatureConfig::paper_default(1 << 14, 4),
            flat(4),
        ));
        let ctx = TraceCtx::new(asym.clone(), 4);
        w.run(&ctx, &RunConfig::new(4, size, 13));

        (
            ipm.memory_bytes(),
            shadow.memory_bytes(),
            asym.memory_bytes(),
        )
    };

    let (log_s, shadow_s, sig_s) = grow(InputSize::SimDev);
    let (log_l, shadow_l, sig_l) = grow(InputSize::SimLarge);

    // Growth classes.
    assert!(log_l > log_s * 8, "log barely grew: {log_s} -> {log_l}");
    assert!(
        shadow_l > shadow_s * 8,
        "shadow barely grew: {shadow_s} -> {shadow_l}"
    );
    // The signature is allocated whole at its configured size, so a 16x
    // input increase can never pass that bound + the accumulation layer
    // riding on the detector (global matrix, per-loop registry, shard
    // counters) — a fixed ~16 KiB at 4 threads.
    let ceiling = lc_sigmem::mem_model::slot_signature_bytes(1 << 14, 4) + 16 * 1024;
    assert!(
        (sig_l as f64) < sig_s as f64 * 2.0 && sig_l <= ceiling,
        "signature grew with input: {sig_s} -> {sig_l} (ceiling {ceiling})"
    );
    // Absolute ordering at the large input.
    assert!(
        log_l > shadow_l && shadow_l > sig_l,
        "{log_l} {shadow_l} {sig_l}"
    );
}

#[test]
fn sd3_compresses_strided_workloads() {
    let trace = record("ocean_cp", 4);
    let sd3 = lc_baselines::Sd3Profiler::new(4);
    trace.replay(&sd3);
    // Stencil sweeps are highly strided: compression must beat the raw log
    // by a wide margin.
    let raw_log = trace.len() * lc_baselines::ipm::BYTES_PER_RECORD;
    assert!(
        sd3.memory_bytes() * 10 < raw_log,
        "sd3 {} vs raw log {raw_log}",
        sd3.memory_bytes()
    );
    // And still detect cross-thread overlap between halo writers/readers.
    let m = sd3.analyze();
    assert!(m.total() > 0);
}

#[test]
fn shadow_variants_only_differ_in_cost_model() {
    let trace = record("fmm", 4);
    let a = ShadowProfiler::new(4, ShadowModel::Helgrind32);
    let b = ShadowProfiler::new(4, ShadowModel::HelgrindPlus64);
    trace.replay(&a);
    trace.replay(&b);
    assert_eq!(a.matrix(), b.matrix());
    assert_eq!(a.tracked_words(), b.tracked_words());
    assert!(b.memory_bytes() > a.memory_bytes());
}
