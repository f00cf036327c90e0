//! The §V-A3 accuracy story: the asymmetric signature against the perfect
//! signature on identical replayed traces.

use std::sync::Arc;

use lc_profiler::{AsymmetricProfiler, PerfectProfiler, ProfilerConfig};
use lc_sigmem::murmur::fmix64;
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
    // The signature is allocated whole at construction, so the paper's
    // "memory footprint remains the same in every situation" holds
    // exactly; only the loop matrices may grow.
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
    // 16x more input, < 15% more memory, versus the footprint-proportional
    // comparators' ~16x.
    assert!(
        (large as f64) < dev as f64 * 1.15,
        "signature memory grew with a 16x input: {dev} -> {large}"
    );
    assert!(
        dev <= cfg.memory_bytes() + (1 << 16),
        "above the configured bound"
    );
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
    let actual = asym.detector().memory_bytes();
    // The slot layout is allocated whole: n · 8 · w(t), whatever ran.
    assert_eq!(actual, cfg.memory_bytes());
    assert_eq!(actual, cfg.n_slots * 8);
    // Eq. 2 at the paper's FPRate budgets more than the layout holds...
    let model = lc_sigmem::mem_model::paper_sig_mem_bytes(cfg.n_slots, cfg.threads, 0.001);
    assert!(
        (actual as f64) < model,
        "layout above Eq. 2: {actual} vs {model}"
    );
    // ...by 8 B against 61.5 B per slot at the paper's t = 32.
    let model32 = lc_sigmem::mem_model::paper_sig_mem_bytes(cfg.n_slots, 32, 0.001);
    let actual32 = lc_sigmem::mem_model::slot_signature_bytes(cfg.n_slots, 32) as f64;
    assert!(
        actual32 * 7.0 < model32,
        "t=32 layout vs model: {actual32} vs {model32}"
    );
}

/// The paper's reader-set Bloom filter at FPRate 0.001, sized for `t`
/// reader ids (§IV-D2): `m` from Eq. 2 rounded up to whole words, then to
/// a power of two while it fits one 512-bit block and to whole blocks
/// beyond; `k = round(m/t · ln 2)` clamped to 1..=16. Returns `(m, k,
/// block_bits)`.
fn paper_filter_geometry(t: usize) -> (usize, usize, usize) {
    const BLOCK_BITS: usize = 512;
    let ideal = lc_sigmem::mem_model::paper_bloom_bits(t, 0.001).ceil() as usize;
    let ideal = ideal.max(64).div_ceil(64) * 64;
    let (m, block_bits) = if ideal <= BLOCK_BITS {
        let b = ideal.next_power_of_two();
        (b, b)
    } else {
        (ideal.div_ceil(BLOCK_BITS) * BLOCK_BITS, BLOCK_BITS)
    };
    let k = ((m as f64 / t as f64) * std::f64::consts::LN_2).round() as usize;
    (m, k.clamp(1, 16), block_bits)
}

/// The bits reader id `tid` sets in a filter of geometry `(m, k,
/// block_bits)`: two seeded `fmix64` base hashes, the second forced odd,
/// combined Kirsch–Mitzenmacher style (`h_i = h_a + i·h_b`) inside one
/// block picked by the high half of `h_a`. Sorted and deduplicated.
fn paper_filter_probes(tid: u64, (m, k, block_bits): (usize, usize, usize)) -> Vec<usize> {
    const SEED_A: u64 = 0x9368_7fbc_a1b2_c3d4;
    const SEED_B: u64 = 0x1f83_d9ab_fb41_bd6b;
    let seeded = |seed: u64| fmix64(tid ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let (ha, hb) = (seeded(SEED_A), seeded(SEED_B) | 1);
    let block = if m > block_bits {
        (ha >> 32) as usize % (m / block_bits)
    } else {
        0
    };
    let mut bits: Vec<usize> = (0..k as u64)
        .map(|i| {
            block * block_bits + (ha.wrapping_add(hb.wrapping_mul(i)) as usize & (block_bits - 1))
        })
        .collect();
    bits.sort_unstable();
    bits.dedup();
    bits
}

/// Why the slot signature may store an exact reader mask: at the paper's
/// FPRate 0.001 the Bloom filter over t reader ids answers exactly for
/// t ≤ 211 — no tid's probe set is covered by the union of the other
/// tids' sets, so no reader set can claim an absent tid — and t = 212 is
/// the first t where one is.
#[test]
fn bloom_reader_sets_are_exact_through_211_threads() {
    let covered_tid_exists = |t: usize| {
        let geom = paper_filter_geometry(t);
        let probes: Vec<Vec<usize>> = (0..t as u64)
            .map(|tid| paper_filter_probes(tid, geom))
            .collect();
        // How many tids probe each bit: a tid is covered by the others iff
        // every one of its bits is probed by some other tid too.
        let mut owners = vec![0u32; geom.0];
        for bits in &probes {
            for &b in bits {
                owners[b] += 1;
            }
        }
        probes
            .iter()
            .any(|bits| bits.iter().all(|&b| owners[b] >= 2))
    };
    for t in 1..=211 {
        assert!(
            !covered_tid_exists(t),
            "t = {t}: a reader set can claim an absent tid"
        );
    }
    assert!(covered_tid_exists(212), "t = 212: the boundary moved");
}
