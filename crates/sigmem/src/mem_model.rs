//! Closed-form memory model of the asymmetric signature (Eq. 2).
//!
//! The paper bounds total profiler memory as
//!
//! ```text
//! SigMem(n, t) = n · (4 + (−t · ln(FPRate)) / (8 · ln²2))   bytes
//! ```
//!
//! where `n` is the slot count, `t` the thread count and `FPRate` the Bloom
//! false-positive target. The `4` is the write-signature slot (one `u32`);
//! the second term is one second-level Bloom filter per read slot
//! (`m = −t·ln p / ln²2` bits = `m/8` bytes). With `n = 10⁷`, `t = 32`,
//! `FPRate = 0.001` this gives ≈ 615 MB — the paper rounds to "around
//! 580 MB could be sufficient" (§V-A2).
//!
//! ## The slot layout against Eq. 2
//!
//! [`crate::SlotSignature`] stores the same two facts per slot — the last
//! writer and the reader set — in `w(t)` 64-bit words
//! ([`crate::slot_words`]: the smallest power of two with
//! `64·w ≥ 32 + t`), so its footprint is exactly
//!
//! ```text
//! SlotMem(n, t) = n · 8 · w(t)   bytes
//! ```
//!
//! with no lazily allocated part ([`slot_signature_bytes`]). It needs no
//! FPRate: at the paper's 0.001 the Bloom filter Eq. 2 sizes is exact for
//! t ≤ 211, and so is the reader mask. For t ≥ 6 it is at or below Eq. 2
//! at every FPRate ≤ 0.05 — 8 B against 61.5 B per slot at t = 32,
//! FPRate 0.001, and the paper's 10⁷-slot configuration needs 76 MiB, not
//! 580 MB.

/// Eq. 2 verbatim: paper's predicted signature memory in bytes.
pub fn paper_sig_mem_bytes(n_slots: usize, threads: usize, fp_rate: f64) -> f64 {
    assert!(fp_rate > 0.0 && fp_rate < 1.0);
    let ln2 = core::f64::consts::LN_2;
    n_slots as f64 * (4.0 + (-(threads as f64) * fp_rate.ln()) / (8.0 * ln2 * ln2))
}

/// Bloom bits per filter implied by Eq. 2 (before word rounding).
pub fn paper_bloom_bits(threads: usize, fp_rate: f64) -> f64 {
    let ln2 = core::f64::consts::LN_2;
    -(threads as f64) * fp_rate.ln() / (ln2 * ln2)
}

/// Bytes a [`crate::SlotSignature`] of `n_slots` slots for `threads`
/// readers holds: `n · 8 · w(t)`, exactly, from construction on.
pub fn slot_signature_bytes(n_slots: usize, threads: usize) -> usize {
    n_slots * 8 * crate::slot_words(threads)
}

/// Predicted memory across a sweep of slot counts — used by the Eq. 2
/// validation harness and EXPERIMENTS.md.
pub fn model_sweep(threads: usize, fp_rate: f64, slot_counts: &[usize]) -> Vec<(usize, f64)> {
    slot_counts
        .iter()
        .map(|&n| (n, paper_sig_mem_bytes(n, threads, fp_rate)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_operating_point_near_580mb() {
        // n = 10^7, t = 32, FPRate = 0.001 — §V-A2's configuration.
        let bytes = paper_sig_mem_bytes(10_000_000, 32, 0.001);
        let mb = bytes / (1024.0 * 1024.0);
        // Paper says "around 580MB could be sufficient"; the formula itself
        // evaluates to ~590-615 MB depending on MB convention. Accept the
        // band the paper's prose and formula jointly cover.
        assert!((500.0..700.0).contains(&mb), "model gives {mb} MB");
    }

    #[test]
    fn model_is_linear_in_slots() {
        let a = paper_sig_mem_bytes(1_000_000, 32, 0.001);
        let b = paper_sig_mem_bytes(2_000_000, 32, 0.001);
        assert!((b / a - 2.0).abs() < 1e-9);
    }

    #[test]
    fn model_grows_with_threads_and_strictness() {
        let base = paper_sig_mem_bytes(1000, 16, 0.01);
        assert!(paper_sig_mem_bytes(1000, 32, 0.01) > base);
        assert!(paper_sig_mem_bytes(1000, 16, 0.001) > base);
    }

    #[test]
    fn bloom_bits_match_classic_formula() {
        // t = 32, p = 0.001: m = 32 * 6.9078 / 0.4805 ≈ 460 bits.
        let bits = paper_bloom_bits(32, 0.001);
        assert!((455.0..465.0).contains(&bits), "bits = {bits}");
    }

    #[test]
    fn slot_layout_is_at_or_below_eq2_from_six_threads() {
        for fp in [0.05, 0.01, 0.001] {
            for t in 6..=1024 {
                let slot = slot_signature_bytes(1, t) as f64;
                assert!(slot <= paper_sig_mem_bytes(1, t, fp), "t = {t}, fp = {fp}");
            }
        }
        assert!(slot_signature_bytes(1, 5) as f64 > paper_sig_mem_bytes(1, 5, 0.05));
        // The paper's headline point: 8 B against 61.5 B per slot.
        assert_eq!(slot_signature_bytes(1, 32), 8);
        assert!((paper_sig_mem_bytes(1, 32, 0.001) - 61.5).abs() < 0.1);
    }

    #[test]
    fn sweep_shape() {
        let s = model_sweep(32, 0.001, &[1_000, 10_000, 100_000]);
        assert_eq!(s.len(), 3);
        assert!(s[0].1 < s[1].1 && s[1].1 < s[2].1);
    }
}
