//! Property test pinning Eq. 2 to the implementation.
//!
//! Across generated `(n_slots, threads, fp_rate)` configurations the test
//! builds a [`SlotSignature`], drives reads and writes into every slot,
//! and checks three relations between the paper's closed-form prediction
//! (Eq. 2, [`mem_model::paper_sig_mem_bytes`]) and the bytes the
//! implementation holds:
//!
//! 1. **Exactness** — `memory_bytes()` is `n · 8 · w(t)`
//!    ([`mem_model::slot_signature_bytes`]) before and after the slots
//!    fill: the table is allocated whole, so no input moves it.
//! 2. **Bound** — for `t ≥ 6` the footprint is at or below Eq. 2 at every
//!    tested FPRate (8 B against 61.5 B per slot at the paper's `t = 32`,
//!    `FPRate = 0.001`, §V-A2), so the "around 580 MB could be
//!    sufficient" sizing argument still covers the implementation.
//! 3. **One line** — a slot is at most one 64-byte cache line for
//!    `t ≤ 480`.

use lc_sigmem::murmur::fmix64;
use lc_sigmem::{mem_model, Signature, SignatureConfig, SlotSignature};
use proptest::prelude::*;

/// Write then read distinct addresses until every slot holds a writer
/// and a reader. Murmur routing makes this a coupon collector: `n·ln n`
/// expected addresses, capped generously.
fn populate_every_slot(sig: &SlotSignature, threads: usize) {
    let mut addr = 0x1000u64;
    let cap = 200 * sig.n_slots() as u64;
    let mut i = 0u64;
    while sig.write_occupied() < sig.n_slots() || sig.read_occupied() < sig.n_slots() {
        assert!(
            i < cap,
            "coupon collector failed to fill {} slots",
            sig.n_slots()
        );
        let tid = (i % threads as u64) as u32;
        sig.write(addr, fmix64(addr), tid);
        sig.read(addr, fmix64(addr), (tid + 1) % threads as u32);
        addr = addr.wrapping_add(8);
        i += 1;
    }
}

proptest! {
    #[test]
    fn eq2_prediction_brackets_actual_footprint(
        n_exp in 4u32..11,
        threads in 2usize..500,
        fp_idx in 0usize..3,
    ) {
        let n_slots = 1usize << n_exp; // 16..=1024
        let fp_rate: f64 = [0.05, 0.01, 0.001][fp_idx];
        let cfg = SignatureConfig { n_slots, threads };
        let sig = cfg.build();

        // (1) Exactness: the documented layout, from construction on.
        let w = sig.words_per_slot();
        // The smallest power of two holding a 32-bit writer and t reader bits.
        prop_assert!(w.is_power_of_two() && 64 * w >= 32 + threads);
        prop_assert!(w == 1 || 32 * w < 32 + threads);
        let expected = n_slots * 8 * w;
        prop_assert_eq!(sig.memory_bytes(), expected);
        prop_assert_eq!(mem_model::slot_signature_bytes(n_slots, threads), expected);
        prop_assert_eq!(cfg.memory_bytes(), expected);
        populate_every_slot(&sig, threads);
        prop_assert_eq!(
            sig.memory_bytes(), expected,
            "memory accounting drifted from the documented layout"
        );

        // (2) Bound: Eq. 2, recomputed here verbatim and independently of
        // mem_model, budgets at least what the layout holds from t = 6 on.
        let ln2 = core::f64::consts::LN_2;
        let eq2 = n_slots as f64
            * (4.0 + (-(threads as f64) * fp_rate.ln()) / (8.0 * ln2 * ln2));
        prop_assert!((eq2 - mem_model::paper_sig_mem_bytes(n_slots, threads, fp_rate)).abs() < 1e-6);
        if threads >= 6 {
            prop_assert!(
                expected as f64 <= eq2,
                "Eq. 2 predicted {eq2} B but the layout holds {expected} B \
                 (n={n_slots}, t={threads}, fp={fp_rate})"
            );
        }

        // (3) One cache line per slot up to t = 480.
        if threads <= 480 {
            prop_assert!(w * 8 <= 64, "t={threads}: {w} words per slot");
        }
    }
}
