//! Signature-health diagnostics — estimating the live aliasing risk.
//!
//! §IV-D2: "the accuracy of the algorithm decreases when the size of the
//! signature decreases. Hence, the size of the signature is a trade-off
//! between memory consumption and accuracy." Users tune `n_slots` against
//! an *unknown* address footprint; these estimators turn observable state
//! (slot occupancy) into the expected collision rate, so a profiling run
//! can report whether its own configuration was adequate — without a
//! perfect-signature reference run.

use crate::slot_signature::{SlotSignature, SlotWord};

/// Expected fraction of occupied slots after hashing `items` distinct keys
/// into `slots` slots uniformly: `1 − e^(−items/slots)`.
pub fn expected_occupancy(items: usize, slots: usize) -> f64 {
    assert!(slots > 0);
    1.0 - (-(items as f64) / slots as f64).exp()
}

/// Invert [`expected_occupancy`]: estimate how many distinct addresses were
/// hashed given the observed occupied-slot fraction.
pub fn estimate_distinct_items(occupied: usize, slots: usize) -> f64 {
    assert!(slots > 0 && occupied <= slots);
    let frac = occupied as f64 / slots as f64;
    if frac >= 1.0 {
        return f64::INFINITY;
    }
    -(slots as f64) * (1.0 - frac).ln()
}

/// Probability that a *new* distinct address aliases an already-occupied
/// slot — the per-address collision (false-sharing-of-slots) risk the
/// §V-A3 sweep measures end to end.
pub fn aliasing_probability(occupied: usize, slots: usize) -> f64 {
    assert!(slots > 0);
    occupied as f64 / slots as f64
}

/// A point-in-time health report for one signature.
#[derive(Clone, Copy, Debug)]
pub struct SignatureHealth {
    /// First-level slots.
    pub slots: usize,
    /// Occupied write-signature slots.
    pub write_occupied: usize,
    /// Slots holding at least one reader.
    pub read_occupied: usize,
    /// Estimated distinct written addresses (occupancy inversion).
    pub est_written_addresses: f64,
    /// Probability the next fresh address aliases an existing writer slot.
    pub write_aliasing: f64,
}

impl SignatureHealth {
    /// Gather health from a live signature.
    pub fn inspect<W: SlotWord>(sig: &SlotSignature<W>) -> Self {
        let slots = sig.n_slots();
        let (write_occupied, read_occupied) = sig.occupied();
        Self {
            slots,
            write_occupied,
            read_occupied,
            est_written_addresses: estimate_distinct_items(write_occupied, slots),
            write_aliasing: aliasing_probability(write_occupied, slots),
        }
    }

    /// Fold in the health of a signature of the same geometry that owns a
    /// *disjoint* slot class (slot-sharded workers): occupied slots add
    /// up, and the occupancy estimates are retaken over the sum.
    pub fn absorb_disjoint(&mut self, other: &Self) {
        assert_eq!(self.slots, other.slots, "same signature geometry");
        self.write_occupied += other.write_occupied;
        self.read_occupied += other.read_occupied;
        self.est_written_addresses = estimate_distinct_items(self.write_occupied, self.slots);
        self.write_aliasing = aliasing_probability(self.write_occupied, self.slots);
    }

    /// Rule of thumb: aliasing above this means the matrix is materially
    /// distorted (the §V-A3 sweep shows L1 error ≈ aliasing level).
    pub const ALIASING_WARN: f64 = 0.10;

    /// Should the user re-run with more slots?
    pub fn needs_more_slots(&self) -> bool {
        self.write_aliasing > Self::ALIASING_WARN
    }

    /// Suggested slot count to bring aliasing under `target` for the
    /// estimated footprint (rounded up to a power of two).
    pub fn suggested_slots(&self, target: f64) -> usize {
        assert!(target > 0.0 && target < 1.0);
        if !self.est_written_addresses.is_finite() {
            return (self.slots * 16).next_power_of_two();
        }
        // occupancy ≈ 1 − e^(−n/slots) ≤ target  ⇒  slots ≥ n / −ln(1−target)
        let needed = self.est_written_addresses / -(1.0 - target).ln();
        (needed.ceil() as usize).max(1).next_power_of_two()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::murmur::fmix64;
    use crate::traits::Signature;

    #[test]
    fn occupancy_model_roundtrips() {
        let slots = 1 << 14;
        for items in [100usize, 1000, 8000] {
            let occ = (expected_occupancy(items, slots) * slots as f64) as usize;
            let est = estimate_distinct_items(occ, slots);
            let rel = (est - items as f64).abs() / items as f64;
            assert!(rel < 0.02, "items {items}: est {est}");
        }
    }

    #[test]
    fn occupancy_extremes() {
        assert_eq!(expected_occupancy(0, 64), 0.0);
        assert!(expected_occupancy(1_000_000, 64) > 0.999);
        assert_eq!(estimate_distinct_items(0, 64), 0.0);
        assert!(estimate_distinct_items(64, 64).is_infinite());
    }

    #[test]
    fn health_inspection_tracks_real_usage() {
        let slots = 1 << 12;
        let sig = SlotSignature::new(slots, 8);
        for a in 0..300u64 {
            sig.write(a * 64, fmix64(a * 64), 0);
            sig.read(a * 64, fmix64(a * 64), 1);
        }
        let h = SignatureHealth::inspect(&sig);
        assert!(h.write_occupied > 0 && h.write_occupied <= 300);
        assert_eq!(h.read_occupied, h.write_occupied);
        // ~300 distinct addresses estimated within 15%.
        assert!(
            (h.est_written_addresses - 300.0).abs() < 45.0,
            "estimate {}",
            h.est_written_addresses
        );
        // 300/4096 ≈ 7% occupancy: comfortably under the warn threshold.
        assert!(!h.needs_more_slots(), "aliasing {}", h.write_aliasing);
    }

    #[test]
    fn undersized_signature_is_flagged_with_a_useful_suggestion() {
        let slots = 256;
        let sig = SlotSignature::new(slots, 8);
        for a in 0..5_000u64 {
            sig.write(a * 8, fmix64(a * 8), 0);
        }
        let h = SignatureHealth::inspect(&sig);
        assert!(h.needs_more_slots());
        assert_eq!(h.read_occupied, 0);
        let suggested = h.suggested_slots(0.05);
        assert!(suggested > slots * 8, "suggested {suggested}");
        assert!(suggested.is_power_of_two());
    }

    #[test]
    fn aliasing_probability_is_occupancy() {
        assert_eq!(aliasing_probability(32, 64), 0.5);
        assert_eq!(aliasing_probability(0, 64), 0.0);
    }
}
