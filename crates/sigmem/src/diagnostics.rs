//! Signature-health diagnostics — estimating the live aliasing risk.
//!
//! §IV-D2: "the accuracy of the algorithm decreases when the size of the
//! signature decreases. Hence, the size of the signature is a trade-off
//! between memory consumption and accuracy." Users tune `n_slots` against
//! an *unknown* address footprint; these estimators turn observable state
//! (slot occupancy) into the expected collision rate, so a profiling run
//! can report whether its own configuration was adequate — without a
//! perfect-signature reference run.

use crate::read_signature::ReadSignature;
use crate::write_signature::WriteSignature;

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

/// Online summary of second-level Bloom saturation across a sample of a
/// read signature's allocated filters — the live counterpart of the §V-A3
/// sweep's offline FPR measurement.
#[derive(Clone, Copy, Debug, Default)]
pub struct BloomSaturation {
    /// How many allocated filters were popcounted.
    pub filters_sampled: usize,
    /// Mean fraction of set bits across sampled filters.
    pub mean_fill: f64,
    /// Worst (largest) fill seen in the sample.
    pub max_fill: f64,
    /// Mean estimated false-positive probability (`fill^k` per filter).
    pub est_fp_rate: f64,
}

/// How many filters [`SignatureHealth::inspect`] popcounts per scrape.
/// Bounds scrape cost on huge signatures while keeping the sample
/// statistically meaningful.
pub const BLOOM_SAMPLE_CAP: usize = 256;

/// A point-in-time health report for one signature pair.
#[derive(Clone, Copy, Debug)]
pub struct SignatureHealth {
    /// First-level slots.
    pub slots: usize,
    /// Occupied write-signature slots.
    pub write_occupied: usize,
    /// Allocated read-signature filters.
    pub read_filters: usize,
    /// Estimated distinct written addresses (occupancy inversion).
    pub est_written_addresses: f64,
    /// Probability the next fresh address aliases an existing writer slot.
    pub write_aliasing: f64,
    /// Online Bloom saturation sampled from the read signature.
    pub read_bloom: BloomSaturation,
}

impl SignatureHealth {
    /// Gather health from a live signature pair.
    pub fn inspect(read: &ReadSignature, write: &WriteSignature) -> Self {
        let slots = write.n_slots();
        let write_occupied = write.occupied();
        Self {
            slots,
            write_occupied,
            read_filters: read.allocated_filters(),
            est_written_addresses: estimate_distinct_items(write_occupied, slots),
            write_aliasing: aliasing_probability(write_occupied, slots),
            read_bloom: read.bloom_saturation(BLOOM_SAMPLE_CAP),
        }
    }

    /// Fold in the health of a signature pair of the same geometry that
    /// owns a *disjoint* slot class (slot-sharded workers): occupied slots
    /// and allocated filters add up, the occupancy estimates are retaken
    /// over the sum, and the Bloom sample is pooled.
    pub fn absorb_disjoint(&mut self, other: &Self) {
        assert_eq!(self.slots, other.slots, "same signature geometry");
        self.write_occupied += other.write_occupied;
        self.read_filters += other.read_filters;
        self.est_written_addresses = estimate_distinct_items(self.write_occupied, self.slots);
        self.write_aliasing = aliasing_probability(self.write_occupied, self.slots);
        let (a, b) = (&mut self.read_bloom, other.read_bloom);
        let (na, nb) = (a.filters_sampled as f64, b.filters_sampled as f64);
        if nb > 0.0 {
            a.mean_fill = (a.mean_fill * na + b.mean_fill * nb) / (na + nb);
            a.est_fp_rate = (a.est_fp_rate * na + b.est_fp_rate * nb) / (na + nb);
            a.max_fill = a.max_fill.max(b.max_fill);
            a.filters_sampled += b.filters_sampled;
        }
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
    use crate::traits::{ReaderSet, WriterMap};

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
        let read = ReadSignature::new(slots, 8, 0.001);
        let write = WriteSignature::new(slots);
        for a in 0..300u64 {
            write.record(a * 64, 0);
            read.insert(a * 64, 1);
        }
        let h = SignatureHealth::inspect(&read, &write);
        assert!(h.write_occupied > 0 && h.write_occupied <= 300);
        // ~300 distinct addresses estimated within 15%.
        assert!(
            (h.est_written_addresses - 300.0).abs() < 45.0,
            "estimate {}",
            h.est_written_addresses
        );
        // 300/4096 ≈ 7% occupancy: comfortably under the warn threshold.
        assert!(!h.needs_more_slots(), "aliasing {}", h.write_aliasing);
        // One reader per filter: every sampled filter is lightly filled.
        assert!(h.read_bloom.filters_sampled > 0);
        assert!(h.read_bloom.mean_fill > 0.0 && h.read_bloom.mean_fill < 0.5);
        assert!(h.read_bloom.max_fill >= h.read_bloom.mean_fill);
        assert!(h.read_bloom.est_fp_rate < 0.01);
    }

    #[test]
    fn bloom_saturation_sample_cap_is_respected() {
        let read = ReadSignature::new(1 << 12, 8, 0.001);
        for a in 0..4000u64 {
            read.insert(a * 64, (a % 8) as u32);
        }
        let sat = read.bloom_saturation(16);
        assert_eq!(sat.filters_sampled, 16);
        let empty = ReadSignature::new(64, 8, 0.001).bloom_saturation(16);
        assert_eq!(empty.filters_sampled, 0);
        assert_eq!(empty.mean_fill, 0.0);
        assert_eq!(empty.est_fp_rate, 0.0);
    }

    #[test]
    fn undersized_signature_is_flagged_with_a_useful_suggestion() {
        let slots = 256;
        let read = ReadSignature::new(slots, 8, 0.01);
        let write = WriteSignature::new(slots);
        for a in 0..5_000u64 {
            write.record(a * 8, 0);
        }
        let h = SignatureHealth::inspect(&read, &write);
        assert!(h.needs_more_slots());
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
