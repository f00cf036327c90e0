//! Sequential Bloom filter with paper-style automatic sizing.
//!
//! The paper's read signature stores, per address class, the set of thread
//! ids that have read that address in a Bloom filter. The paper sizes these filters
//! automatically: "The bloom filter uses a bit vector of size m, where m
//! depends on the number of threads available in the target program. Also a
//! linear combination of hash functions has been devised to automatically
//! adjust the number of hash functions according to the false positive rate
//! required by the user" (§IV-D2).
//!
//! This module provides the single-threaded reference implementation used by
//! tests and offline analysis; [`crate::concurrent_bloom`] provides the
//! lock-free variant. The profiling path stores the same sets as exact
//! reader masks ([`crate::SlotSignature`]).

use crate::murmur::hash_addr;

/// Number of bits for a Bloom filter expected to hold `n` elements with
/// false-positive probability `fp_rate`.
///
/// Classic optimum: `m = -n * ln(p) / ln(2)^2`, rounded up to a multiple of
/// 64 so the bit vector packs into whole words.
pub fn optimal_bits(n: usize, fp_rate: f64) -> usize {
    assert!(n > 0, "bloom filter must be sized for at least one element");
    assert!(
        fp_rate > 0.0 && fp_rate < 1.0,
        "false-positive rate must be in (0, 1), got {fp_rate}"
    );
    let m = (-(n as f64) * fp_rate.ln() / (core::f64::consts::LN_2.powi(2))).ceil() as usize;
    m.max(64).div_ceil(64) * 64
}

/// Number of hash functions minimizing the false-positive rate for `m` bits
/// and `n` expected elements: `k = (m/n) * ln(2)`.
pub fn optimal_hashes(m_bits: usize, n: usize) -> usize {
    assert!(n > 0);
    let k = ((m_bits as f64 / n as f64) * core::f64::consts::LN_2).round() as usize;
    k.clamp(1, 16)
}

/// Theoretical false-positive rate after `inserted` insertions into a filter
/// of `m_bits` bits using `k` hash functions: `(1 - e^{-k·n/m})^k`.
///
/// Degenerate geometries are clamped instead of poisoning the result:
/// `m_bits = 0` (no bits: every probe "hits") and `k = 0` (no probes:
/// nothing can miss) both report a certain false positive, and the result
/// is always a probability in `[0, 1]` — never NaN. The boundary proptests
/// below pin this.
pub fn theoretical_fp_rate(m_bits: usize, k: usize, inserted: usize) -> f64 {
    if m_bits == 0 || k == 0 {
        return 1.0;
    }
    let exponent = -(k as f64) * (inserted as f64) / (m_bits as f64);
    (1.0 - exponent.exp()).powi(k as i32)
}

/// Seeds for the two base hashes from which the `k` filter hashes are
/// linearly combined (`h_i = h_a + i * h_b`, Kirsch–Mitzenmacher).
const SEED_A: u64 = 0x9368_7fbc_a1b2_c3d4;
const SEED_B: u64 = 0x1f83_d9ab_fb41_bd6b;

/// The two base hashes every derived hash of `item` combines: `(h_a, h_b)`
/// with `h_b` forced odd so strides cover all bits.
///
/// Computing this pair costs two `fmix64` — and it is the *whole* hashing
/// cost of a Bloom operation. The pre-fix hot path recomputed both bases
/// inside every probe (`2k` finalizer runs per insert instead of 2), the
/// "hash re-entry" half of the PR 4 batching regression (DESIGN.md §12).
/// Callers that probe the same item repeatedly (a reader-set filter's
/// items are thread ids) cache the pair once per item.
#[inline]
pub fn hash_pair(item: u64) -> (u64, u64) {
    (hash_addr(item, SEED_A), hash_addr(item, SEED_B) | 1)
}

/// Compute the `i`-th derived hash of `item` from its base pair.
#[inline]
pub(crate) fn derived_from(ha: u64, hb: u64, i: usize) -> u64 {
    ha.wrapping_add(hb.wrapping_mul(i as u64))
}

/// Compute the `i`-th derived hash of `item`.
#[inline]
pub(crate) fn derived_hash(item: u64, i: usize) -> u64 {
    let (ha, hb) = hash_pair(item);
    derived_from(ha, hb, i)
}

/// A plain (single-threaded) Bloom filter over `u64` items.
#[derive(Clone, Debug)]
pub struct BloomFilter {
    bits: Vec<u64>,
    m_bits: usize,
    k: usize,
    inserted: usize,
}

impl BloomFilter {
    /// Create a filter sized for `expected` elements at `fp_rate`.
    pub fn with_rate(expected: usize, fp_rate: f64) -> Self {
        let m_bits = optimal_bits(expected, fp_rate);
        let k = optimal_hashes(m_bits, expected);
        Self::with_params(m_bits, k)
    }

    /// Create a filter with explicit geometry.
    pub fn with_params(m_bits: usize, k: usize) -> Self {
        assert!(
            m_bits >= 64 && m_bits % 64 == 0,
            "m_bits must be a positive multiple of 64"
        );
        assert!(k >= 1);
        Self {
            bits: vec![0u64; m_bits / 64],
            m_bits,
            k,
            inserted: 0,
        }
    }

    /// Insert an item.
    pub fn insert(&mut self, item: u64) {
        for i in 0..self.k {
            let bit = (derived_hash(item, i) % self.m_bits as u64) as usize;
            self.bits[bit / 64] |= 1u64 << (bit % 64);
        }
        self.inserted += 1;
    }

    /// Membership query. False positives possible, false negatives never.
    pub fn contains(&self, item: u64) -> bool {
        (0..self.k).all(|i| {
            let bit = (derived_hash(item, i) % self.m_bits as u64) as usize;
            self.bits[bit / 64] & (1u64 << (bit % 64)) != 0
        })
    }

    /// Remove every element (reset all bits).
    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.inserted = 0;
    }

    /// Number of bits in the filter.
    pub fn m_bits(&self) -> usize {
        self.m_bits
    }

    /// Number of hash functions.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of `insert` calls since creation/clear (not deduplicated).
    pub fn inserted(&self) -> usize {
        self.inserted
    }

    /// Count of set bits (useful to estimate saturation).
    pub fn ones(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Heap footprint of the bit vector in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

/// A plain (single-threaded) **blocked** Bloom filter — the sequential
/// reference for the cache-line-local layout the concurrent path uses.
///
/// Shares the probe schedule with [`crate::ConcurrentBloom`] through
/// [`crate::BloomGeometry::probe_bit`], so the two structures set and test
/// identical bits for identical items; `tests/batched_hot_path.rs` pins
/// that differentially against recorded traces.
#[derive(Clone, Debug)]
pub struct BlockedBloomFilter {
    bits: Vec<u64>,
    geometry: crate::BloomGeometry,
    inserted: usize,
}

impl BlockedBloomFilter {
    /// Create an empty filter with the given blocked geometry.
    pub fn new(geometry: crate::BloomGeometry) -> Self {
        Self {
            bits: vec![0u64; geometry.words_per_filter()],
            geometry,
            inserted: 0,
        }
    }

    /// Insert an item.
    pub fn insert(&mut self, item: u64) {
        let (ha, hb) = hash_pair(item);
        for i in 0..self.geometry.k {
            let bit = self.geometry.probe_bit(ha, hb, i);
            self.bits[bit / 64] |= 1u64 << (bit % 64);
        }
        self.inserted += 1;
    }

    /// Membership query. False positives possible, false negatives never.
    pub fn contains(&self, item: u64) -> bool {
        let (ha, hb) = hash_pair(item);
        (0..self.geometry.k).all(|i| {
            let bit = self.geometry.probe_bit(ha, hb, i);
            self.bits[bit / 64] & (1u64 << (bit % 64)) != 0
        })
    }

    /// The blocked geometry.
    pub fn geometry(&self) -> crate::BloomGeometry {
        self.geometry
    }

    /// Number of `insert` calls since creation.
    pub fn inserted(&self) -> usize {
        self.inserted
    }

    /// Count of set bits.
    pub fn ones(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The raw filter words (for differential tests against the
    /// concurrent implementation).
    pub fn words(&self) -> &[u64] {
        &self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::with_rate(64, 0.001);
        for i in 0..64u64 {
            f.insert(i * 0x9e37);
        }
        for i in 0..64u64 {
            assert!(f.contains(i * 0x9e37));
        }
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::with_rate(32, 0.01);
        assert!(!f.contains(42));
        assert_eq!(f.ones(), 0);
    }

    #[test]
    fn clear_resets_membership() {
        let mut f = BloomFilter::with_rate(32, 0.01);
        f.insert(7);
        assert!(f.contains(7));
        f.clear();
        assert!(!f.contains(7));
        assert_eq!(f.inserted(), 0);
    }

    #[test]
    fn fp_rate_within_expectation() {
        // Insert the designed-for number of elements, then probe many
        // non-members; the observed FP rate must stay within ~4x of target.
        let target = 0.01;
        let n = 1000;
        let mut f = BloomFilter::with_rate(n, target);
        for i in 0..n as u64 {
            f.insert(i);
        }
        let probes = 100_000u64;
        let fps = (0..probes).filter(|p| f.contains(p + 1_000_000)).count();
        let observed = fps as f64 / probes as f64;
        assert!(
            observed < target * 4.0,
            "observed FP rate {observed} far above target {target}"
        );
    }

    #[test]
    fn optimal_bits_monotone_in_strictness() {
        assert!(optimal_bits(32, 0.001) > optimal_bits(32, 0.01));
        assert!(optimal_bits(64, 0.01) > optimal_bits(32, 0.01));
    }

    #[test]
    fn optimal_hashes_reasonable() {
        let m = optimal_bits(32, 0.001);
        let k = optimal_hashes(m, 32);
        // For p = 0.001 the optimum is ~ -log2(p) ≈ 10.
        assert!((8..=12).contains(&k), "k = {k}");
    }

    #[test]
    fn theoretical_rate_grows_with_load() {
        let m = optimal_bits(32, 0.01);
        let k = optimal_hashes(m, 32);
        let light = theoretical_fp_rate(m, k, 8);
        let heavy = theoretical_fp_rate(m, k, 64);
        assert!(light < heavy);
    }

    #[test]
    fn geometry_accessors() {
        let f = BloomFilter::with_params(128, 3);
        assert_eq!(f.m_bits(), 128);
        assert_eq!(f.k(), 3);
        assert_eq!(f.memory_bytes(), 16);
    }

    #[test]
    fn hash_pair_matches_derived_hash_family() {
        for item in 0..64u64 {
            let (ha, hb) = hash_pair(item);
            assert_eq!(hb & 1, 1, "stride must be odd");
            for i in 0..16 {
                assert_eq!(derived_from(ha, hb, i), derived_hash(item, i));
            }
        }
    }

    #[test]
    fn blocked_filter_no_false_negatives() {
        let g = crate::BloomGeometry::for_threads(64, 0.001); // multi-block
        assert!(g.blocks() > 1, "want a genuinely blocked geometry");
        let mut f = BlockedBloomFilter::new(g);
        for i in 0..64u64 {
            f.insert(i);
        }
        for i in 0..64u64 {
            assert!(f.contains(i), "false negative at {i}");
        }
    }

    #[test]
    fn blocked_fp_rate_near_design_point() {
        // Blocking confines each item to one 512-bit block, which costs a
        // small constant over the unblocked optimum; the observed rate
        // must stay within the same 2x band telemetry pins live estimates
        // to (here 4x of the configured target, matching the unblocked
        // filter's own tolerance test above).
        let target = 0.001;
        let n = 64;
        let g = crate::BloomGeometry::for_threads(n, target);
        let mut f = BlockedBloomFilter::new(g);
        for i in 0..n as u64 {
            f.insert(i);
        }
        let probes = 200_000u64;
        let fps = (0..probes).filter(|p| f.contains(p + 1_000_000)).count();
        let observed = fps as f64 / probes as f64;
        assert!(
            observed < target * 4.0,
            "blocked FP rate {observed} far above target {target}"
        );
    }

    // ---- boundary proptests for the parameter math (ISSUE 6 satellite) ----

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn optimal_bits_is_word_rounded_and_bounded_below(
            n in 1usize..100_000,
            // Drive fp_rate across extremes, including nearly-1 and
            // vanishingly small.
            neg_exp in 1u32..300,
        ) {
            let fp = (10f64).powi(-(neg_exp as i32)).min(0.999_999);
            let m = optimal_bits(n, fp);
            prop_assert!(m >= 64, "whole-word minimum violated: {m}");
            prop_assert_eq!(m % 64, 0, "not word-rounded: {}", m);
            // Never below the classic optimum it rounds.
            let ideal = -(n as f64) * fp.ln() / core::f64::consts::LN_2.powi(2);
            prop_assert!(m as f64 >= ideal);
        }

        #[test]
        fn optimal_hashes_always_in_clamp_band(
            m_exp in 0u32..24,
            n in 1usize..1_000_000,
        ) {
            let k = optimal_hashes(1usize << m_exp, n);
            prop_assert!((1..=16).contains(&k), "k = {} escaped [1, 16]", k);
        }

        #[test]
        fn theoretical_fp_rate_is_a_probability_everywhere(
            m in 0usize..100_000,
            k in 0usize..32,
            inserted in 0usize..1_000_000,
        ) {
            let p = theoretical_fp_rate(m, k, inserted);
            prop_assert!(p.is_finite(), "NaN/inf at m={} k={} n={}", m, k, inserted);
            prop_assert!((0.0..=1.0).contains(&p), "p = {} escaped [0, 1]", p);
        }

        #[test]
        fn theoretical_fp_rate_monotone_in_load(
            m_exp in 6u32..20,
            k in 1usize..16,
            n1 in 0usize..10_000,
            extra in 1usize..10_000,
        ) {
            let m = 1usize << m_exp;
            let light = theoretical_fp_rate(m, k, n1);
            let heavy = theoretical_fp_rate(m, k, n1 + extra);
            prop_assert!(light <= heavy, "rate fell as load grew");
        }
    }

    #[test]
    fn theoretical_fp_rate_degenerate_geometries_are_certain() {
        // No bits: every probe hits. No probes: nothing can miss.
        assert_eq!(theoretical_fp_rate(0, 4, 10), 1.0);
        assert_eq!(theoretical_fp_rate(128, 0, 10), 1.0);
        // Empty filter never false-positives.
        assert_eq!(theoretical_fp_rate(128, 4, 0), 0.0);
    }

    #[test]
    fn tiny_expected_and_extreme_rates_build_working_filters() {
        // The clamps must produce usable geometry at the boundaries the
        // satellite names: one expected element, near-1 and near-0 rates.
        for fp in [0.999, 0.5, 1e-9] {
            let m = optimal_bits(1, fp);
            let k = optimal_hashes(m, 1);
            let mut f = BloomFilter::with_params(m, k);
            f.insert(42);
            assert!(f.contains(42));
        }
    }
}
