//! Lock-free Bloom filter storing reader-thread sets.
//!
//! The paper hangs one instance of this filter off each occupied
//! first-level slot of its read signature (Fig. 3a). It records *which
//! threads* have read the addresses mapping to that slot. At FPRate 0.001
//! it holds that set exactly for t ≤ 211, which is why
//! [`crate::SlotSignature`] stores a plain reader mask instead; this
//! filter remains the reference for that argument. Because the number of
//! distinct elements ever inserted is bounded by the thread count `t`, the
//! paper notes "it is guaranteed that the false positive rate does not go
//! beyond the threshold limit" (§IV-D2) — the filter is sized for exactly
//! `t` elements at the user's requested rate.

use crate::atomic_bits::AtomicBitVec;
use crate::bloom::{derived_from, hash_pair, optimal_bits, optimal_hashes};

/// Largest block size (in bits) a filter is carved into: one 64-byte cache
/// line. All `k` probes of one operation land inside a single block, so an
/// insert or query touches exactly one line of filter storage no matter how
/// large the filter grows (the cache-line-local Bloom layout; DESIGN.md §12).
pub const BLOOM_BLOCK_BITS: usize = 512;

/// Geometry of a reader-set filter sized for `t` threads.
///
/// Filters are **blocked**: `m_bits` is split into `m_bits / block_bits`
/// contiguous blocks of `block_bits` bits each (`block_bits` is a power of
/// two ≤ [`BLOOM_BLOCK_BITS`], so in-block reduction is a mask, not a
/// division). An item's block is chosen from the high bits of its first
/// base hash; its `k` probe bits stride within that one block
/// (Kirsch–Mitzenmacher on the base pair). Filters no larger than one
/// block (every configuration with `threads` ≲ 35 at the paper's 0.001
/// rate) degenerate to a classic single-block filter — and because the
/// in-block mask equals `% m_bits` for power-of-two sizes, those
/// geometries keep the exact bit layout of the pre-blocking
/// implementation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BloomGeometry {
    /// Bits per filter (a multiple of `block_bits`).
    pub m_bits: usize,
    /// Hash functions per query.
    pub k: usize,
    /// Bits per cache-line-local block (power of two, ≤ 512).
    pub block_bits: usize,
}

impl BloomGeometry {
    /// Size a filter for `threads` potential members at `fp_rate`.
    ///
    /// The classic optimum `m` is rounded up to a power of two while it
    /// fits one block (so the in-block mask is exact), then to whole
    /// [`BLOOM_BLOCK_BITS`] blocks beyond that. Rounding only ever *adds*
    /// bits, so the configured false-positive rate stays an upper bound on
    /// the per-block design point.
    pub fn for_threads(threads: usize, fp_rate: f64) -> Self {
        let ideal = optimal_bits(threads, fp_rate); // word-rounded, ≥ 64
        let (m_bits, block_bits) = if ideal <= BLOOM_BLOCK_BITS {
            let b = ideal.next_power_of_two();
            (b, b)
        } else {
            (
                ideal.div_ceil(BLOOM_BLOCK_BITS) * BLOOM_BLOCK_BITS,
                BLOOM_BLOCK_BITS,
            )
        };
        Self {
            m_bits,
            k: optimal_hashes(m_bits, threads),
            block_bits,
        }
    }

    /// Heap bytes one filter of this geometry occupies.
    pub fn bytes_per_filter(&self) -> usize {
        self.m_bits / 8
    }

    /// 64-bit words per filter.
    pub fn words_per_filter(&self) -> usize {
        self.m_bits / 64
    }

    /// Number of cache-line-local blocks per filter.
    pub fn blocks(&self) -> usize {
        self.m_bits / self.block_bits
    }

    /// The bit index probe `i` of an item with base hashes `(ha, hb)`
    /// tests — the single definition of the probe schedule, shared by the
    /// concurrent filter and the sequential blocked reference so they can
    /// never disagree.
    #[inline]
    pub fn probe_bit(&self, ha: u64, hb: u64, i: usize) -> usize {
        // High bits pick the block (decorrelated from the in-block bits,
        // which come from the low end of the derived hashes); the mask is
        // exact because block_bits is a power of two.
        let block = if self.m_bits > self.block_bits {
            (ha >> 32) as usize % self.blocks()
        } else {
            0
        };
        block * self.block_bits + (derived_from(ha, hb, i) as usize & (self.block_bits - 1))
    }
}

/// A concurrent Bloom filter over small integer items (thread ids).
#[derive(Debug)]
pub struct ConcurrentBloom {
    bits: AtomicBitVec,
    geometry: BloomGeometry,
}

impl ConcurrentBloom {
    /// Create an empty filter with the given geometry.
    pub fn new(geometry: BloomGeometry) -> Self {
        Self {
            bits: AtomicBitVec::new(geometry.m_bits),
            geometry,
        }
    }

    /// Insert an item (typically a thread id). Lock-free.
    #[inline]
    pub fn insert(&self, item: u64) {
        let (ha, hb) = hash_pair(item);
        self.insert_hashed(ha, hb);
    }

    /// [`Self::insert`] with the item's base hash pair precomputed (two
    /// `fmix64` per *item*, not per probe — see [`crate::bloom::hash_pair`]).
    #[inline]
    pub fn insert_hashed(&self, ha: u64, hb: u64) {
        for i in 0..self.geometry.k {
            self.bits.set(self.geometry.probe_bit(ha, hb, i));
        }
    }

    /// Query membership. May return false positives, never false negatives
    /// for items whose `insert` happened-before this call.
    #[inline]
    pub fn contains(&self, item: u64) -> bool {
        let (ha, hb) = hash_pair(item);
        self.contains_hashed(ha, hb)
    }

    /// [`Self::contains`] with the item's base hash pair precomputed.
    #[inline]
    pub fn contains_hashed(&self, ha: u64, hb: u64) -> bool {
        (0..self.geometry.k).all(|i| self.bits.get(self.geometry.probe_bit(ha, hb, i)))
    }

    /// Reset the filter to empty. Races with concurrent inserts are benign:
    /// an insert overlapping a clear may survive or vanish, mirroring the
    /// unsynchronized write/read ordering of the profiled program itself.
    pub fn clear(&self) {
        self.bits.clear();
    }

    /// Geometry of this filter.
    pub fn geometry(&self) -> BloomGeometry {
        self.geometry
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.bits.memory_bytes()
    }

    /// Set-bit count, for saturation diagnostics.
    pub fn ones(&self) -> usize {
        self.bits.count_ones()
    }

    /// Fraction of bits set — the filter's *saturation* in `[0, 1]`.
    ///
    /// O(m/64) popcount; a scrape-time diagnostic, not a hot-path call.
    pub fn fill(&self) -> f64 {
        self.ones() as f64 / self.geometry.m_bits as f64
    }

    /// Estimated live false-positive probability from the observed
    /// saturation: a query tests `k` independent bits, so
    /// `P(false hit) ≈ fill^k`. This is the online counterpart of
    /// [`crate::bloom::theoretical_fp_rate`], driven by the actual bit
    /// state instead of the insertion count.
    pub fn est_fp_rate(&self) -> f64 {
        self.fill().powi(self.geometry.k as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn geom() -> BloomGeometry {
        BloomGeometry::for_threads(32, 0.001)
    }

    #[test]
    fn geometry_matches_sequential_sizing() {
        let g = geom();
        assert_eq!(g.m_bits, optimal_bits(32, 0.001));
        assert_eq!(g.k, optimal_hashes(g.m_bits, 32));
        assert_eq!(g.bytes_per_filter() * 8, g.m_bits);
    }

    #[test]
    fn insert_then_contains() {
        let f = ConcurrentBloom::new(geom());
        for tid in 0..32u64 {
            assert!(!f.contains(tid));
            f.insert(tid);
            assert!(f.contains(tid));
        }
    }

    #[test]
    fn clear_empties() {
        let f = ConcurrentBloom::new(geom());
        f.insert(5);
        f.clear();
        assert!(!f.contains(5));
        assert_eq!(f.ones(), 0);
    }

    #[test]
    fn concurrent_inserts_preserve_membership() {
        let f = Arc::new(ConcurrentBloom::new(geom()));
        let mut handles = Vec::new();
        for tid in 0..16u64 {
            let f = Arc::clone(&f);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    f.insert(tid);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for tid in 0..16u64 {
            assert!(f.contains(tid));
        }
    }

    #[test]
    fn fill_and_est_fp_track_saturation() {
        let f = ConcurrentBloom::new(geom());
        assert_eq!(f.fill(), 0.0);
        assert_eq!(f.est_fp_rate(), 0.0);
        for tid in 0..32u64 {
            f.insert(tid);
        }
        let fill = f.fill();
        assert!(fill > 0.0 && fill < 1.0);
        assert_eq!(
            f.ones(),
            (fill * f.geometry().m_bits as f64).round() as usize
        );
        // Sized for 32 members at 0.001: the live estimate should sit near
        // the design point (same formula, observed bits).
        let est = f.est_fp_rate();
        assert!(est > 0.0 && est < 0.01, "est {est}");
    }

    #[test]
    fn bounded_membership_keeps_fp_low() {
        // With at most t = 32 members, probing ids far outside the inserted
        // range should almost never hit at fp = 0.001.
        let f = ConcurrentBloom::new(geom());
        for tid in 0..32u64 {
            f.insert(tid);
        }
        let fps = (1000..11_000u64).filter(|p| f.contains(*p)).count();
        assert!(fps < 100, "false positives: {fps} / 10000");
    }
}
