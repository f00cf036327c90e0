//! Two-level read signature (Fig. 3a of the paper).
//!
//! A fixed first-level array of `n` slots is indexed by a MurmurHash of the
//! memory address. Each occupied slot owns a second-level Bloom filter
//! recording the set of thread ids that have read addresses mapping to that
//! slot. Filter storage lives in a segmented [`FilterArena`]: slots share
//! segment allocations of [`crate::slot::ARENA_SEGMENT_FILTERS`] filters,
//! published lazily with a release-CAS so a thread observing a segment also
//! observes its zeroed contents. Compared to the original one-heap-object-
//! per-slot layout this removes a dependent pointer load from every probe
//! and keeps neighbouring slots' filters on adjacent cache lines
//! (DESIGN.md §12).
//!
//! Memory is bounded: at most `n` filters of fixed geometry can ever exist,
//! so the footprint never depends on the profiled program's input size —
//! the property Figures 5a/5b demonstrate.
//!
//! Two further hot-path economies over the original implementation:
//!
//! * **Per-tid probe masks.** Filter probes need the Kirsch–Mitzenmacher
//!   probe bits of the *thread id*, not the address — and for a fixed
//!   geometry those `k` bit positions are a constant per tid, all inside
//!   one cache-line-local block. They are folded into per-word OR masks at
//!   construction (for every `tid < threads`), so an insert is at most
//!   `block_bits/64` check-before-set word operations instead of `k`
//!   atomic RMWs, and a membership query is the same number of plain word
//!   loads instead of `k` bit tests. The resulting bit state and
//!   membership answers are identical to the per-probe schedule
//!   ([`crate::BloomGeometry::probe_bit`]), which out-of-range tids still
//!   take.
//! * **Hashed entry points.** [`ReaderSet::insert_hashed`] and friends
//!   accept `fmix64(addr)` computed once by the caller (batched replay
//!   hashes whole address blocks via [`crate::murmur::hash_block`]), so the
//!   address is hashed exactly once per event no matter how many signature
//!   consultations the detector makes.

use crate::bloom::hash_pair;
use crate::concurrent_bloom::{BloomGeometry, BLOOM_BLOCK_BITS};
use crate::murmur::fmix64;
use crate::slot::{slot_of_hash, FilterArena, FilterRef};
use crate::traits::ReaderSet;

/// Per-word probe masks of one thread id: the union of its `k` probe bits,
/// folded by word. All probes of one item land inside a single
/// cache-line-local block (≤ 512 bits = 8 words), so a fixed-size mask
/// array plus the block's first word fully describe the probe set.
#[derive(Clone, Copy, Debug)]
struct TidMasks {
    /// First filter word of this tid's block.
    base_word: u32,
    /// Live words in `masks` (`block_bits / 64`).
    n_words: u32,
    /// OR mask per block word; a word whose mask is zero is never touched.
    masks: [u64; BLOOM_BLOCK_BITS / 64],
}

impl TidMasks {
    fn for_item(geometry: &BloomGeometry, item: u64) -> Self {
        let (ha, hb) = hash_pair(item);
        let words_per_block = geometry.block_bits / 64;
        let mut masks = [0u64; BLOOM_BLOCK_BITS / 64];
        let mut base_word = 0u32;
        for i in 0..geometry.k {
            let bit = geometry.probe_bit(ha, hb, i);
            base_word = (bit / 64 / words_per_block * words_per_block) as u32;
            masks[bit / 64 % words_per_block] |= 1u64 << (bit % 64);
        }
        Self {
            base_word,
            n_words: words_per_block as u32,
            masks,
        }
    }
}

/// The two-level concurrent read signature.
#[derive(Debug)]
pub struct ReadSignature {
    arena: FilterArena,
    geometry: BloomGeometry,
    /// Precomputed probe-bit word masks per thread id.
    tid_masks: Box<[TidMasks]>,
}

impl ReadSignature {
    /// Create a signature with `n_slots` first-level slots, second-level
    /// filters sized for `threads` readers at `fp_rate`.
    pub fn new(n_slots: usize, threads: usize, fp_rate: f64) -> Self {
        assert!(n_slots > 0, "signature needs at least one slot");
        let geometry = BloomGeometry::for_threads(threads, fp_rate);
        Self {
            arena: FilterArena::new(n_slots, geometry.words_per_filter()),
            geometry,
            tid_masks: (0..threads as u64)
                .map(|t| TidMasks::for_item(&geometry, t))
                .collect(),
        }
    }

    #[inline]
    fn set_tid(&self, f: FilterRef<'_>, tid: u32) {
        match self.tid_masks.get(tid as usize) {
            Some(m) => {
                for (i, &mask) in m.masks[..m.n_words as usize].iter().enumerate() {
                    if mask != 0 {
                        f.or_word_missing(m.base_word as usize + i, mask);
                    }
                }
            }
            None => {
                // Out-of-range tid: same probe schedule, computed on demand.
                let (ha, hb) = hash_pair(tid as u64);
                for i in 0..self.geometry.k {
                    f.set_bit(self.geometry.probe_bit(ha, hb, i));
                }
            }
        }
    }

    #[inline]
    fn has_tid(&self, f: FilterRef<'_>, tid: u32) -> bool {
        match self.tid_masks.get(tid as usize) {
            Some(m) => m.masks[..m.n_words as usize]
                .iter()
                .enumerate()
                .all(|(i, &mask)| mask == 0 || f.word_covers(m.base_word as usize + i, mask)),
            None => {
                let (ha, hb) = hash_pair(tid as u64);
                (0..self.geometry.k).all(|i| f.get_bit(self.geometry.probe_bit(ha, hb, i)))
            }
        }
    }

    /// Number of first-level slots.
    pub fn n_slots(&self) -> usize {
        self.arena.n_filters()
    }

    /// Second-level filter geometry.
    pub fn geometry(&self) -> BloomGeometry {
        self.geometry
    }

    /// How many second-level filters have been allocated so far. Counted at
    /// arena-segment grain: touching one slot allocates (and counts) the
    /// whole segment covering it, because that is the memory actually
    /// committed.
    pub fn allocated_filters(&self) -> usize {
        self.arena.allocated_filters()
    }

    /// Snapshot every non-empty second-level filter as `(slot, words)`,
    /// slot-ascending. Unallocated and all-zero filters are omitted: a
    /// zero filter answers `contains == false` for every tid exactly like
    /// an unallocated one, so the sparse dump plus the construction
    /// parameters reproduce identical membership behaviour — the
    /// checkpoint serialization contract.
    pub fn snapshot_filters(&self) -> Vec<(u64, Vec<u64>)> {
        let mut out = Vec::new();
        for slot in 0..self.arena.n_filters() {
            let Some(f) = self.arena.filter(slot) else {
                continue;
            };
            let words: Vec<u64> = (0..f.n_words()).map(|i| f.load_word(i)).collect();
            if words.iter().any(|&w| w != 0) {
                out.push((slot as u64, words));
            }
        }
        out
    }

    /// Restore one filter's words (allocating its segment), the inverse of
    /// [`Self::snapshot_filters`]. Single-threaded by contract: restore
    /// happens before profiling resumes.
    pub fn restore_filter(&self, slot: usize, words: &[u64]) {
        let f = self.arena.filter_or_alloc(slot);
        assert_eq!(
            words.len(),
            f.n_words(),
            "checkpoint filter geometry mismatch"
        );
        for (i, &w) in words.iter().enumerate() {
            f.store_word(i, w);
        }
    }

    /// Online per-slot Bloom saturation: popcount up to `max_filters`
    /// *non-empty* filters (front-to-back over the slot array — murmur
    /// spreads occupancy uniformly, so a prefix is an unbiased sample) and
    /// summarize their fill and live false-positive estimate. Untouched
    /// filters inside allocated segments are skipped: segment-grain
    /// allocation would otherwise dilute the sample with slots no event
    /// ever reached. Scrape-time cost only; never called on the access
    /// path.
    pub fn bloom_saturation(&self, max_filters: usize) -> crate::diagnostics::BloomSaturation {
        let mut sampled = 0usize;
        let mut fill_sum = 0.0f64;
        let mut fp_sum = 0.0f64;
        let mut max_fill = 0.0f64;
        for slot in 0..self.arena.n_filters() {
            if sampled >= max_filters {
                break;
            }
            let Some(f) = self.arena.filter(slot) else {
                continue;
            };
            let ones = f.count_ones();
            if ones == 0 {
                continue;
            }
            let fill = ones as f64 / self.geometry.m_bits as f64;
            fill_sum += fill;
            fp_sum += fill.powi(self.geometry.k as i32);
            max_fill = max_fill.max(fill);
            sampled += 1;
        }
        crate::diagnostics::BloomSaturation {
            filters_sampled: sampled,
            mean_fill: if sampled == 0 {
                0.0
            } else {
                fill_sum / sampled as f64
            },
            max_fill,
            est_fp_rate: if sampled == 0 {
                0.0
            } else {
                fp_sum / sampled as f64
            },
        }
    }
}

impl ReaderSet for ReadSignature {
    #[inline]
    fn insert(&self, addr: u64, tid: u32) {
        self.insert_hashed(addr, fmix64(addr), tid);
    }

    #[inline]
    fn contains(&self, addr: u64, tid: u32) -> bool {
        self.contains_hashed(addr, fmix64(addr), tid)
    }

    #[inline]
    fn clear_addr(&self, addr: u64) {
        self.clear_addr_hashed(addr, fmix64(addr));
    }

    #[inline]
    fn insert_hashed(&self, _addr: u64, h: u64, tid: u32) {
        let f = self
            .arena
            .filter_or_alloc(slot_of_hash(h, self.arena.n_filters()));
        self.set_tid(f, tid);
    }

    #[inline]
    fn contains_hashed(&self, _addr: u64, h: u64, tid: u32) -> bool {
        match self.arena.filter(slot_of_hash(h, self.arena.n_filters())) {
            Some(f) => self.has_tid(f, tid),
            None => false,
        }
    }

    /// One slot resolution and one word pass: each probe word is loaded
    /// once, coverage is tested against the precomputed tid mask, and the
    /// atomic OR fires only for words with missing bits — exactly
    /// `contains` + `insert` fused.
    #[inline]
    fn insert_contains_hashed(&self, _addr: u64, h: u64, tid: u32) -> bool {
        let f = self
            .arena
            .filter_or_alloc(slot_of_hash(h, self.arena.n_filters()));
        match self.tid_masks.get(tid as usize) {
            Some(m) => {
                let mut present = true;
                for (i, &mask) in m.masks[..m.n_words as usize].iter().enumerate() {
                    if mask != 0 && !f.word_covers(m.base_word as usize + i, mask) {
                        present = false;
                        f.or_word_missing(m.base_word as usize + i, mask);
                    }
                }
                present
            }
            None => {
                let (ha, hb) = hash_pair(tid as u64);
                let mut present = true;
                for i in 0..self.geometry.k {
                    present &= f.set_bit(self.geometry.probe_bit(ha, hb, i));
                }
                present
            }
        }
    }

    #[inline]
    fn clear_addr_hashed(&self, _addr: u64, h: u64) {
        if let Some(f) = self.arena.filter(slot_of_hash(h, self.arena.n_filters())) {
            f.clear();
        }
    }

    #[inline]
    fn prefetch(&self, h: u64) {
        self.arena.prefetch(slot_of_hash(h, self.arena.n_filters()));
    }

    fn memory_bytes(&self) -> usize {
        self.arena.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot::ARENA_SEGMENT_FILTERS;
    use std::sync::Arc;

    #[test]
    fn insert_contains_clear_cycle() {
        let sig = ReadSignature::new(1024, 8, 0.001);
        assert!(!sig.contains(0x1000, 3));
        sig.insert(0x1000, 3);
        assert!(sig.contains(0x1000, 3));
        assert!(!sig.contains(0x1000, 4));
        sig.clear_addr(0x1000);
        assert!(!sig.contains(0x1000, 3));
    }

    #[test]
    fn lazy_allocation_counts_filters() {
        let sig = ReadSignature::new(1 << 16, 8, 0.01);
        assert_eq!(sig.allocated_filters(), 0);
        let empty = sig.memory_bytes();
        for a in 0..100u64 {
            sig.insert(a * 640, 0); // spread across slots
        }
        assert!(sig.allocated_filters() > 0);
        // Segment-grain accounting: at most one whole segment per insert.
        assert!(sig.allocated_filters() <= 100 * ARENA_SEGMENT_FILTERS);
        assert!(sig.memory_bytes() > empty);
    }

    #[test]
    fn memory_is_bounded_by_slot_count() {
        let sig = ReadSignature::new(64, 8, 0.01);
        for a in 0..10_000u64 {
            sig.insert(a, (a % 8) as u32);
        }
        assert!(sig.allocated_filters() <= 64);
        let cap =
            64usize.div_ceil(ARENA_SEGMENT_FILTERS) * 8 + 64 * sig.geometry().bytes_per_filter();
        assert!(sig.memory_bytes() <= cap);
    }

    #[test]
    fn collisions_share_filters_but_keep_no_false_negatives() {
        // With one slot, every address aliases; membership inserted must
        // still be reported.
        let sig = ReadSignature::new(1, 16, 0.001);
        for a in 0..16u64 {
            sig.insert(a, a as u32);
        }
        for a in 0..16u64 {
            assert!(sig.contains(a, a as u32));
        }
        assert_eq!(sig.allocated_filters(), 1);
    }

    #[test]
    fn hashed_entry_points_match_plain_ones() {
        let sig = ReadSignature::new(1 << 10, 8, 0.001);
        let ref_sig = ReadSignature::new(1 << 10, 8, 0.001);
        let addrs: Vec<u64> = (0..500).map(|i| i * 24 + 0x4000).collect();
        for (i, &a) in addrs.iter().enumerate() {
            let tid = (i % 8) as u32;
            sig.insert_hashed(a, fmix64(a), tid);
            ref_sig.insert(a, tid);
        }
        for &a in &addrs {
            for tid in 0..8u32 {
                assert_eq!(
                    sig.contains_hashed(a, fmix64(a), tid),
                    ref_sig.contains(a, tid),
                    "divergence at addr {a:#x} tid {tid}"
                );
            }
        }
        sig.clear_addr_hashed(addrs[0], fmix64(addrs[0]));
        ref_sig.clear_addr(addrs[0]);
        for tid in 0..8u32 {
            assert_eq!(sig.contains(addrs[0], tid), ref_sig.contains(addrs[0], tid));
        }
    }

    #[test]
    fn masked_probes_set_exactly_the_canonical_probe_bits() {
        // The per-tid word masks must reproduce probe_bit's bit set
        // exactly — for single-block and multi-block geometries alike.
        for threads in [2usize, 8, 32, 64, 256] {
            let sig = ReadSignature::new(4, threads, 0.001);
            let g = sig.geometry();
            for tid in 0..threads as u32 {
                sig.insert(0x40, tid);
                let f = sig.arena.filter(slot_of_hash(fmix64(0x40), 4)).unwrap();
                let (ha, hb) = hash_pair(tid as u64);
                let expect: std::collections::BTreeSet<usize> =
                    (0..g.k).map(|i| g.probe_bit(ha, hb, i)).collect();
                let got: std::collections::BTreeSet<usize> =
                    (0..g.m_bits).filter(|&b| f.get_bit(b)).collect();
                assert_eq!(got, expect, "threads={threads} tid={tid}");
                assert!(sig.contains(0x40, tid));
                f.clear();
            }
        }
    }

    #[test]
    fn out_of_range_tids_fall_back_to_computed_hashes() {
        // tid ≥ threads misses the cache; answers must still be exact
        // (same derived-hash formula, computed on demand).
        let sig = ReadSignature::new(256, 4, 0.01);
        sig.insert(0x99, 4_000_000);
        assert!(sig.contains(0x99, 4_000_000));
        assert!(!sig.contains(0x99, 4_000_001) || sig.geometry().k < 2);
    }

    #[test]
    fn concurrent_insert_race_allocates_once_per_slot() {
        let sig = Arc::new(ReadSignature::new(4, 32, 0.001));
        let mut handles = Vec::new();
        for tid in 0..16u32 {
            let sig = Arc::clone(&sig);
            handles.push(std::thread::spawn(move || {
                for a in 0..1000u64 {
                    sig.insert(a, tid);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(sig.allocated_filters() <= 4);
        for tid in 0..16u32 {
            assert!(sig.contains(7, tid));
        }
    }
}
