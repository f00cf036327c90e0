//! Hash-once slot routing — the single definition of "which signature slot
//! does this address live in".
//!
//! Both signature halves index their first-level slot arrays with
//! `fmix64(addr) % n_slots` (§IV-D2's MurmurHash indexing). The parallel
//! replay partitioner must agree with that mapping *exactly*: slot-sharded
//! replay is lossless only because every event that can touch a given slot
//! is routed to the same worker (DESIGN.md §10). Centralizing the mapping
//! here makes divergence a compile-time impossibility rather than a test
//! failure, and lets callers that need both the slot and the worker derive
//! them from one `fmix64` evaluation instead of two.

use crate::murmur::fmix64;
use crate::sync::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// The slot an address maps to in an `n_slots`-entry signature.
///
/// This is the indexing function of both [`crate::ReadSignature`] and
/// [`crate::WriteSignature`]; they call it rather than re-deriving it.
#[inline]
pub fn slot_index(addr: u64, n_slots: usize) -> usize {
    slot_of_hash(fmix64(addr), n_slots)
}

/// The slot a *pre-hashed* address maps to: `h % n_slots` with a mask fast
/// path for power-of-two slot counts (`h & (n − 1)` equals `h % n` exactly
/// when `n` is a power of two, so the mapping is byte-identical either way).
///
/// This is the hashed half of [`slot_index`]; batched callers that already
/// paid for `fmix64` (via [`crate::murmur::hash_block`]) route through it
/// directly instead of re-hashing per consultation.
#[inline]
pub fn slot_of_hash(h: u64, n_slots: usize) -> usize {
    debug_assert!(n_slots >= 1);
    if n_slots.is_power_of_two() {
        (h & (n_slots as u64 - 1)) as usize
    } else {
        (h % n_slots as u64) as usize
    }
}

/// Hash-once router from addresses to signature slots and replay workers.
///
/// ```
/// use lc_sigmem::SlotRouter;
///
/// let router = SlotRouter::new(1 << 12);
/// let (slot, worker) = router.route(0xdead_beef, 4);
/// assert_eq!(slot, router.slot(0xdead_beef));
/// assert_eq!(worker, slot % 4);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotRouter {
    n_slots: usize,
}

impl SlotRouter {
    /// Router for an `n_slots`-entry signature pair.
    pub fn new(n_slots: usize) -> Self {
        assert!(n_slots >= 1);
        Self { n_slots }
    }

    /// First-level slot count.
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }

    /// The signature slot `addr` maps to.
    #[inline]
    pub fn slot(&self, addr: u64) -> usize {
        slot_index(addr, self.n_slots)
    }

    /// The replay worker (of `jobs`) that owns `addr`'s slot. Workers own
    /// the residue classes `slot ≡ w (mod jobs)`, so all traffic to one
    /// slot lands on one worker.
    #[inline]
    pub fn worker(&self, addr: u64, jobs: usize) -> usize {
        debug_assert!(jobs >= 1);
        self.slot(addr) % jobs
    }

    /// Slot and worker from a single hash evaluation.
    #[inline]
    pub fn route(&self, addr: u64, jobs: usize) -> (usize, usize) {
        let slot = self.slot(addr);
        (slot, slot % jobs)
    }
}

/// Filters per arena segment. One segment allocation covers this many
/// consecutive slots, so a signature touching `f` slots performs at most
/// `⌈f / 64⌉`-ish allocations instead of `f`, and neighbouring slots' filter
/// bits live in one contiguous, 64-byte-aligned block of memory instead of
/// behind `f` independent heap pointers.
pub const ARENA_SEGMENT_FILTERS: usize = 64;

/// Words per 64-byte cache line of arena storage.
const WORDS_PER_LINE: usize = 8;

/// One 64-byte-aligned line of filter words. Alignment guarantees that a
/// power-of-two-sized filter (or one 512-bit block of a larger filter)
/// never straddles two cache lines — the property the blocked Bloom layout
/// exists to exploit.
#[repr(align(64))]
#[derive(Debug)]
struct Line {
    words: [AtomicU64; WORDS_PER_LINE],
}

impl Line {
    fn zeroed() -> Self {
        Self {
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Segmented arena backing the second-level filters of a read signature.
///
/// The previous layout hung one `Box<ConcurrentBloom>` off each occupied
/// slot: every filter was a separate heap object reached through a pointer
/// load, scattering the hot loop's working set across the allocator's whim
/// (DESIGN.md §12 measures the cost). The arena instead allocates filter
/// storage in segments of [`ARENA_SEGMENT_FILTERS`] consecutive slots —
/// one atomic-pointer indirection per *segment*, with every filter inside
/// a segment at a fixed, computable offset in one contiguous allocation.
///
/// Segments are allocated lazily on first insert and published with a
/// release-CAS, exactly like the per-slot pointers they replace (and
/// carrying the same `readsig-relaxed-publish` fault-mutant seam for the
/// model checker). A freshly published segment is all-zero, so an
/// untouched filter inside it behaves as an empty filter.
///
/// The trailing segment is sized to the leftover slot count (not rounded
/// up to a full segment), so `memory_bytes` stays a faithful upper bound
/// for small signatures too.
#[derive(Debug)]
pub struct FilterArena {
    segments: Box<[AtomicPtr<Line>]>,
    n_filters: usize,
    words_per_filter: usize,
    /// Filters in allocated segments — counted at segment grain on publish.
    allocated: AtomicUsize,
}

/// A borrowed view of one filter's words inside an allocated segment.
#[derive(Clone, Copy)]
pub struct FilterRef<'a> {
    lines: &'a [Line],
    first_word: usize,
    n_words: usize,
}

impl FilterRef<'_> {
    #[inline]
    fn word(&self, i: usize) -> &AtomicU64 {
        debug_assert!(i < self.n_words);
        let w = self.first_word + i;
        &self.lines[w / WORDS_PER_LINE].words[w % WORDS_PER_LINE]
    }

    /// Atomically set bit `bit` of this filter; returns the previous value.
    #[inline]
    pub fn set_bit(&self, bit: usize) -> bool {
        crate::atomic_bits::fetch_or_bit(self.word(bit / 64), 1u64 << (bit % 64))
    }

    /// Read bit `bit` of this filter.
    #[inline]
    pub fn get_bit(&self, bit: usize) -> bool {
        self.word(bit / 64).load(Ordering::Relaxed) & (1u64 << (bit % 64)) != 0
    }

    /// OR a whole probe `mask` into word `i`, skipping the RMW when every
    /// masked bit is already set. The final bit state is identical to
    /// setting each bit of the mask individually; the read-then-maybe-RMW
    /// shape trades one relaxed load for the (much more expensive) atomic
    /// on the common already-inserted path. A concurrent `clear` between
    /// the check and the skip mirrors the documented benign clear/insert
    /// race of the signature itself.
    #[inline]
    pub fn or_word_missing(&self, i: usize, mask: u64) {
        let w = self.word(i);
        if w.load(Ordering::Relaxed) & mask != mask {
            crate::atomic_bits::fetch_or_bit(w, mask);
        }
    }

    /// Whether every bit of `mask` is set in word `i`.
    #[inline]
    pub fn word_covers(&self, i: usize, mask: u64) -> bool {
        self.word(i).load(Ordering::Relaxed) & mask == mask
    }

    /// Zero every bit of this filter (and only this filter).
    pub fn clear(&self) {
        for i in 0..self.n_words {
            self.word(i).store(0, Ordering::Relaxed);
        }
    }

    /// Population count over this filter's words.
    pub fn count_ones(&self) -> usize {
        (0..self.n_words)
            .map(|i| self.word(i).load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Number of 64-bit words in this filter.
    pub fn n_words(&self) -> usize {
        self.n_words
    }

    /// Read word `i` — the checkpoint serialization path. A quiesced
    /// filter's words fully determine its membership answers.
    pub fn load_word(&self, i: usize) -> u64 {
        self.word(i).load(Ordering::Relaxed)
    }

    /// Overwrite word `i` — the checkpoint restore path (single-threaded
    /// by contract: restore happens before any profiling resumes).
    pub fn store_word(&self, i: usize, v: u64) {
        self.word(i).store(v, Ordering::Relaxed);
    }
}

impl FilterArena {
    /// Arena for `n_filters` filters of `words_per_filter` 64-bit words
    /// each. `words_per_filter` must be a power of two or a multiple of
    /// [`WORDS_PER_LINE`] words so filters never straddle a cache line
    /// boundary mid-block — both hold for every [`crate::BloomGeometry`].
    pub fn new(n_filters: usize, words_per_filter: usize) -> Self {
        assert!(n_filters > 0, "arena needs at least one filter");
        assert!(
            words_per_filter.is_power_of_two() || words_per_filter % WORDS_PER_LINE == 0,
            "filter size must be line-tileable, got {words_per_filter} words"
        );
        let n_segments = n_filters.div_ceil(ARENA_SEGMENT_FILTERS);
        let segments = (0..n_segments)
            .map(|_| AtomicPtr::new(std::ptr::null_mut()))
            .collect();
        Self {
            segments,
            n_filters,
            words_per_filter,
            allocated: AtomicUsize::new(0),
        }
    }

    /// Number of filters the arena addresses.
    pub fn n_filters(&self) -> usize {
        self.n_filters
    }

    /// Filters covered by segment `seg` (the last segment may be short).
    #[inline]
    fn seg_filters(&self, seg: usize) -> usize {
        ARENA_SEGMENT_FILTERS.min(self.n_filters - seg * ARENA_SEGMENT_FILTERS)
    }

    /// Lines one segment of `filters` filters occupies.
    #[inline]
    fn seg_lines(&self, filters: usize) -> usize {
        (filters * self.words_per_filter).div_ceil(WORDS_PER_LINE)
    }

    fn alloc_segment(&self, filters: usize) -> *mut Line {
        let lines: Box<[Line]> = (0..self.seg_lines(filters))
            .map(|_| Line::zeroed())
            .collect();
        Box::into_raw(lines) as *mut Line
    }

    #[inline]
    fn filter_at<'a>(&self, lines: &'a [Line], filter: usize) -> FilterRef<'a> {
        FilterRef {
            lines,
            first_word: (filter % ARENA_SEGMENT_FILTERS) * self.words_per_filter,
            n_words: self.words_per_filter,
        }
    }

    /// The filter for slot `filter`, if its segment has been allocated.
    #[inline]
    pub fn filter(&self, filter: usize) -> Option<FilterRef<'_>> {
        debug_assert!(filter < self.n_filters);
        let seg = filter / ARENA_SEGMENT_FILTERS;
        let p = self.segments[seg].load(Ordering::Acquire);
        if p.is_null() {
            return None;
        }
        // Safety: a non-null segment pointer was published by a release-CAS
        // after full construction and is never freed before `self` drops.
        let lines = unsafe { std::slice::from_raw_parts(p, self.seg_lines(self.seg_filters(seg))) };
        Some(self.filter_at(lines, filter))
    }

    /// The filter for slot `filter`, allocating (and racing to publish) its
    /// segment if absent. The losing allocation of a publish race is freed
    /// immediately.
    pub fn filter_or_alloc(&self, filter: usize) -> FilterRef<'_> {
        debug_assert!(filter < self.n_filters);
        let seg = filter / ARENA_SEGMENT_FILTERS;
        let seg_filters = self.seg_filters(seg);
        let slot = &self.segments[seg];
        // Fault mutant for the model checker: publish and consume the
        // segment pointer with `Relaxed` instead of release/acquire. Under
        // real hardware a consumer could then observe the pointer before
        // the segment's zeroed contents; the scheduler's vector-clock birth
        // check reports exactly that missing happens-before edge
        // (DESIGN.md §11).
        #[cfg(feature = "sched")]
        if lc_sched::mutant_active("readsig-relaxed-publish") {
            let p = slot.load(Ordering::Relaxed);
            if !p.is_null() {
                // Safety: mutant mirrors the correct path's lifetime rules.
                let lines = unsafe { std::slice::from_raw_parts(p, self.seg_lines(seg_filters)) };
                return self.filter_at(lines, filter);
            }
            let fresh = self.alloc_segment(seg_filters);
            let winner = match slot.compare_exchange(
                std::ptr::null_mut(),
                fresh,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.allocated.fetch_add(seg_filters, Ordering::Relaxed);
                    fresh
                }
                Err(winner) => {
                    // Safety: `fresh` was never shared; reclaim it.
                    drop(unsafe {
                        Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                            fresh,
                            self.seg_lines(seg_filters),
                        ))
                    });
                    winner
                }
            };
            // Safety: `winner` is the published pointer.
            let lines = unsafe { std::slice::from_raw_parts(winner, self.seg_lines(seg_filters)) };
            return self.filter_at(lines, filter);
        }
        let p = slot.load(Ordering::Acquire);
        let winner = if !p.is_null() {
            p
        } else {
            let fresh = self.alloc_segment(seg_filters);
            match slot.compare_exchange(
                std::ptr::null_mut(),
                fresh,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.allocated.fetch_add(seg_filters, Ordering::Relaxed);
                    fresh
                }
                Err(winner) => {
                    // Safety: `fresh` was never shared; reclaim it.
                    drop(unsafe {
                        Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                            fresh,
                            self.seg_lines(seg_filters),
                        ))
                    });
                    winner
                }
            }
        };
        // Safety: published pointers stay valid until `self` drops.
        let lines = unsafe { std::slice::from_raw_parts(winner, self.seg_lines(seg_filters)) };
        self.filter_at(lines, filter)
    }

    /// Prefetch the first cache line of slot `filter`'s storage into L1.
    /// A hint only: a no-op for unallocated segments and on non-x86 targets.
    #[inline]
    pub fn prefetch(&self, filter: usize) {
        debug_assert!(filter < self.n_filters);
        #[cfg(target_arch = "x86_64")]
        {
            let seg = filter / ARENA_SEGMENT_FILTERS;
            let p = self.segments[seg].load(Ordering::Acquire);
            if !p.is_null() {
                let w = (filter % ARENA_SEGMENT_FILTERS) * self.words_per_filter;
                // Safety: in-bounds line of a published segment; prefetch
                // has no memory effects beyond the cache.
                unsafe {
                    std::arch::x86_64::_mm_prefetch(
                        p.add(w / WORDS_PER_LINE) as *const i8,
                        std::arch::x86_64::_MM_HINT_T0,
                    );
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = filter;
    }

    /// Filters whose segment has been allocated (segment-grain accounting:
    /// publishing one segment counts all the filters it covers, touched or
    /// not — they all consume memory from that point on).
    pub fn allocated_filters(&self) -> usize {
        self.allocated.load(Ordering::Relaxed)
    }

    /// Heap footprint: one production-sized (8-byte) pointer per segment
    /// plus the filter words of every allocated segment. The literal 8
    /// keeps the figure matching Eq. 2 even when the `sched` feature swaps
    /// in the (physically larger) instrumented shim atomics.
    pub fn memory_bytes(&self) -> usize {
        self.segments.len() * 8 + self.allocated_filters() * self.words_per_filter * 8
    }
}

impl Drop for FilterArena {
    fn drop(&mut self) {
        for seg in 0..self.segments.len() {
            let p = self.segments[seg].swap(std::ptr::null_mut(), Ordering::AcqRel);
            if !p.is_null() {
                let lines = self.seg_lines(self.seg_filters(seg));
                // Safety: sole owner at drop time; pointer came from
                // Box::into_raw of a `lines`-long boxed slice.
                drop(unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(p, lines)) });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_index_matches_signature_indexing() {
        // The canonical mapping, spelled out: any drift here breaks the
        // slot-sharded replay correctness argument.
        for addr in [0u64, 1, 0x1000, u64::MAX, 0xdead_beef] {
            assert_eq!(slot_index(addr, 1024), (fmix64(addr) % 1024) as usize);
        }
    }

    #[test]
    fn router_agrees_with_slot_index() {
        let r = SlotRouter::new(1 << 10);
        for addr in (0..1000u64).map(|i| i * 8 + 0x1000) {
            assert_eq!(r.slot(addr), slot_index(addr, 1 << 10));
            for jobs in 1..=8 {
                let (slot, worker) = r.route(addr, jobs);
                assert_eq!(slot, r.slot(addr));
                assert_eq!(worker, slot % jobs);
                assert_eq!(worker, r.worker(addr, jobs));
                assert!(worker < jobs);
            }
        }
    }

    #[test]
    fn one_job_routes_everything_to_worker_zero() {
        let r = SlotRouter::new(64);
        for addr in 0..100u64 {
            assert_eq!(r.worker(addr, 1), 0);
        }
    }

    #[test]
    fn slot_of_hash_mask_path_equals_modulo() {
        for h in [0u64, 1, 0xdead_beef, u64::MAX, 0x0123_4567_89ab_cdef] {
            for n in [1usize, 2, 64, 1 << 16, 3, 100, 1000, (1 << 16) - 1] {
                assert_eq!(
                    slot_of_hash(h, n),
                    (h % n as u64) as usize,
                    "h={h:#x} n={n}"
                );
            }
        }
    }

    #[test]
    fn arena_bits_roundtrip_within_and_across_filters() {
        let a = FilterArena::new(10, 2); // 2 words = 128-bit filters
        assert_eq!(a.allocated_filters(), 0);
        assert!(a.filter(3).is_none());
        let f3 = a.filter_or_alloc(3);
        assert!(!f3.get_bit(77));
        assert!(!f3.set_bit(77));
        assert!(f3.get_bit(77));
        assert!(f3.set_bit(77)); // second set reports previously-set
                                 // Neighbouring filter in the same segment is untouched.
        let f4 = a.filter_or_alloc(4);
        assert!(!f4.get_bit(77));
        assert_eq!(f3.count_ones(), 1);
        f3.clear();
        assert!(!f3.get_bit(77));
    }

    #[test]
    fn allocation_is_segment_grained_with_short_tail() {
        // 130 filters = two full segments + a 2-filter tail.
        let a = FilterArena::new(130, 1);
        a.filter_or_alloc(0);
        assert_eq!(a.allocated_filters(), ARENA_SEGMENT_FILTERS);
        a.filter_or_alloc(63); // same segment: no new allocation
        assert_eq!(a.allocated_filters(), ARENA_SEGMENT_FILTERS);
        a.filter_or_alloc(129); // the short tail segment
        assert_eq!(a.allocated_filters(), ARENA_SEGMENT_FILTERS + 2);
        assert_eq!(a.memory_bytes(), 3 * 8 + (ARENA_SEGMENT_FILTERS + 2) * 8);
    }

    #[test]
    fn arena_storage_is_line_aligned() {
        let a = FilterArena::new(ARENA_SEGMENT_FILTERS, 8); // 512-bit filters
        let f = a.filter_or_alloc(0);
        let base = f.word(0) as *const _ as usize;
        assert_eq!(base % 64, 0, "segment base not 64-byte aligned");
        // Filter 5 starts exactly 5 lines in: contiguous, computable
        // offsets. Stride in `size_of::<Line>()` units because the sched
        // sync shim inflates the atomics (64 B only on the real build).
        let f5 = a.filter_or_alloc(5);
        assert_eq!(
            f5.word(0) as *const _ as usize - base,
            5 * std::mem::size_of::<Line>()
        );
        #[cfg(not(feature = "sched"))]
        assert_eq!(std::mem::size_of::<Line>(), 64, "one line per cache line");
    }

    /// The literals in `memory_bytes` are the layout the default build
    /// allocates: one pointer per segment plus 64 bytes per allocated
    /// line. (Line-sized filters, so no segment rounds up to a line.)
    /// Like the `size_of::<Line>()` assertion above this is compiled out
    /// of tier-1, which builds with the `sched` shims by construction;
    /// CI's lean `cargo test --release -p lc-sigmem …` step runs it.
    #[cfg(not(feature = "sched"))]
    #[test]
    fn arena_memory_bytes_is_the_allocated_layout() {
        let a = FilterArena::new(2 * ARENA_SEGMENT_FILTERS + 2, WORDS_PER_LINE);
        a.filter_or_alloc(0);
        a.filter_or_alloc(2 * ARENA_SEGMENT_FILTERS + 1); // the short tail
        let lines: usize = (0..a.segments.len())
            .filter(|&seg| !a.segments[seg].load(Ordering::Acquire).is_null())
            .map(|seg| a.seg_lines(a.seg_filters(seg)))
            .sum();
        assert_eq!(lines, ARENA_SEGMENT_FILTERS + 2);
        assert_eq!(
            a.memory_bytes(),
            a.segments.len() * std::mem::size_of::<AtomicPtr<Line>>() + lines * 64
        );
    }

    #[test]
    fn concurrent_alloc_race_publishes_one_segment() {
        use std::sync::Arc;
        let a = Arc::new(FilterArena::new(64, 1));
        let mut handles = Vec::new();
        for t in 0..8usize {
            let a = Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    a.filter_or_alloc(t * 7 % 64).set_bit(t);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.allocated_filters(), 64);
        for t in 0..8usize {
            assert!(a.filter(t * 7 % 64).unwrap().get_bit(t));
        }
    }
}
