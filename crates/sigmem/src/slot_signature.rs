//! The signature memory: one slot of `w` 64-bit words per hashed address
//! holds both the last writer and the exact reader set (DESIGN.md §12).
//!
//! Eq. 2 budgets a slot as a 4-byte last writer (the write signature of
//! Fig. 3b) plus a Bloom filter over the `t` reader thread ids (the read
//! signature of Fig. 3a). At the paper's FPRate 0.001 that filter never
//! answers wrongly for t ≤ 211: no thread id's probe set is covered by the
//! union of the others' (`tests/signature_vs_perfect.rs` pins both sides
//! of that boundary), so it holds exactly the reader set — in about 14·t
//! bits, on a cache line of its own. This layout keeps the same two facts
//! in one place:
//!
//! ```text
//! word 0   bits  0..32  last writer: tid + 1 (0 = none)
//!          bits 32..64  readers 0..32
//! word i   bits  0..64  readers 64·i − 32 .. 64·i + 32
//! ```
//!
//! `w` ([`slot_words`]) is the smallest power of two with `64·w ≥ 32 + t`:
//! one word for t ≤ 32, and a slot stays inside one 64-byte line up to
//! t = 480 (given a line-aligned table: large tables come from
//! page-aligned mappings, while a small one may be only 16-byte aligned,
//! which still holds slots of one or two words). Each access of
//! Algorithm 1 touches that one line:
//!
//! * **write** stores `tid + 1` to word 0 and zero to the others — for
//!   t ≤ 32 a single plain store records the writer and clears the readers
//!   together;
//! * **read** loads the word holding the reader's bit, tests it, and sets
//!   it only when it was missing.
//!
//! A thread id `≥ t` is never shifted or indexed: as a reader it is absent
//! and not recorded; as a writer it is recorded like any other (a tid of
//! `u32::MAX` has no `tid + 1` and reads back as "no writer").
//!
//! Distinct addresses hashing to one slot share its writer and readers —
//! the aliasing §V-A3 sweeps against signature size.
//!
//! How the missing reader bit is set is the word type's one decision
//! ([`SlotWord`], DESIGN.md §12.1). **Shared** words ([`SharedWord`],
//! `AtomicU64`) take any number of threads at once, as live capture does:
//! the bit goes in with one atomic `fetch_or` ([`crate::atomic_bits`]).
//! **Owned** words ([`OwnedWord`], `Cell<u64>`) belong to one thread at a
//! time, as every analyzer worker's do: the bit is a plain store of the
//! word just loaded. An [`OwnedSlotSignature`] is `!Sync`, so sharing one
//! between threads does not compile. Both hold the same bits, so
//! snapshots, restores and reports do not depend on the word type.

use std::cell::Cell;
use std::fmt;

use crate::atomic_bits::fetch_or_bit;
use crate::murmur::fmix64;
use crate::slot::slot_of_hash;
use crate::sync::{AtomicU64, Ordering};
use crate::traits::Signature;

/// Low bits of a slot's word 0 that hold the last writer.
const WRITER_BITS: usize = 32;

/// Words per slot for `threads` readers: the smallest power of two `w`
/// with `64·w ≥ 32 + threads`.
pub fn slot_words(threads: usize) -> usize {
    (WRITER_BITS + threads).div_ceil(64).next_power_of_two()
}

/// The writer a slot's word 0 records.
#[inline]
fn writer_of(head: u64) -> Option<u32> {
    (head as u32).checked_sub(1)
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::SharedWord {}
    impl Sealed for super::OwnedWord {}
}

/// One 64-bit word of a [`SlotSignature`]: [`SharedWord`] or
/// [`OwnedWord`], and no other type.
pub trait SlotWord: sealed::Sealed + Send + fmt::Debug {
    /// Whether the word is a plain `u64` cell in this build, so a table of
    /// them can come zeroed from the allocator.
    #[doc(hidden)]
    const PLAIN: bool;

    /// A word holding zero.
    fn zero() -> Self;

    /// The word's value.
    fn value(&self) -> u64;

    /// Overwrite the word.
    fn assign(&self, v: u64);

    /// Set `mask`, which the word read as `cur` lacked.
    fn or_bit(&self, cur: u64, mask: u64);
}

/// A word any number of threads may step at once.
pub type SharedWord = AtomicU64;

/// A word one thread at a time steps; `!Sync`.
pub type OwnedWord = Cell<u64>;

impl SlotWord for SharedWord {
    // The model checker's shim atomics are not plain words.
    const PLAIN: bool = cfg!(not(feature = "sched"));

    fn zero() -> Self {
        AtomicU64::new(0)
    }

    #[inline]
    fn value(&self) -> u64 {
        self.load(Ordering::Relaxed)
    }

    #[inline]
    fn assign(&self, v: u64) {
        self.store(v, Ordering::Relaxed)
    }

    /// One atomic `fetch_or`: a reader racing on the same word keeps its
    /// bit. `cur` may already be stale, so it is not reused.
    #[inline]
    fn or_bit(&self, _cur: u64, mask: u64) {
        fetch_or_bit(self, mask);
    }
}

impl SlotWord for OwnedWord {
    const PLAIN: bool = true;

    fn zero() -> Self {
        Cell::new(0)
    }

    #[inline]
    fn value(&self) -> u64 {
        self.get()
    }

    #[inline]
    fn assign(&self, v: u64) {
        self.set(v)
    }

    /// A plain store: no other thread can have changed the word since
    /// `cur` was loaded.
    #[inline]
    fn or_bit(&self, cur: u64, mask: u64) {
        self.set(cur | mask)
    }
}

/// A signature table the host would not allocate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableTooLarge {
    /// Slots asked for.
    pub n_slots: usize,
    /// Bytes asked for: `n_slots · 8 · w`.
    pub bytes: u128,
}

impl fmt::Display for TableTooLarge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot allocate a {}-byte signature table", self.bytes)
    }
}

impl std::error::Error for TableTooLarge {}

/// `n ≥ 1` zero words, or `None` when the allocator refuses. Plain words
/// come from the allocator already zeroed, so pages no access reaches are
/// never committed; on Linux the table's 2 MiB-aligned interior is then
/// offered to transparent huge pages, one TLB entry per 2 MiB instead of
/// 512.
fn zeroed_words<W: SlotWord>(n: usize) -> Option<Box<[W]>> {
    if !W::PLAIN {
        let mut words = Vec::new();
        words.try_reserve_exact(n).ok()?;
        words.extend((0..n).map(|_| W::zero()));
        return Some(words.into_boxed_slice());
    }
    const {
        assert!(
            !W::PLAIN
                || (std::mem::size_of::<W>() == std::mem::size_of::<u64>()
                    && std::mem::align_of::<W>() == std::mem::align_of::<u64>())
        )
    };
    let layout = std::alloc::Layout::array::<W>(n).ok()?;
    assert!(layout.size() > 0, "a signature has at least one word");
    // SAFETY: `layout` has a non-zero size.
    let ptr = unsafe { std::alloc::alloc_zeroed(layout) };
    if ptr.is_null() {
        return None;
    }
    advise_huge_pages(ptr, layout.size());
    // SAFETY: a plain word is a `u64` cell (`AtomicU64` in the lean build,
    // `Cell<u64>`) with the size and alignment asserted above, for which
    // all-zero bytes are the value 0. The block is `layout` from the global
    // allocator, so the returned box owns and frees it.
    Some(unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr.cast::<W>(), n)) })
}

/// Ask the kernel to back the 2 MiB-aligned interior of `len` bytes at
/// `ptr` with transparent huge pages (`MADV_HUGEPAGE`). Pages are still
/// committed on first touch; a kernel that declines leaves 4 KiB pages.
#[cfg(target_os = "linux")]
fn advise_huge_pages(ptr: *mut u8, len: usize) {
    use std::ffi::{c_int, c_void};
    const HUGE_PAGE: usize = 2 << 20;
    const MADV_HUGEPAGE: c_int = 14;
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    let head = ptr.align_offset(HUGE_PAGE);
    let body = len.saturating_sub(head) / HUGE_PAGE * HUGE_PAGE;
    if body > 0 {
        // SAFETY: `[ptr + head, ptr + head + body)` lies inside the live
        // allocation of `len` bytes at `ptr`. `MADV_HUGEPAGE` changes how
        // the kernel backs those pages, never their contents, and its
        // result is ignored: a refusal leaves them as they were.
        unsafe {
            madvise(ptr.add(head).cast(), body, MADV_HUGEPAGE);
        }
    }
}

#[cfg(not(target_os = "linux"))]
fn advise_huge_pages(_ptr: *mut u8, _len: usize) {}

/// `n_slots × w` words of last writers and reader bits, shared
/// ([`SharedWord`], the default) or owned ([`OwnedWord`]).
#[derive(Debug)]
pub struct SlotSignature<W: SlotWord = SharedWord> {
    words: Box<[W]>,
    n_slots: usize,
    threads: usize,
    /// `log2(w)`.
    shift: u32,
}

/// A signature one thread at a time steps: no atomic read-modify-write.
pub type OwnedSlotSignature = SlotSignature<OwnedWord>;

impl SlotSignature {
    /// A shared signature of `n_slots` slots (the paper's `n`) for
    /// `threads` reader ids. Panics when the host cannot hold the table;
    /// [`Self::try_new`] returns the error instead.
    pub fn new(n_slots: usize, threads: usize) -> Self {
        Self::try_new(n_slots, threads).unwrap_or_else(|e| panic!("{e}"))
    }
}

impl<W: SlotWord> SlotSignature<W> {
    /// A signature of `n_slots` slots for `threads` reader ids, or the
    /// size of the table the allocator refused.
    pub fn try_new(n_slots: usize, threads: usize) -> Result<Self, TableTooLarge> {
        assert!(n_slots > 0, "signature needs at least one slot");
        let w = slot_words(threads);
        let words = n_slots
            .checked_mul(w)
            .and_then(zeroed_words)
            .ok_or(TableTooLarge {
                n_slots,
                bytes: n_slots as u128 * w as u128 * 8,
            })?;
        Ok(Self {
            words,
            n_slots,
            threads,
            shift: w.trailing_zeros(),
        })
    }

    /// Number of slots.
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }

    /// 64-bit words per slot (`w`).
    pub fn words_per_slot(&self) -> usize {
        1 << self.shift
    }

    /// First word of the slot for hash `h`.
    #[inline]
    fn base(&self, h: u64) -> usize {
        slot_of_hash(h, self.n_slots) << self.shift
    }

    /// The words of slot `slot`.
    fn slot(&self, slot: usize) -> &[W] {
        &self.words[slot << self.shift..(slot + 1) << self.shift]
    }

    /// Word offset and mask of reader `tid`'s bit; `None` for `tid ≥ t`.
    #[inline]
    fn reader_bit(&self, tid: u32) -> Option<(usize, u64)> {
        let tid = tid as usize;
        (tid < self.threads).then(|| {
            let bit = WRITER_BITS + tid;
            (bit / 64, 1u64 << (bit % 64))
        })
    }

    /// The last writer recorded in `addr`'s slot (diagnostic: a query that
    /// records nothing).
    pub fn last_writer(&self, addr: u64) -> Option<u32> {
        writer_of(self.words[self.base(fmix64(addr))].value())
    }

    /// Whether `tid` is in the reader set of `addr`'s slot (diagnostic).
    pub fn has_reader(&self, addr: u64, tid: u32) -> bool {
        self.reader_bit(tid)
            .is_some_and(|(i, mask)| self.words[self.base(fmix64(addr)) + i].value() & mask != 0)
    }

    /// Slots holding a writer (diagnostic; O(n)).
    pub fn write_occupied(&self) -> usize {
        (0..self.n_slots)
            .filter(|&s| writer_of(self.slot(s)[0].value()).is_some())
            .count()
    }

    /// Slots holding at least one reader (diagnostic; O(n·w)).
    pub fn read_occupied(&self) -> usize {
        (0..self.n_slots)
            .filter(|&s| {
                let words = self.slot(s);
                words[0].value() >> WRITER_BITS != 0 || words[1..].iter().any(|w| w.value() != 0)
            })
            .count()
    }

    /// [`Self::write_occupied`] and [`Self::read_occupied`] in one pass
    /// over the words (diagnostic; O(n·w)).
    pub fn occupied(&self) -> (usize, usize) {
        let (mut write, mut read) = (0, 0);
        for slot in self.words.chunks_exact(1 << self.shift) {
            let head = slot[0].value();
            let readers = (slot[1..].iter()).fold(head >> WRITER_BITS, |acc, w| acc | w.value());
            write += usize::from(head as u32 != 0);
            read += usize::from(readers != 0);
        }
        (write, read)
    }

    /// Every occupied slot as `(slot, words)`, slot-ascending. An all-zero
    /// slot is omitted: it answers exactly like a fresh one, so this list
    /// plus `(n_slots, threads)` reproduces the signature — the checkpoint
    /// serialization contract.
    pub fn snapshot_slots(&self) -> Vec<(u64, Vec<u64>)> {
        (0..self.n_slots)
            .filter(|&s| self.slot(s).iter().any(|w| w.value() != 0))
            .map(|s| (s as u64, self.slot(s).iter().map(W::value).collect()))
            .collect()
    }

    /// Overwrite one slot's words, the inverse of [`Self::snapshot_slots`].
    /// Single-threaded by contract: restore happens before profiling
    /// resumes.
    pub fn restore_slot(&self, slot: usize, words: &[u64]) {
        let dst = self.slot(slot);
        assert_eq!(words.len(), dst.len(), "checkpoint slot width mismatch");
        for (d, &w) in dst.iter().zip(words) {
            d.assign(w);
        }
    }
}

impl<W: SlotWord> Signature for SlotSignature<W> {
    #[inline]
    fn read(&self, _addr: u64, h: u64, tid: u32) -> (Option<u32>, bool) {
        let base = self.base(h);
        let head = self.words[base].value();
        let writer = writer_of(head);
        let Some((i, mask)) = self.reader_bit(tid) else {
            return (writer, false);
        };
        let word = &self.words[base + i];
        let cur = if i == 0 { head } else { word.value() };
        let seen = cur & mask != 0;
        if !seen {
            word.or_bit(cur, mask);
        }
        (writer, seen)
    }

    #[inline]
    fn write(&self, _addr: u64, h: u64, tid: u32) {
        let base = self.base(h);
        self.words[base].assign(u64::from(tid.wrapping_add(1)));
        for w in &self.words[base + 1..base + (1 << self.shift)] {
            w.assign(0);
        }
    }

    /// `n · 8 · w`: the whole table, counted at the 8 bytes a word takes
    /// in the default build (the `sched` shims' larger cells included).
    fn memory_bytes(&self) -> usize {
        self.words.len() * 8
    }

    #[inline]
    fn prefetch(&self, h: u64) {
        #[cfg(target_arch = "x86_64")]
        {
            let word = &self.words[self.base(h)];
            // SAFETY: in-bounds shared reference cast; prefetch has no
            // memory effects beyond the cache.
            unsafe {
                std::arch::x86_64::_mm_prefetch(
                    std::ptr::from_ref(word) as *const i8,
                    std::arch::x86_64::_MM_HINT_T0,
                );
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = h;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use proptest::prelude::*;

    fn read<W: SlotWord>(sig: &SlotSignature<W>, addr: u64, tid: u32) -> (Option<u32>, bool) {
        sig.read(addr, fmix64(addr), tid)
    }

    fn write<W: SlotWord>(sig: &SlotSignature<W>, addr: u64, tid: u32) {
        sig.write(addr, fmix64(addr), tid)
    }

    fn owned(n_slots: usize, threads: usize) -> OwnedSlotSignature {
        OwnedSlotSignature::try_new(n_slots, threads).expect("small table")
    }

    #[test]
    fn slot_width_is_the_smallest_power_of_two_holding_writer_and_readers() {
        for (t, w) in [
            (1, 1),
            (32, 1),
            (33, 2),
            (96, 2),
            (97, 4),
            (224, 4),
            (225, 8),
            (480, 8),
            (481, 16),
        ] {
            assert_eq!(slot_words(t), w, "t = {t}");
        }
    }

    #[test]
    fn read_reports_writer_and_first_read_then_write_clears_readers() {
        for threads in [8usize, 40, 200] {
            let sig = SlotSignature::new(1024, threads);
            let last = threads as u32 - 1;
            assert_eq!(read(&sig, 0x10, last), (None, false));
            assert_eq!(read(&sig, 0x10, last), (None, true));
            write(&sig, 0x10, 0);
            assert!(!sig.has_reader(0x10, last), "t = {threads}");
            assert_eq!(read(&sig, 0x10, last), (Some(0), false));
            assert_eq!(read(&sig, 0x10, last), (Some(0), true));
            assert_eq!(read(&sig, 0x10, 1), (Some(0), false));
            assert_eq!(sig.last_writer(0x10), Some(0));
            assert_eq!(sig.write_occupied(), 1);
            assert_eq!(sig.read_occupied(), 1);
        }
    }

    #[test]
    fn one_slot_aliases_every_address() {
        let sig = SlotSignature::new(1, 4);
        write(&sig, 0x10, 3);
        assert_eq!(sig.last_writer(0x9999), Some(3));
        read(&sig, 0x10, 1);
        assert!(sig.has_reader(0x9999, 1));
    }

    /// A tid at or past `t` is never shifted or indexed: as a reader it is
    /// absent and unrecorded, as a writer it is recorded — at one word per
    /// slot and at two.
    #[test]
    fn wild_tids_are_absent_readers_and_recorded_writers() {
        fn check<W: SlotWord>(sig: SlotSignature<W>, tid: u32) {
            write(&sig, 0x40, 2);
            assert_eq!(read(&sig, 0x40, tid), (Some(2), false), "tid {tid}");
            assert_eq!(read(&sig, 0x40, tid), (Some(2), false), "tid {tid}");
            assert!(!sig.has_reader(0x40, tid));
            assert_eq!(sig.read_occupied(), 0, "tid {tid} set a reader bit");
            write(&sig, 0x40, tid);
            assert_eq!(sig.last_writer(0x40), Some(tid), "tid {tid}");
            assert_eq!(read(&sig, 0x40, 0), (Some(tid), false));
        }
        for threads in [8usize, 40] {
            let w = slot_words(threads);
            assert_eq!(w, if threads == 8 { 1 } else { 2 });
            for tid in [threads as u32, 63, 64, u32::MAX - 1] {
                check(SlotSignature::new(16, threads), tid);
                check(owned(16, threads), tid);
            }
        }
    }

    proptest! {
        /// The one-pass counts equal the two scans at 1, 2 and 4 words per
        /// slot, on words that are zero, writer bits only, reader bits
        /// only, or both, at random.
        #[test]
        fn occupancy_in_one_pass_equals_the_two_scans(
            words in prop::collection::vec((any::<u64>(), 0usize..4), 64 * 4),
        ) {
            const HALVES: [u64; 4] = [0, 0xFFFF_FFFF, !0xFFFF_FFFF, u64::MAX];
            for (threads, w) in [(8, 1), (40, 2), (200, 4)] {
                let sig = owned(64, threads);
                prop_assert_eq!(sig.words_per_slot(), w);
                for (word, &(v, keep)) in sig.words.iter().zip(&words) {
                    word.assign(v & HALVES[keep]);
                }
                prop_assert_eq!(sig.occupied(), (sig.write_occupied(), sig.read_occupied()));
            }
        }
    }

    #[test]
    fn snapshot_restores_an_identical_signature() {
        let sig = SlotSignature::new(64, 40);
        for a in 0..50u64 {
            if a % 3 == 0 {
                write(&sig, a * 8, (a % 40) as u32);
            }
            read(&sig, a * 8, (a * 7 % 40) as u32);
        }
        let snap = sig.snapshot_slots();
        assert!(snap.iter().all(|(_, words)| words.len() == 2));
        let back = SlotSignature::new(64, 40);
        for (slot, words) in &snap {
            back.restore_slot(*slot as usize, words);
        }
        assert_eq!(back.snapshot_slots(), snap);
    }

    #[test]
    fn memory_is_eight_bytes_per_word() {
        assert_eq!(SlotSignature::new(10_000, 8).memory_bytes(), 80_000);
        assert_eq!(SlotSignature::new(10_000, 40).memory_bytes(), 160_000);
        assert_eq!(owned(10_000, 40).memory_bytes(), 160_000);
    }

    /// A table no host holds is an error naming its size, not an abort.
    #[test]
    fn an_unallocatable_table_is_an_error() {
        let too_big = usize::MAX / 64;
        let e = OwnedSlotSignature::try_new(too_big, 1024).unwrap_err();
        assert_eq!(e.n_slots, too_big);
        assert_eq!(e.bytes, too_big as u128 * 32 * 8);
        assert!(e.to_string().contains(&e.bytes.to_string()), "{e}");
        assert!(SlotSignature::<SharedWord>::try_new(too_big, 8).is_err());
    }

    /// The `8` of `memory_bytes` is the word the default build allocates,
    /// so the figure the CLI prints is the bytes it holds. Tier-1
    /// (`cargo test` at the workspace root) compiles this crate with the
    /// `sched` shims by construction and never sees this test; CI's lean
    /// `cargo test --release -p lc-sigmem …` step runs it.
    #[cfg(not(feature = "sched"))]
    #[test]
    fn memory_bytes_is_the_allocated_table() {
        let sig = SlotSignature::new(10_000, 40);
        assert_eq!(sig.memory_bytes(), std::mem::size_of_val(&*sig.words));
        let sig = owned(1 << 20, 8);
        assert_eq!(sig.memory_bytes(), std::mem::size_of_val(&*sig.words));
    }

    #[test]
    fn concurrent_readers_are_never_lost() {
        let sig = Arc::new(SlotSignature::new(4, 16));
        std::thread::scope(|s| {
            for tid in 0..16u32 {
                let sig = Arc::clone(&sig);
                s.spawn(move || {
                    for a in 0..1000u64 {
                        read(&sig, a, tid);
                    }
                });
            }
        });
        for tid in 0..16u32 {
            assert!(sig.has_reader(7, tid));
        }
    }

    /// One step of a random stream: `(write?, address index, tid index)`.
    type Step = (bool, u64, usize);

    /// Run `steps` through a shared and an owned signature of `threads`
    /// readers side by side: every reply and the final snapshot agree.
    /// Tid indices past `threads` pick the wild ids `t`, 63, 64,
    /// `u32::MAX − 1` and `u32::MAX`.
    fn owned_matches_shared(threads: usize, steps: &[Step]) -> Result<(), TestCaseError> {
        let wild = [threads as u32, 63, 64, u32::MAX - 1, u32::MAX];
        let shared = SlotSignature::new(64, threads);
        let owned = owned(64, threads);
        for &(is_write, a, t) in steps {
            let addr = 0x1000 + a * 8;
            let tid = if t < threads {
                t as u32
            } else {
                wild[t - threads]
            };
            if is_write {
                write(&shared, addr, tid);
                write(&owned, addr, tid);
            } else {
                prop_assert_eq!(read(&shared, addr, tid), read(&owned, addr, tid));
            }
        }
        prop_assert_eq!(shared.snapshot_slots(), owned.snapshot_slots());
        Ok(())
    }

    proptest! {
        /// One-word slots (t = 8): 200 addresses over 64 slots, so slots
        /// alias too.
        #[test]
        fn owned_words_answer_like_shared_words_at_one_word(
            steps in prop::collection::vec((any::<bool>(), 0u64..200, 0usize..13), 1..600),
        ) {
            owned_matches_shared(8, &steps)?;
        }

        /// Two-word slots (t = 40).
        #[test]
        fn owned_words_answer_like_shared_words_at_two_words(
            steps in prop::collection::vec((any::<bool>(), 0u64..200, 0usize..45), 1..600),
        ) {
            owned_matches_shared(40, &steps)?;
        }
    }
}
