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
//! * **read** loads the word holding the reader's bit, tests it, and ORs
//!   it in ([`crate::atomic_bits`]) only when it was missing.
//!
//! A thread id `≥ t` is never shifted or indexed: as a reader it is absent
//! and not recorded; as a writer it is recorded like any other (a tid of
//! `u32::MAX` has no `tid + 1` and reads back as "no writer").
//!
//! Distinct addresses hashing to one slot share its writer and readers —
//! the aliasing §V-A3 sweeps against signature size.

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

/// `n` zero words. The lean build takes them from the allocator already
/// zeroed, so pages no access reaches are never committed.
#[cfg(not(feature = "sched"))]
fn zeroed_words(n: usize) -> Box<[AtomicU64]> {
    const _: () = assert!(
        std::mem::size_of::<AtomicU64>() == std::mem::size_of::<u64>()
            && std::mem::align_of::<AtomicU64>() == std::mem::align_of::<u64>()
    );
    let words = Box::into_raw(vec![0u64; n].into_boxed_slice());
    // SAFETY: `AtomicU64` has the size and bit validity of `u64`, and the
    // alignment asserted above, so the allocation is a valid `[AtomicU64]`
    // of the same layout, owned by the returned box alone.
    unsafe { Box::from_raw(words as *mut [AtomicU64]) }
}

/// The model checker's shim atomics are not plain words; build them.
#[cfg(feature = "sched")]
fn zeroed_words(n: usize) -> Box<[AtomicU64]> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

/// `n_slots × w` words of last writers and reader bits.
#[derive(Debug)]
pub struct SlotSignature {
    words: Box<[AtomicU64]>,
    n_slots: usize,
    threads: usize,
    /// `log2(w)`.
    shift: u32,
}

impl SlotSignature {
    /// A signature of `n_slots` slots (the paper's `n`) for `threads`
    /// reader ids.
    pub fn new(n_slots: usize, threads: usize) -> Self {
        assert!(n_slots > 0, "signature needs at least one slot");
        let w = slot_words(threads);
        Self {
            words: zeroed_words(
                n_slots
                    .checked_mul(w)
                    .expect("signature size overflows usize"),
            ),
            n_slots,
            threads,
            shift: w.trailing_zeros(),
        }
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
    fn slot(&self, slot: usize) -> &[AtomicU64] {
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
        writer_of(self.words[self.base(fmix64(addr))].load(Ordering::Relaxed))
    }

    /// Whether `tid` is in the reader set of `addr`'s slot (diagnostic).
    pub fn has_reader(&self, addr: u64, tid: u32) -> bool {
        self.reader_bit(tid).is_some_and(|(i, mask)| {
            self.words[self.base(fmix64(addr)) + i].load(Ordering::Relaxed) & mask != 0
        })
    }

    /// Slots holding a writer (diagnostic; O(n)).
    pub fn write_occupied(&self) -> usize {
        (0..self.n_slots)
            .filter(|&s| writer_of(self.slot(s)[0].load(Ordering::Relaxed)).is_some())
            .count()
    }

    /// Slots holding at least one reader (diagnostic; O(n·w)).
    pub fn read_occupied(&self) -> usize {
        (0..self.n_slots)
            .filter(|&s| {
                let words = self.slot(s);
                words[0].load(Ordering::Relaxed) >> WRITER_BITS != 0
                    || words[1..].iter().any(|w| w.load(Ordering::Relaxed) != 0)
            })
            .count()
    }

    /// Every occupied slot as `(slot, words)`, slot-ascending. An all-zero
    /// slot is omitted: it answers exactly like a fresh one, so this list
    /// plus `(n_slots, threads)` reproduces the signature — the checkpoint
    /// serialization contract.
    pub fn snapshot_slots(&self) -> Vec<(u64, Vec<u64>)> {
        let load = |w: &AtomicU64| w.load(Ordering::Relaxed);
        (0..self.n_slots)
            .filter(|&s| self.slot(s).iter().any(|w| load(w) != 0))
            .map(|s| (s as u64, self.slot(s).iter().map(load).collect()))
            .collect()
    }

    /// Overwrite one slot's words, the inverse of [`Self::snapshot_slots`].
    /// Single-threaded by contract: restore happens before profiling
    /// resumes.
    pub fn restore_slot(&self, slot: usize, words: &[u64]) {
        let dst = self.slot(slot);
        assert_eq!(words.len(), dst.len(), "checkpoint slot width mismatch");
        for (d, &w) in dst.iter().zip(words) {
            d.store(w, Ordering::Relaxed);
        }
    }
}

impl Signature for SlotSignature {
    #[inline]
    fn read(&self, _addr: u64, h: u64, tid: u32) -> (Option<u32>, bool) {
        let base = self.base(h);
        let head = self.words[base].load(Ordering::Relaxed);
        let writer = writer_of(head);
        let Some((i, mask)) = self.reader_bit(tid) else {
            return (writer, false);
        };
        let word = &self.words[base + i];
        let cur = if i == 0 {
            head
        } else {
            word.load(Ordering::Relaxed)
        };
        let seen = cur & mask != 0;
        if !seen {
            fetch_or_bit(word, mask);
        }
        (writer, seen)
    }

    #[inline]
    fn write(&self, _addr: u64, h: u64, tid: u32) {
        let base = self.base(h);
        self.words[base].store(u64::from(tid.wrapping_add(1)), Ordering::Relaxed);
        for w in &self.words[base + 1..base + (1 << self.shift)] {
            w.store(0, Ordering::Relaxed);
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

    fn read(sig: &SlotSignature, addr: u64, tid: u32) -> (Option<u32>, bool) {
        sig.read(addr, fmix64(addr), tid)
    }

    fn write(sig: &SlotSignature, addr: u64, tid: u32) {
        sig.write(addr, fmix64(addr), tid)
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
        for threads in [8usize, 40] {
            let w = slot_words(threads);
            assert_eq!(w, if threads == 8 { 1 } else { 2 });
            for tid in [threads as u32, 63, 64, u32::MAX - 1] {
                let sig = SlotSignature::new(16, threads);
                write(&sig, 0x40, 2);
                assert_eq!(read(&sig, 0x40, tid), (Some(2), false), "tid {tid}");
                assert_eq!(read(&sig, 0x40, tid), (Some(2), false), "tid {tid}");
                assert!(!sig.has_reader(0x40, tid));
                assert_eq!(sig.read_occupied(), 0, "tid {tid} set a reader bit");
                write(&sig, 0x40, tid);
                assert_eq!(sig.last_writer(0x40), Some(tid), "tid {tid}");
                assert_eq!(read(&sig, 0x40, 0), (Some(tid), false));
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
}
