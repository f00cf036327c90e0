//! One-level write signature (Fig. 3b of the paper).
//!
//! A fixed array of `n` 4-byte slots indexed by a MurmurHash of the address.
//! Each slot stores "the last thread number which accessed the relevant
//! memory location" (§IV-D2). Distinct addresses hashing to the same slot
//! alias each other — this is the controlled false-positive source whose
//! rate §V-A3 sweeps against signature size.

use crate::slot::slot_of_hash;
use crate::sync::{AtomicU32, Ordering};
use crate::traits::WriterMap;

/// Sentinel meaning "no writer recorded"; thread ids are stored as `tid+1`.
const EMPTY: u32 = 0;

/// The one-level concurrent write signature.
#[derive(Debug)]
pub struct WriteSignature {
    slots: Box<[AtomicU32]>,
}

impl WriteSignature {
    /// Create a signature with `n_slots` slots (the paper's `n`, 4 bytes
    /// each — the `4` term of Eq. 2).
    pub fn new(n_slots: usize) -> Self {
        assert!(n_slots > 0, "signature needs at least one slot");
        let slots = (0..n_slots).map(|_| AtomicU32::new(EMPTY)).collect();
        Self { slots }
    }

    /// Slot index for an address (the shared routing of [`crate::slot`],
    /// so the replay partitioner can never disagree).
    #[inline]
    fn slot_index(&self, addr: u64) -> usize {
        crate::slot::slot_index(addr, self.slots.len())
    }

    /// Number of slots.
    pub fn n_slots(&self) -> usize {
        self.slots.len()
    }

    /// How many slots currently hold a writer (diagnostic; O(n)).
    pub fn occupied(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.load(Ordering::Relaxed) != EMPTY)
            .count()
    }

    /// Snapshot every occupied slot as `(slot, raw value)`, slot-ascending.
    /// Raw values (`tid + 1`) round-trip exactly; empty slots are omitted
    /// — the checkpoint serialization contract.
    pub fn snapshot_slots(&self) -> Vec<(u64, u32)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s.load(Ordering::Relaxed) {
                EMPTY => None,
                v => Some((i as u64, v)),
            })
            .collect()
    }

    /// Restore one slot's raw value, the inverse of
    /// [`Self::snapshot_slots`]. Single-threaded by contract: restore
    /// happens before profiling resumes.
    pub fn restore_slot_raw(&self, slot: usize, raw: u32) {
        self.slots[slot].store(raw, Ordering::Relaxed);
    }
}

impl WriterMap for WriteSignature {
    #[inline]
    fn record(&self, addr: u64, tid: u32) {
        debug_assert!(tid < u32::MAX, "thread id overflow");
        self.slots[self.slot_index(addr)].store(tid + 1, Ordering::Relaxed);
    }

    #[inline]
    fn last_writer(&self, addr: u64) -> Option<u32> {
        match self.slots[self.slot_index(addr)].load(Ordering::Relaxed) {
            EMPTY => None,
            v => Some(v - 1),
        }
    }

    fn memory_bytes(&self) -> usize {
        self.slots.len() * 4
    }

    #[inline]
    fn record_hashed(&self, _addr: u64, h: u64, tid: u32) {
        debug_assert!(tid < u32::MAX, "thread id overflow");
        self.slots[slot_of_hash(h, self.slots.len())].store(tid + 1, Ordering::Relaxed);
    }

    #[inline]
    fn last_writer_hashed(&self, _addr: u64, h: u64) -> Option<u32> {
        match self.slots[slot_of_hash(h, self.slots.len())].load(Ordering::Relaxed) {
            EMPTY => None,
            v => Some(v - 1),
        }
    }

    #[inline]
    fn prefetch(&self, h: u64) {
        #[cfg(target_arch = "x86_64")]
        {
            let slot = slot_of_hash(h, self.slots.len());
            // Safety: in-bounds shared reference cast; prefetch has no
            // memory effects beyond the cache.
            unsafe {
                std::arch::x86_64::_mm_prefetch(
                    std::ptr::from_ref(&self.slots[slot]) as *const i8,
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

    #[test]
    fn record_then_query() {
        let sig = WriteSignature::new(1024);
        assert_eq!(sig.last_writer(0xabc), None);
        sig.record(0xabc, 7);
        assert_eq!(sig.last_writer(0xabc), Some(7));
        sig.record(0xabc, 9);
        assert_eq!(sig.last_writer(0xabc), Some(9));
    }

    #[test]
    fn tid_zero_is_distinguishable_from_empty() {
        let sig = WriteSignature::new(64);
        sig.record(0x10, 0);
        assert_eq!(sig.last_writer(0x10), Some(0));
    }

    #[test]
    fn aliasing_is_possible_with_tiny_signature() {
        // One slot: every address shares the writer — the documented FP mode.
        let sig = WriteSignature::new(1);
        sig.record(0x10, 3);
        assert_eq!(sig.last_writer(0x9999), Some(3));
    }

    #[test]
    fn memory_is_four_bytes_per_slot() {
        let sig = WriteSignature::new(10_000);
        assert_eq!(sig.memory_bytes(), 40_000);
    }

    /// The literal `4` of Eq. 2 is the slot the default build allocates,
    /// so the figure the CLI prints is the bytes it holds. Tier-1
    /// (`cargo test` at the workspace root) compiles this crate with the
    /// `sched` shims by construction and never sees this test; CI's lean
    /// `cargo test --release -p lc-sigmem …` step runs it.
    #[cfg(not(feature = "sched"))]
    #[test]
    fn memory_bytes_is_the_allocated_slot_array() {
        let sig = WriteSignature::new(10_000);
        assert_eq!(sig.memory_bytes(), std::mem::size_of_val(&*sig.slots));
    }

    #[test]
    fn hashed_entry_points_match_plain_ones() {
        use crate::murmur::fmix64;
        let sig = WriteSignature::new(1000); // non-power-of-two: modulo path
        let pow2 = WriteSignature::new(1024); // power-of-two: mask path
        for i in 0..500u64 {
            let a = i * 56 + 0x8000;
            sig.record_hashed(a, fmix64(a), (i % 7) as u32);
            pow2.record(a, (i % 7) as u32);
        }
        for i in 0..500u64 {
            let a = i * 56 + 0x8000;
            assert_eq!(sig.last_writer_hashed(a, fmix64(a)), sig.last_writer(a));
            assert_eq!(pow2.last_writer_hashed(a, fmix64(a)), pow2.last_writer(a));
        }
    }

    #[test]
    fn concurrent_records_leave_some_valid_writer() {
        let sig = Arc::new(WriteSignature::new(256));
        let mut handles = Vec::new();
        for tid in 0..8u32 {
            let sig = Arc::clone(&sig);
            handles.push(std::thread::spawn(move || {
                for a in 0..1000u64 {
                    sig.record(a, tid);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for a in 0..1000u64 {
            let w = sig.last_writer(a).expect("writer recorded");
            assert!(w < 8);
        }
    }
}
