//! Lock-free fixed-size bit vector built on `AtomicU64` words.
//!
//! The reader bits of the signature (and the concurrent Bloom filter) need
//! a bit set that many application threads mutate simultaneously without
//! locks (the paper uses "C++11 lock-free primitives for implementing
//! signature memory arrays", §IV-D3). Setting a bit is a `fetch_or`;
//! reading is a plain load.
//!
//! Memory-ordering note: all operations use `Relaxed`. A racy read that misses a concurrent insert is
//! indistinguishable from the benign reordering the paper's design already
//! tolerates, and no other memory is published through these bits. What is
//! NOT optional is the atomicity of `fetch_or` itself: a load+store split
//! loses concurrent inserts, which the `bitvec-lost-update` mutant below
//! demonstrates under the model checker (DESIGN.md §11).

use crate::sync::{AtomicU64, Ordering};

/// Atomically OR `mask` into `word`, returning whether any masked bit was
/// already set. The single definition of "set a signature bit", shared by
/// [`AtomicBitVec`] and the reader bits of [`crate::SlotSignature`] so the
/// `bitvec-lost-update` fault mutant covers both.
#[inline]
pub(crate) fn fetch_or_bit(word: &AtomicU64, mask: u64) -> bool {
    // Fault mutant for the model checker: replace the atomic RMW with a
    // load+store pair, losing concurrent inserts. Only reachable inside a
    // simulation that asked for it; dead code otherwise.
    #[cfg(feature = "sched")]
    if lc_sched::mutant_active("bitvec-lost-update") {
        let prev = word.load(Ordering::Relaxed);
        word.store(prev | mask, Ordering::Relaxed);
        return prev & mask != 0;
    }
    word.fetch_or(mask, Ordering::Relaxed) & mask != 0
}

/// A fixed-size concurrent bit vector.
#[derive(Debug)]
pub struct AtomicBitVec {
    words: Box<[AtomicU64]>,
    n_bits: usize,
}

impl AtomicBitVec {
    /// Create a bit vector with `n_bits` bits, all zero. `n_bits` is rounded
    /// up to a multiple of 64.
    pub fn new(n_bits: usize) -> Self {
        let n_bits = n_bits.max(1).div_ceil(64) * 64;
        let words = (0..n_bits / 64).map(|_| AtomicU64::new(0)).collect();
        Self { words, n_bits }
    }

    /// Number of addressable bits.
    pub fn len(&self) -> usize {
        self.n_bits
    }

    /// True when the vector has zero capacity (never: capacity ≥ 64).
    pub fn is_empty(&self) -> bool {
        self.n_bits == 0
    }

    /// Atomically set bit `i`, returning whether it was previously set.
    #[inline]
    pub fn set(&self, i: usize) -> bool {
        debug_assert!(i < self.n_bits);
        fetch_or_bit(&self.words[i / 64], 1u64 << (i % 64))
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.n_bits);
        self.words[i / 64].load(Ordering::Relaxed) & (1u64 << (i % 64)) != 0
    }

    /// Zero every bit.
    pub fn clear(&self) {
        for w in self.words.iter() {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Population count across the whole vector.
    pub fn count_ones(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn set_get_roundtrip() {
        let v = AtomicBitVec::new(130);
        assert_eq!(v.len(), 192); // rounded to word multiple
        assert!(!v.get(129));
        assert!(!v.set(129));
        assert!(v.get(129));
        assert!(v.set(129)); // second set reports previously-set
    }

    #[test]
    fn clear_zeroes_everything() {
        let v = AtomicBitVec::new(64);
        for i in 0..64 {
            v.set(i);
        }
        assert_eq!(v.count_ones(), 64);
        v.clear();
        assert_eq!(v.count_ones(), 0);
    }

    #[test]
    fn concurrent_sets_all_land() {
        let v = Arc::new(AtomicBitVec::new(4096));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let v = Arc::clone(&v);
            handles.push(std::thread::spawn(move || {
                for i in 0..512 {
                    v.set((t * 512 + i) as usize);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(v.count_ones(), 4096);
    }

    #[test]
    fn minimum_capacity_is_one_word() {
        let v = AtomicBitVec::new(1);
        assert_eq!(v.len(), 64);
        assert_eq!(v.memory_bytes(), 8);
    }
}
