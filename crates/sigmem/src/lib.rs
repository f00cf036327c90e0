//! # lc-sigmem — software signature memory
//!
//! The data-structure substrate of the loop-level communication profiler
//! (Mazaheri et al., ICPP 2015, §IV-D2): a fixed-size, lock-free
//! "signature memory" borrowed from transactional-memory systems that
//! records memory-access history in **bounded** space:
//!
//! * [`SlotSignature`] — a MurmurHash-indexed slot array; each slot holds
//!   the last writer (the paper's write signature) and the exact reader
//!   set its Bloom filter holds at FPRate 0.001 for t ≤ 211 (the read
//!   signature) in `w` 64-bit words, one cache line per access. Its words
//!   are shared between threads (live capture) or owned by one
//!   ([`OwnedSlotSignature`], an analyzer worker).
//! * [`PerfectSignature`] — the exact baseline used to quantify the
//!   signature's false-positive rate (§V-A3).
//! * [`mem_model`] — the closed-form footprint model (Eq. 2).
//!
//! Everything is implemented from scratch: [`murmur`] is a reference
//! MurmurHash3 with canonical test vectors. The paper's per-slot Bloom
//! filter over reader ids is not built: at its FPRate 0.001 it is exact for
//! t ≤ 211, which `tests/signature_vs_perfect.rs` checks against an inline
//! copy of its sizing and probe schedule.

#![warn(missing_docs)]

pub mod atomic_bits;
pub mod diagnostics;
pub mod mem_model;
pub mod murmur;
pub mod perfect;
pub mod slot;
pub mod slot_signature;
pub mod sync;
pub mod traits;

pub use diagnostics::SignatureHealth;
pub use murmur::{hash_block, HASH_BLOCK_LANES};
pub use perfect::{PerfectReaderSet, PerfectSignature, PerfectWriterMap};
pub use slot::{slot_index, slot_of_hash, SlotRouter};
pub use slot_signature::{
    slot_words, OwnedSlotSignature, OwnedWord, SharedWord, SlotSignature, SlotWord, TableTooLarge,
};
pub use traits::Signature;

/// Configuration of one signature.
///
/// ```
/// use lc_sigmem::{murmur::fmix64, Signature, SignatureConfig};
///
/// let cfg = SignatureConfig::paper_default(1 << 12, 8);
/// let sig = cfg.build();
///
/// sig.write(0x1000, fmix64(0x1000), 3);              // thread 3 wrote 0x1000
/// // Thread 5's first read sees writer 3; its second is no longer new.
/// assert_eq!(sig.read(0x1000, fmix64(0x1000), 5), (Some(3), false));
/// assert_eq!(sig.read(0x1000, fmix64(0x1000), 5), (Some(3), true));
///
/// // One 8-byte word per slot at t ≤ 32.
/// assert_eq!(cfg.memory_bytes(), (1 << 12) * 8);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SignatureConfig {
    /// Slot count (the paper's `n`).
    pub n_slots: usize,
    /// Number of application threads (sizes each slot's reader set).
    pub threads: usize,
}

impl SignatureConfig {
    /// The paper's experimental configuration scaled by `n_slots`. Its
    /// FPRate 0.001 needs no knob: for t ≤ 211 the Bloom filter it sizes
    /// holds exactly the reader set a slot holds (see
    /// [`slot_signature`]).
    pub fn paper_default(n_slots: usize, threads: usize) -> Self {
        Self { n_slots, threads }
    }

    /// Build the shared signature this configuration describes.
    pub fn build(&self) -> SlotSignature {
        SlotSignature::new(self.n_slots, self.threads)
    }

    /// Build the signature this configuration describes on words `W`, or
    /// the size of the table the host would not allocate.
    pub fn try_build<W: SlotWord>(&self) -> Result<SlotSignature<W>, TableTooLarge> {
        SlotSignature::try_new(self.n_slots, self.threads)
    }

    /// The footprint of the signature [`Self::build`] returns, in bytes:
    /// `n · 8 · w(t)` ([`mem_model::slot_signature_bytes`]).
    pub fn memory_bytes(&self) -> usize {
        mem_model::slot_signature_bytes(self.n_slots, self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builds_matching_signature() {
        let cfg = SignatureConfig::paper_default(1 << 12, 40);
        let sig = cfg.build();
        assert_eq!(sig.n_slots(), 1 << 12);
        assert_eq!(sig.words_per_slot(), 2);
        assert_eq!(sig.memory_bytes(), cfg.memory_bytes());
    }
}
