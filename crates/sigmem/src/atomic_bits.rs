//! The one lock-free "set a signature bit" primitive, on `AtomicU64` words.
//!
//! The reader bits of the signature are set by many application threads at
//! once, without locks (the paper uses "C++11 lock-free primitives for
//! implementing signature memory arrays", §IV-D3). Setting a bit is a
//! `fetch_or`; reading is a plain load.
//!
//! Memory-ordering note: all operations use `Relaxed`. A racy read that misses a concurrent insert is
//! indistinguishable from the benign reordering the paper's design already
//! tolerates, and no other memory is published through these bits. What is
//! NOT optional is the atomicity of `fetch_or` itself: a load+store split
//! loses concurrent inserts, which the `bitvec-lost-update` mutant below
//! demonstrates under the model checker (DESIGN.md §11).
//!
//! Only shared words ([`crate::SharedWord`]) come here. A signature one
//! thread owns ([`crate::OwnedSlotSignature`], an analyzer worker's) has
//! no concurrent insert to lose and sets the bit with a plain store.

use crate::sync::{AtomicU64, Ordering};

/// Atomically OR `mask` into `word`, returning whether any masked bit was
/// already set. The single definition of "set a signature bit": the reader
/// bits of [`crate::SlotSignature`] go through it, so the
/// `bitvec-lost-update` fault mutant covers them.
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
