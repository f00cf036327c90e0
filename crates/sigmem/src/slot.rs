//! Hash-once slot routing — the single definition of "which signature slot
//! does this address live in".
//!
//! The signature indexes its slot array with `fmix64(addr) % n_slots`
//! (§IV-D2's MurmurHash indexing). The parallel replay partitioner must agree with that mapping *exactly*: slot-sharded
//! replay is lossless only because every event that can touch a given slot
//! is routed to the same worker (DESIGN.md §10). Centralizing the mapping
//! here makes divergence a compile-time impossibility rather than a test
//! failure, and lets callers that need both the slot and the worker derive
//! them from one `fmix64` evaluation instead of two.

use crate::murmur::fmix64;

/// The slot an address maps to in an `n_slots`-entry signature.
///
/// This is the indexing function of [`crate::SlotSignature`]; it calls it
/// rather than re-deriving it.
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
/// assert_eq!(worker, slot * 4 / (1 << 12));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotRouter {
    n_slots: usize,
}

impl SlotRouter {
    /// Router for an `n_slots`-entry signature.
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

    /// The replay worker (of `jobs`) that owns `slot`. Workers own
    /// contiguous slot ranges (`slot · jobs / n_slots`), so all traffic to
    /// one slot lands on one worker and each worker touches only its own
    /// `1/jobs` of the pages of its signature table.
    #[inline]
    pub fn owner(&self, slot: usize, jobs: usize) -> usize {
        debug_assert!(jobs >= 1 && slot < self.n_slots);
        let n = self.n_slots as u64;
        match (slot as u64).checked_mul(jobs as u64) {
            Some(p) => (p / n) as usize,
            // Only past 2^64 / jobs slots, which no table reaches.
            None => (slot as u128 * jobs as u128 / n as u128) as usize,
        }
    }

    /// The replay worker (of `jobs`) that owns `addr`'s slot.
    #[inline]
    pub fn worker(&self, addr: u64, jobs: usize) -> usize {
        self.owner(self.slot(addr), jobs)
    }

    /// Slot and worker from a single hash evaluation.
    #[inline]
    pub fn route(&self, addr: u64, jobs: usize) -> (usize, usize) {
        let slot = self.slot(addr);
        (slot, self.owner(slot, jobs))
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
                assert_eq!(worker, slot * jobs / (1 << 10));
                assert_eq!(worker, r.worker(addr, jobs));
                assert!(worker < jobs);
            }
        }
    }

    #[test]
    fn workers_own_contiguous_slot_ranges_of_equal_size() {
        for n_slots in [1usize, 7, 64, 1000, 1 << 12] {
            let r = SlotRouter::new(n_slots);
            for jobs in 1..=8 {
                let owners: Vec<usize> = (0..n_slots).map(|s| r.owner(s, jobs)).collect();
                assert!(
                    owners.windows(2).all(|w| w[0] <= w[1]),
                    "ranges are contiguous"
                );
                assert_eq!(owners[0], 0);
                for w in 0..jobs {
                    let share = owners.iter().filter(|&&o| o == w).count();
                    assert!(
                        share.abs_diff(n_slots / jobs) <= 1,
                        "n={n_slots} jobs={jobs}"
                    );
                }
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
}
