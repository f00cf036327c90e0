//! Perfect (collision-free) signature memory.
//!
//! §V-A3: "We evaluated the false positive rate under four different
//! signature sizes by implementing a perfect signature memory without any
//! collision to be the baseline for FPR comparison." This module is that
//! baseline: exact per-address reader sets and last-writer records backed by
//! sharded hash maps. Memory grows with the program's footprint — the very
//! behaviour the bounded signature avoids — which is itself measured in the
//! Figure 5 comparison.

use std::collections::HashMap;

use parking_lot::Mutex;

use crate::murmur::fmix64;
use crate::traits::Signature;

/// Number of lock shards; power of two so selection is a mask.
const SHARDS: usize = 64;

/// Maximum thread id representable by the compact reader bitmask.
pub const MAX_PERFECT_THREADS: u32 = 128;

#[inline]
fn shard(addr: u64) -> usize {
    (fmix64(addr) >> 56) as usize & (SHARDS - 1)
}

/// Estimated heap bytes per occupied hash-map entry (key + value + bucket
/// overhead), used for the memory-growth comparison in Figure 5.
const BYTES_PER_ENTRY: usize = 48;

/// Exact reader sets: `addr -> bitmask of reader tids` (tids < 128).
pub struct PerfectReaderSet {
    shards: Box<[Mutex<HashMap<u64, u128>>]>,
}

impl Default for PerfectReaderSet {
    fn default() -> Self {
        Self::new()
    }
}

impl PerfectReaderSet {
    /// Create an empty exact reader-set store.
    pub fn new() -> Self {
        let shards = (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect();
        Self { shards }
    }

    /// Number of distinct addresses currently tracked.
    pub fn tracked_addresses(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Snapshot every tracked address as `(addr, reader bitmask)`,
    /// addr-ascending — the checkpoint serialization contract.
    pub fn snapshot(&self) -> Vec<(u64, u128)> {
        let mut out: Vec<(u64, u128)> = self
            .shards
            .iter()
            .flat_map(|s| s.lock().iter().map(|(&a, &m)| (a, m)).collect::<Vec<_>>())
            .collect();
        out.sort_unstable_by_key(|&(a, _)| a);
        out
    }

    /// Restore one address's reader bitmask, the inverse of
    /// [`Self::snapshot`].
    pub fn restore_mask(&self, addr: u64, mask: u128) {
        self.shards[shard(addr)].lock().insert(addr, mask);
    }

    /// Record that thread `tid` read `addr`.
    pub fn insert(&self, addr: u64, tid: u32) {
        self.insert_contains(addr, tid);
    }

    /// Has thread `tid` read `addr` since the address was last cleared?
    pub fn contains(&self, addr: u64, tid: u32) -> bool {
        self.shards[shard(addr)]
            .lock()
            .get(&addr)
            .is_some_and(|m| m & reader_bit(tid) != 0)
    }

    /// Forget every reader of `addr`.
    pub fn clear_addr(&self, addr: u64) {
        self.shards[shard(addr)].lock().remove(&addr);
    }

    /// Whether `tid` had read `addr`, recording that it has now.
    pub fn insert_contains(&self, addr: u64, tid: u32) -> bool {
        let bit = reader_bit(tid);
        let mut m = self.shards[shard(addr)].lock();
        let e = m.entry(addr).or_insert(0);
        let present = *e & bit != 0;
        *e |= bit;
        present
    }

    /// Current heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.tracked_addresses() * BYTES_PER_ENTRY
    }
}

/// `tid`'s bit in a reader mask.
fn reader_bit(tid: u32) -> u128 {
    assert!(
        tid < MAX_PERFECT_THREADS,
        "perfect signature supports up to {MAX_PERFECT_THREADS} threads"
    );
    1u128 << tid
}

/// Exact last-writer map: `addr -> tid`.
pub struct PerfectWriterMap {
    shards: Box<[Mutex<HashMap<u64, u32>>]>,
}

impl Default for PerfectWriterMap {
    fn default() -> Self {
        Self::new()
    }
}

impl PerfectWriterMap {
    /// Create an empty exact writer map.
    pub fn new() -> Self {
        let shards = (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect();
        Self { shards }
    }

    /// Number of distinct addresses ever written.
    pub fn tracked_addresses(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Snapshot every written address as `(addr, tid)`, addr-ascending —
    /// the checkpoint serialization contract.
    pub fn snapshot(&self) -> Vec<(u64, u32)> {
        let mut out: Vec<(u64, u32)> = self
            .shards
            .iter()
            .flat_map(|s| s.lock().iter().map(|(&a, &t)| (a, t)).collect::<Vec<_>>())
            .collect();
        out.sort_unstable_by_key(|&(a, _)| a);
        out
    }

    /// Record that thread `tid` is now the last writer of `addr`.
    pub fn record(&self, addr: u64, tid: u32) {
        self.shards[shard(addr)].lock().insert(addr, tid);
    }

    /// The last recorded writer of `addr`, or `None` if it was never
    /// written.
    pub fn last_writer(&self, addr: u64) -> Option<u32> {
        self.shards[shard(addr)].lock().get(&addr).copied()
    }

    /// Current heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.tracked_addresses() * BYTES_PER_ENTRY
    }
}

/// The exact signature: Algorithm 1 over a [`PerfectReaderSet`] and a
/// [`PerfectWriterMap`], the reference every bounded signature is
/// measured against.
#[derive(Default)]
pub struct PerfectSignature {
    readers: PerfectReaderSet,
    writers: PerfectWriterMap,
}

impl PerfectSignature {
    /// An empty exact signature.
    pub fn new() -> Self {
        Self::default()
    }

    /// The exact reader sets.
    pub fn readers(&self) -> &PerfectReaderSet {
        &self.readers
    }

    /// The exact last writers.
    pub fn writers(&self) -> &PerfectWriterMap {
        &self.writers
    }
}

impl Signature for PerfectSignature {
    fn read(&self, addr: u64, _h: u64, tid: u32) -> (Option<u32>, bool) {
        let writer = self.writers.last_writer(addr);
        (writer, self.readers.insert_contains(addr, tid))
    }

    fn write(&self, addr: u64, _h: u64, tid: u32) {
        self.readers.clear_addr(addr);
        self.writers.record(addr, tid);
    }

    fn memory_bytes(&self) -> usize {
        self.readers.memory_bytes() + self.writers.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_set_is_exact() {
        let rs = PerfectReaderSet::new();
        rs.insert(0x10, 1);
        rs.insert(0x10, 2);
        assert!(rs.contains(0x10, 1));
        assert!(rs.contains(0x10, 2));
        assert!(!rs.contains(0x10, 3));
        assert!(!rs.contains(0x11, 1)); // no aliasing, ever
    }

    #[test]
    fn clear_addr_is_per_address() {
        let rs = PerfectReaderSet::new();
        rs.insert(0x10, 1);
        rs.insert(0x20, 1);
        rs.clear_addr(0x10);
        assert!(!rs.contains(0x10, 1));
        assert!(rs.contains(0x20, 1));
    }

    #[test]
    fn writer_map_is_exact() {
        let wm = PerfectWriterMap::new();
        assert_eq!(wm.last_writer(0x40), None);
        wm.record(0x40, 5);
        wm.record(0x48, 6);
        assert_eq!(wm.last_writer(0x40), Some(5));
        assert_eq!(wm.last_writer(0x48), Some(6));
        assert_eq!(wm.last_writer(0x50), None);
    }

    #[test]
    fn memory_grows_with_footprint() {
        let wm = PerfectWriterMap::new();
        let before = wm.memory_bytes();
        for a in 0..1000u64 {
            wm.record(a * 8, 0);
        }
        assert!(wm.memory_bytes() >= before + 1000 * 8);
        assert_eq!(wm.tracked_addresses(), 1000);
    }

    #[test]
    #[should_panic(expected = "perfect signature supports")]
    fn rejects_oversized_tid() {
        let rs = PerfectReaderSet::new();
        rs.insert(0, MAX_PERFECT_THREADS);
    }
}
