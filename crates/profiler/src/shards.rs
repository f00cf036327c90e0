//! Accumulation state for the inline profiler hot path.
//!
//! Algorithm 1 runs *inline in the application threads* (§IV-D3), so every
//! cycle `on_access` spends is multiplied across all profiled threads. This
//! module holds the shared state those threads accumulate into:
//!
//! * [`ShardSet`] — per-thread, cache-line-padded `accesses`/`deps`
//!   counters. Each application thread only ever touches its own shard's
//!   lines; totals are merged on read (lossless: relaxed counter addition
//!   commutes).
//! * [`LoopRegistry`] — a lock-free, fixed-capacity, open-addressed table
//!   of per-loop matrices. Slots are `AtomicPtr` published with a
//!   release-CAS; lookups are wait-free loads.
//!
//! Dependences go straight into the shared [`CommMatrix`] cells, one
//! relaxed add per `(loop, src, dst)` key (`pack_key`): the fused engine
//! folds a block's dependences by key and adds each key once per block,
//! and the per-event path adds each dependence as it is detected. Nothing
//! sits between a detected dependence and its cell, so there is nothing to
//! flush, lock, or lose (DESIGN.md §7).
//!
//! The memory cost of the layer is bounded and small: one padded shard
//! (two counters) per profiled thread and `capacity` pointer-sized
//! registry slots — a few KiB at the paper's scale, keeping the §V-A2
//! "matrices are negligible next to signature memory" property.

use std::collections::HashMap;

use crossbeam::utils::CachePadded;
use lc_trace::LoopId;

use crate::matrix::CommMatrix;
use crate::sync::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// Accumulation-layer tunables, separate from the semantic
/// [`crate::ProfilerConfig`] so existing construction sites keep working.
#[derive(Clone, Copy, Debug)]
pub struct AccumConfig {
    /// Capacity of the lock-free loop-matrix registry: the maximum number
    /// of distinct loops (plus the top-level pseudo-loop) one run may
    /// touch. Exceeding it panics with a sizing hint.
    pub loop_capacity: usize,
}

impl Default for AccumConfig {
    fn default() -> Self {
        Self {
            loop_capacity: 1024,
        }
    }
}

/// Pack a dependence's aggregation key. `src`/`dst` are dense thread ids
/// (the matrix dimension caps them at 2^16 threads, far above the paper's
/// scale); the loop id occupies the high 32 bits.
#[inline]
pub(crate) fn pack_key(loop_id: LoopId, src: u32, dst: u32) -> u64 {
    debug_assert!(src < (1 << 16) && dst < (1 << 16));
    ((loop_id.0 as u64) << 32) | ((src as u64) << 16) | dst as u64
}

/// Inverse of [`pack_key`].
#[inline]
pub(crate) fn unpack_key(key: u64) -> (LoopId, u32, u32) {
    (
        LoopId((key >> 32) as u32),
        ((key >> 16) & 0xffff) as u32,
        (key & 0xffff) as u32,
    )
}

/// One per-thread counter shard. Padded so two shards never share a cache
/// line; the owning thread's counter bumps therefore stay core-local.
#[derive(Debug)]
pub struct Shard {
    accesses: CachePadded<AtomicU64>,
    deps: CachePadded<AtomicU64>,
}

impl Shard {
    fn new() -> Self {
        Self {
            accesses: CachePadded::new(AtomicU64::new(0)),
            deps: CachePadded::new(AtomicU64::new(0)),
        }
    }
}

/// The per-thread run counters: one [`Shard`] per profiled thread
/// (indexed by dense tid, masked).
#[derive(Debug)]
pub struct ShardSet {
    shards: Box<[Shard]>,
    mask: usize,
}

impl ShardSet {
    /// One shard per profiled thread, rounded up to a power of two so the
    /// hot-path index is a mask instead of a modulo.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1);
        let n = threads.next_power_of_two();
        Self {
            shards: (0..n).map(|_| Shard::new()).collect(),
            mask: n - 1,
        }
    }

    #[inline]
    fn shard(&self, tid: u32) -> &Shard {
        &self.shards[tid as usize & self.mask]
    }

    /// Count one access on `tid`'s shard.
    #[inline]
    pub fn count_access(&self, tid: u32) {
        self.shard(tid).accesses.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` accesses on `tid`'s shard in one atomic add — the batched
    /// sink path folds a same-thread run into a single counter update.
    #[inline]
    pub fn count_accesses(&self, tid: u32, n: u64) {
        self.shard(tid).accesses.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` dependences on `tid`'s shard in one atomic add.
    #[inline]
    pub fn count_deps(&self, tid: u32, n: u64) {
        self.shard(tid).deps.fetch_add(n, Ordering::Relaxed);
    }

    /// Seed the shard-0 counters with totals from a checkpoint — restore
    /// runs single-threaded before profiling resumes, and [`Self::accesses`]
    /// / [`Self::deps`] sum across shards, so which shard holds the prefix
    /// is unobservable.
    pub fn seed_counts(&self, accesses: u64, deps: u64) {
        self.shards[0]
            .accesses
            .fetch_add(accesses, Ordering::Relaxed);
        self.shards[0].deps.fetch_add(deps, Ordering::Relaxed);
    }

    /// Total accesses across shards (lossless merge of relaxed counters).
    pub fn accesses(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.accesses.load(Ordering::Relaxed))
            .sum()
    }

    /// Total dependences across shards.
    pub fn deps(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.deps.load(Ordering::Relaxed))
            .sum()
    }

    /// Heap footprint of the shard layer.
    pub fn memory_bytes(&self) -> usize {
        self.shards.len() * std::mem::size_of::<Shard>()
    }
}

/// One published registry entry: a loop id and its matrix.
#[derive(Debug)]
struct LoopSlot {
    id: LoopId,
    matrix: CommMatrix,
}

/// The loop-matrix registry ran out of capacity: the run touched more
/// distinct loops than [`AccumConfig::loop_capacity`] provisioned.
///
/// Its `Display` text is the documented sizing hint — the panicking
/// registry paths raise it verbatim, so callers match on the stable
/// `"loop-matrix registry full"` prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegistryFull {
    /// The registry's slot count (capacity rounded up to a power of two).
    pub capacity: usize,
}

impl std::fmt::Display for RegistryFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "loop-matrix registry full: more than {} distinct loops touched; \
             raise AccumConfig::loop_capacity",
            self.capacity
        )
    }
}

impl std::error::Error for RegistryFull {}

/// Lock-free, fixed-capacity, open-addressed map from [`LoopId`] to its
/// [`CommMatrix`].
///
/// Lookups are a hash, a handful of `Acquire` pointer loads, and no writes —
/// the per-dependence cost the old `RwLock<HashMap>` read lock used to pay
/// in atomics and contention. Inserts allocate the slot's `LoopSlot` and
/// publish it with a release-CAS; the loser of a publish race frees its
/// allocation and uses the winner's. Entries are never removed, so a
/// published pointer stays valid until the registry drops.
#[derive(Debug)]
pub struct LoopRegistry {
    slots: Box<[AtomicPtr<LoopSlot>]>,
    threads: usize,
    len: AtomicUsize,
    /// Latched by [`Self::get_or_insert_lossy`] on the first failed insert.
    overflowed: AtomicBool,
    /// Deltas dropped (left unattributed per-loop) after the overflow.
    dropped: AtomicU64,
}

impl LoopRegistry {
    /// Registry with room for `capacity` distinct loops, whose matrices
    /// have dimension `threads`. Capacity is rounded up to a power of two.
    pub fn new(threads: usize, capacity: usize) -> Self {
        assert!(capacity >= 1, "loop registry needs capacity");
        let n = capacity.next_power_of_two();
        Self {
            slots: (0..n)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
            threads,
            len: AtomicUsize::new(0),
            overflowed: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
        }
    }

    /// The matrix for `id`, publishing a fresh zero matrix on first use.
    ///
    /// # Panics
    /// When the registry is full — the capacity bound is a deliberate
    /// design knob (see [`AccumConfig::loop_capacity`]); a run touching
    /// more distinct loops than provisioned should be re-run with a larger
    /// capacity rather than silently misattributed. Callers that can
    /// surface a recoverable error use [`Self::try_get_or_insert`]; the
    /// profiler's accumulation path uses [`Self::get_or_insert_lossy`] so
    /// worker threads never unwind mid-run.
    #[inline]
    pub fn get_or_insert(&self, id: LoopId) -> &CommMatrix {
        match self.find_or_publish(id) {
            Ok((m, _, _)) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Self::get_or_insert`] returning a clean error instead of
    /// panicking when the registry is full.
    #[inline]
    pub fn try_get_or_insert(&self, id: LoopId) -> Result<&CommMatrix, RegistryFull> {
        self.find_or_publish(id).map(|(m, _, _)| m)
    }

    /// The accumulation-path lookup: on overflow it latches the error
    /// (readable afterwards via [`Self::overflow`]), counts the dropped
    /// delta, and returns `None` instead of panicking. Accumulation runs
    /// inline on application threads, where a panic would strand the
    /// sibling threads at their next barrier — the run completes with per-loop attribution
    /// degraded, and the caller (e.g. the CLI) reports the clean error.
    #[inline]
    pub fn get_or_insert_lossy(&self, id: LoopId) -> Option<(&CommMatrix, u32, bool)> {
        match self.find_or_publish(id) {
            Ok(r) => Some(r),
            Err(_) => {
                self.overflowed.store(true, Ordering::Relaxed);
                self.dropped.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// The capacity error latched by [`Self::get_or_insert_lossy`], if any
    /// lookup has overflowed the registry.
    pub fn overflow(&self) -> Option<RegistryFull> {
        self.overflowed
            .load(Ordering::Relaxed)
            .then_some(RegistryFull {
                capacity: self.slots.len(),
            })
    }

    /// Deltas that lost their per-loop attribution to an overflowed
    /// registry (the global matrix still received them).
    pub fn dropped_deltas(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Core open-addressed lookup/publish: the matrix, the probe distance
    /// walked, and whether this call published the slot.
    #[inline]
    fn find_or_publish(&self, id: LoopId) -> Result<(&CommMatrix, u32, bool), RegistryFull> {
        let mask = self.slots.len() - 1;
        let mut idx = (lc_sigmem::murmur::fmix64(id.0 as u64) as usize) & mask;
        let mut fresh: *mut LoopSlot = std::ptr::null_mut();
        for probe in 0..self.slots.len() as u32 {
            let slot = &self.slots[idx];
            let p = slot.load(Ordering::Acquire);
            if p.is_null() {
                if fresh.is_null() {
                    fresh = Box::into_raw(Box::new(LoopSlot {
                        id,
                        matrix: CommMatrix::new(self.threads),
                    }));
                }
                // Fault mutant for the model checker: publish with a blind
                // `store` instead of the CAS, so two racing inserts into one
                // empty slot both "win" and the first publication (and every
                // add made through it) is overwritten. The registry oracle's
                // publish-once and per-loop sum checks catch it (DESIGN.md
                // §11).
                #[cfg(feature = "sched")]
                if lc_sched::mutant_active("registry-blind-publish") {
                    slot.store(fresh, Ordering::Release);
                    self.len.fetch_add(1, Ordering::Relaxed);
                    // Safety: just published; the mutant leaks what it
                    // overwrites instead of freeing it.
                    return Ok((unsafe { &(*fresh).matrix }, probe, true));
                }
                match slot.compare_exchange(
                    std::ptr::null_mut(),
                    fresh,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        self.len.fetch_add(1, Ordering::Relaxed);
                        // Safety: just published; lives until `self` drops.
                        return Ok((unsafe { &(*fresh).matrix }, probe, true));
                    }
                    Err(winner) => {
                        // Safety: `winner` was published by a release-CAS
                        // after full construction.
                        if unsafe { &*winner }.id == id {
                            // Safety: `fresh` never escaped this thread.
                            drop(unsafe { Box::from_raw(fresh) });
                            return Ok((unsafe { &(*winner).matrix }, probe, false));
                        }
                        // Different loop claimed the slot: keep probing and
                        // reuse `fresh` for the next empty slot.
                    }
                }
            } else {
                // Safety: published pointers stay valid until drop.
                if unsafe { &*p }.id == id {
                    if !fresh.is_null() {
                        // Safety: `fresh` never escaped this thread.
                        drop(unsafe { Box::from_raw(fresh) });
                    }
                    return Ok((unsafe { &(*p).matrix }, probe, false));
                }
            }
            idx = (idx + 1) & mask;
        }
        if !fresh.is_null() {
            // Safety: `fresh` never escaped this thread.
            drop(unsafe { Box::from_raw(fresh) });
        }
        Err(RegistryFull {
            capacity: self.slots.len(),
        })
    }

    /// The matrix for `id`, if one was published.
    pub fn get(&self, id: LoopId) -> Option<&CommMatrix> {
        let mask = self.slots.len() - 1;
        let mut idx = (lc_sigmem::murmur::fmix64(id.0 as u64) as usize) & mask;
        for _ in 0..self.slots.len() {
            let p = self.slots[idx].load(Ordering::Acquire);
            if p.is_null() {
                return None;
            }
            // Safety: published pointers stay valid until drop.
            let slot = unsafe { &*p };
            if slot.id == id {
                return Some(&slot.matrix);
            }
            idx = (idx + 1) & mask;
        }
        None
    }

    /// Number of published loops.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True when no loop has been touched.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot every published loop matrix.
    pub fn snapshot_all(&self) -> HashMap<LoopId, crate::matrix::DenseMatrix> {
        self.iter().map(|(id, m)| (id, m.snapshot())).collect()
    }

    /// Iterate the published `(id, matrix)` pairs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (LoopId, &CommMatrix)> {
        self.slots.iter().filter_map(|slot| {
            let p = slot.load(Ordering::Acquire);
            // Safety: published pointers stay valid until drop.
            (!p.is_null()).then(|| {
                let s = unsafe { &*p };
                (s.id, &s.matrix)
            })
        })
    }

    /// Heap footprint: slot array plus published matrices.
    pub fn memory_bytes(&self) -> usize {
        // 8 = the production size of one slot pointer, kept literal so the
        // figure is unchanged when the `sched` feature swaps in the
        // (physically larger) instrumented shim atomics.
        self.slots.len() * 8
            + self
                .iter()
                .map(|(_, m)| m.memory_bytes() + std::mem::size_of::<LoopSlot>())
                .sum::<usize>()
    }
}

impl Drop for LoopRegistry {
    fn drop(&mut self) {
        for slot in self.slots.iter() {
            let p = slot.swap(std::ptr::null_mut(), Ordering::AcqRel);
            if !p.is_null() {
                // Safety: sole owner at drop; pointer came from Box::into_raw.
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

// Safety: the registry hands out `&CommMatrix` (itself Sync) and publishes
// heap pointers with release/acquire ordering.
unsafe impl Send for LoopRegistry {}
unsafe impl Sync for LoopRegistry {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn key_packing_round_trips() {
        for (l, s, d) in [(0u32, 0u32, 0u32), (7, 3, 5), (u32::MAX, 65535, 65535)] {
            assert_eq!(unpack_key(pack_key(LoopId(l), s, d)), (LoopId(l), s, d));
        }
    }

    #[test]
    fn shards_merge_counters_losslessly() {
        let set = Arc::new(ShardSet::new(8));
        std::thread::scope(|s| {
            for tid in 0..8u32 {
                let set = Arc::clone(&set);
                s.spawn(move || {
                    for _ in 0..1000 {
                        set.count_access(tid);
                    }
                    set.count_deps(tid, 3);
                });
            }
        });
        assert_eq!(set.accesses(), 8000);
        assert_eq!(set.deps(), 24);
    }

    #[test]
    fn registry_publishes_each_loop_once() {
        let reg = Arc::new(LoopRegistry::new(4, 64));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let reg = Arc::clone(&reg);
                s.spawn(move || {
                    for l in 0..32u32 {
                        reg.get_or_insert(LoopId(l)).add(0, 1, 1);
                    }
                });
            }
        });
        assert_eq!(reg.len(), 32);
        for l in 0..32u32 {
            assert_eq!(reg.get(LoopId(l)).unwrap().get(0, 1), 8);
        }
        assert!(reg.get(LoopId(99)).is_none());
        assert_eq!(reg.snapshot_all().len(), 32);
    }

    #[test]
    fn registry_survives_colliding_probes() {
        // Capacity 4 with 4 loops: every slot used, probes wrap.
        let reg = LoopRegistry::new(2, 4);
        for l in 0..4u32 {
            reg.get_or_insert(LoopId(l)).add(0, 1, l as u64 + 1);
        }
        for l in 0..4u32 {
            assert_eq!(reg.get(LoopId(l)).unwrap().get(0, 1), l as u64 + 1);
        }
    }

    #[test]
    #[should_panic(expected = "loop-matrix registry full")]
    fn registry_overflow_panics_with_hint() {
        let reg = LoopRegistry::new(2, 2);
        for l in 0..3u32 {
            reg.get_or_insert(LoopId(l));
        }
    }

    #[test]
    fn lossy_lookup_latches_overflow_and_degrades() {
        let reg = LoopRegistry::new(2, 2);
        assert!(reg.overflow().is_none());
        assert!(reg.get_or_insert_lossy(LoopId(0)).is_some());
        assert!(reg.get_or_insert_lossy(LoopId(1)).is_some());
        assert!(reg.get_or_insert_lossy(LoopId(2)).is_none());
        assert!(reg.get_or_insert_lossy(LoopId(3)).is_none());
        let e = reg.overflow().expect("overflow latched");
        assert_eq!(e.capacity, 2);
        assert_eq!(reg.dropped_deltas(), 2);
        // Already-published loops still resolve after the overflow.
        assert!(reg.get_or_insert_lossy(LoopId(1)).is_some());
    }

    #[test]
    fn try_get_or_insert_reports_full_cleanly() {
        let reg = LoopRegistry::new(2, 2);
        assert!(reg.try_get_or_insert(LoopId(0)).is_ok());
        assert!(reg.try_get_or_insert(LoopId(1)).is_ok());
        let err = reg.try_get_or_insert(LoopId(2)).unwrap_err();
        assert_eq!(err.capacity, 2);
        let msg = err.to_string();
        assert!(msg.contains("loop-matrix registry full"), "{msg}");
        assert!(msg.contains("loop_capacity"), "{msg}");
        // Existing loops still resolve after a failed insert.
        assert!(reg.try_get_or_insert(LoopId(1)).is_ok());
    }

    #[test]
    fn registry_memory_accounts_slots_and_matrices() {
        let reg = LoopRegistry::new(4, 8);
        let empty = reg.memory_bytes();
        reg.get_or_insert(LoopId(1));
        assert!(reg.memory_bytes() > empty);
    }

    /// The literal `8` in `memory_bytes` is the slot the default build
    /// allocates. Compiled out of tier-1 (`cargo test` at the workspace
    /// root builds with the `sched` shims by construction); CI's lean
    /// `cargo test --release -p lc-profiler …` step runs it.
    #[cfg(not(feature = "sched"))]
    #[test]
    fn registry_memory_counts_the_allocated_slot_array() {
        let reg = LoopRegistry::new(4, 8);
        assert_eq!(reg.memory_bytes(), std::mem::size_of_val(&*reg.slots));
    }
}
