//! Sharded accumulation for the inline profiler hot path.
//!
//! Algorithm 1 runs *inline in the application threads* (§IV-D3), so every
//! cycle `on_access` spends is multiplied across all profiled threads. One
//! shared `accesses` atomic per access and shared [`CommMatrix`] cell adds
//! per dependence would ping-pong cache lines at a rate that grows with
//! thread count. This module keeps the shared state off the per-access
//! path:
//!
//! * [`Shard`] — per-thread, cache-line-padded `accesses`/`deps` counters.
//!   Each application thread only ever touches its own shard's lines;
//!   totals are merged on read (lossless: relaxed counter addition
//!   commutes).
//! * [`DeltaBuffer`] — a small per-shard table aggregating dependence
//!   deltas keyed by `(loop, src, dst)`. Deltas flush into the shared
//!   matrices in batches on an *epoch boundary* (every
//!   [`AccumConfig::flush_epoch`] dependences, or when the buffer fills),
//!   so a tight producer/consumer loop touches the shared matrix once per
//!   epoch instead of once per dependence. Matrix cell addition commutes,
//!   so the fully-flushed result is byte-identical to adding each
//!   dependence straight into one matrix (enforced by the
//!   `sharded_equivalence` differential test).
//! * [`LoopRegistry`] — a lock-free, fixed-capacity, open-addressed table
//!   of per-loop matrices replacing the `RwLock<HashMap<LoopId, _>>` read
//!   lock the old path took per dependence. Slots are `AtomicPtr` published
//!   with a release-CAS, the same pattern `ReadSignature::filter_or_insert`
//!   uses; lookups are wait-free loads.
//!
//! The memory cost of the layer is bounded and small: one padded shard
//! (two counters + a `delta_slots`-entry buffer) per profiled thread and
//! `capacity` pointer-sized registry slots — a few KiB at the paper's
//! scale, keeping the §V-A2 "matrices are negligible next to signature
//! memory" property (quantified in DESIGN.md).

use std::collections::HashMap;
use std::sync::Arc;

use crossbeam::utils::CachePadded;
use lc_faults::{FaultInjector, FaultSite};
use lc_trace::LoopId;

use crate::clock;
use crate::matrix::CommMatrix;
use crate::sync::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Mutex, MutexGuard, Ordering};
use crate::telemetry::{HistId, Stat, Telemetry};

/// Accumulation-layer tunables, separate from the semantic
/// [`crate::ProfilerConfig`] so existing construction sites keep working.
#[derive(Clone, Copy, Debug)]
pub struct AccumConfig {
    /// Flush a shard's delta buffer after this many buffered dependences.
    pub flush_epoch: u64,
    /// Distinct `(loop, src, dst)` keys a shard aggregates between
    /// flushes; a full buffer forces an early flush.
    pub delta_slots: usize,
    /// Capacity of the lock-free loop-matrix registry: the maximum number
    /// of distinct loops (plus the top-level pseudo-loop) one run may
    /// touch. Exceeding it panics with a sizing hint.
    pub loop_capacity: usize,
    /// Watchdog bound on an explicit flush waiting for a shard's buffer
    /// lock. A sibling thread stalled (or dead) while holding the lock
    /// cannot block a reader forever: after this many milliseconds the
    /// flush skips the shard, latches degraded mode, and moves on.
    pub flush_timeout_ms: u64,
}

impl Default for AccumConfig {
    fn default() -> Self {
        Self {
            flush_epoch: 64,
            delta_slots: 32,
            loop_capacity: 1024,
            flush_timeout_ms: 2000,
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

#[inline]
fn unpack_key(key: u64) -> (LoopId, u32, u32) {
    (
        LoopId((key >> 32) as u32),
        ((key >> 16) & 0xffff) as u32,
        (key & 0xffff) as u32,
    )
}

/// Per-shard aggregation of dependence deltas since the last flush.
#[derive(Debug, Default)]
pub struct DeltaBuffer {
    /// `(packed key, bytes)`, linearly searched — shards see few distinct
    /// communication partners per epoch, so a small vec beats a hash map.
    entries: Vec<(u64, u64)>,
    /// Dependences buffered since the last flush (epoch progress).
    pending: u64,
}

impl DeltaBuffer {
    /// Aggregate one dependence.
    #[inline]
    fn push(&mut self, key: u64, bytes: u64) {
        self.pending += 1;
        self.fold(key, bytes);
    }

    #[inline]
    fn fold(&mut self, key: u64, bytes: u64) {
        for e in &mut self.entries {
            if e.0 == key {
                e.1 += bytes;
                return;
            }
        }
        self.entries.push((key, bytes));
    }

    /// Take a batch of pre-aggregated deltas covering `n_deps`
    /// dependences. A batch that fills the buffer — the caller flushes it
    /// on return — is appended without any search, O(|deltas|): a key
    /// already buffered just appears twice, which [`ShardSet::drain`] adds
    /// twice (matrix addition commutes). A batch that stays buffered folds
    /// into the fewer than `delta_slots` live entries as [`Self::push`]
    /// would, so the buffer never grows with streamed volume. `pending`
    /// advances by the *dependence* count, not the entry count, so the
    /// epoch trigger fires at the same cadence as `n_deps` individual
    /// `push` calls would.
    #[inline]
    fn extend(&mut self, n_deps: u64, deltas: &[(u64, u64)], cfg: &AccumConfig) {
        self.pending += n_deps;
        if self.entries.len() + deltas.len() >= cfg.delta_slots {
            // Exact, not amortized: the footprint `memory_bytes` reports
            // settles at the largest batch instead of doubling past it.
            self.entries.reserve_exact(deltas.len());
            self.entries.extend_from_slice(deltas);
        } else {
            for &(key, bytes) in deltas {
                self.fold(key, bytes);
            }
        }
    }

    #[inline]
    fn needs_flush(&self, cfg: &AccumConfig) -> bool {
        self.pending >= cfg.flush_epoch || self.entries.len() >= cfg.delta_slots
    }

    /// Heap footprint of the buffer.
    fn memory_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(u64, u64)>()
    }
}

/// One per-thread accumulation shard. Padded so two shards never share a
/// cache line; the owning thread's counter bumps therefore stay core-local.
#[derive(Debug)]
pub struct Shard {
    accesses: CachePadded<AtomicU64>,
    deps: CachePadded<AtomicU64>,
    buf: Mutex<DeltaBuffer>,
}

impl Shard {
    fn new() -> Self {
        Self {
            accesses: CachePadded::new(AtomicU64::new(0)),
            deps: CachePadded::new(AtomicU64::new(0)),
            buf: Mutex::new(DeltaBuffer::default()),
        }
    }
}

/// Degraded-mode accounting for the flush paths.
///
/// The flush watchdog's contract (DESIGN.md §9): a worker panicking or
/// stalling mid-flush must not take the run down with it — survivors
/// complete, the global matrix stays exact *for every delta that was
/// drained*, and every delta that was not is **counted** here rather than
/// silently lost. `degraded()` is the single latch callers check to know
/// whether this run's numbers carry an asterisk.
#[derive(Debug, Default)]
pub struct FlushHealth {
    degraded: AtomicBool,
    lost_deltas: AtomicU64,
    flush_panics: AtomicU64,
    watchdog_timeouts: AtomicU64,
}

impl FlushHealth {
    /// Record a caught panic on a flush path that lost `lost` buffered
    /// delta entries (0 when the panic fired before any entry drained away
    /// for good — those deltas stay buffered and flush later).
    pub fn note_panic(&self, lost: u64) {
        self.flush_panics.fetch_add(1, Ordering::Relaxed);
        self.lost_deltas.fetch_add(lost, Ordering::Relaxed);
        self.degraded.store(true, Ordering::Relaxed);
    }

    /// Record an explicit flush abandoning a shard after the watchdog
    /// timeout (the shard's deltas are delayed, not destroyed — they drain
    /// whenever the stuck holder releases the lock).
    pub fn note_timeout(&self) {
        self.watchdog_timeouts.fetch_add(1, Ordering::Relaxed);
        self.degraded.store(true, Ordering::Relaxed);
    }

    /// True once any flush path hit a panic or watchdog timeout.
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Buffered delta entries destroyed by caught panics (each entry is an
    /// aggregated `(loop, src, dst)` byte count, not a single dependence).
    pub fn lost_deltas(&self) -> u64 {
        self.lost_deltas.load(Ordering::Relaxed)
    }

    /// Panics caught on flush paths.
    pub fn flush_panics(&self) -> u64 {
        self.flush_panics.load(Ordering::Relaxed)
    }

    /// Shards skipped by the explicit-flush watchdog.
    pub fn watchdog_timeouts(&self) -> u64 {
        self.watchdog_timeouts.load(Ordering::Relaxed)
    }
}

/// Where a shard's buffered deltas land when drained: the shared matrices,
/// plus whether per-loop attribution is enabled for this run.
#[derive(Clone, Copy, Debug)]
pub struct FlushTarget<'a> {
    /// Attribute flushed deltas to per-loop matrices as well as `global`.
    pub track_nested: bool,
    /// The global (whole-program) communication matrix.
    pub global: &'a CommMatrix,
    /// The per-loop matrix registry.
    pub loops: &'a LoopRegistry,
    /// Metrics layer, when enabled: flush reasons, drained occupancy and
    /// registry probe lengths are recorded here. `None` (the default) keeps
    /// the drain path free of any telemetry branches beyond this check.
    pub telemetry: Option<&'a Telemetry>,
}

/// The sharded accumulation layer: one [`Shard`] per profiled thread
/// (indexed by dense tid, masked) in front of the shared matrices.
#[derive(Debug)]
pub struct ShardSet {
    shards: Box<[Shard]>,
    mask: usize,
    cfg: AccumConfig,
    health: FlushHealth,
    /// Fault-injection hook for the epoch/registry seams. `None` (the
    /// production default) is one never-taken branch per flush.
    faults: Option<Arc<FaultInjector>>,
}

impl ShardSet {
    /// One shard per profiled thread, rounded up to a power of two so the
    /// hot-path index is a mask instead of a modulo.
    pub fn new(threads: usize, cfg: AccumConfig) -> Self {
        assert!(threads >= 1);
        assert!(cfg.flush_epoch >= 1, "flush_epoch must be at least 1");
        assert!(cfg.delta_slots >= 1, "delta_slots must be at least 1");
        assert!(cfg.flush_timeout_ms >= 1, "flush_timeout_ms must be >= 1");
        let n = threads.next_power_of_two();
        Self {
            shards: (0..n).map(|_| Shard::new()).collect(),
            mask: n - 1,
            cfg,
            health: FlushHealth::default(),
            faults: None,
        }
    }

    /// Arm a fault injector on the epoch-barrier and registry-insert seams.
    pub fn set_faults(&mut self, faults: Arc<FaultInjector>) {
        self.faults = Some(faults);
    }

    /// Degraded-mode accounting for this shard set's flush paths.
    pub fn health(&self) -> &FlushHealth {
        &self.health
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

    /// Count and buffer one dependence on `tid`'s shard, flushing the
    /// shard's buffer into `target` at epoch boundaries.
    #[inline]
    pub fn record_dep(
        &self,
        tid: u32,
        loop_id: LoopId,
        src: u32,
        dst: u32,
        bytes: u64,
        target: FlushTarget<'_>,
    ) {
        let shard = self.shard(tid);
        shard.deps.fetch_add(1, Ordering::Relaxed);
        // Without nested tracking every dependence aggregates under one key.
        let key = pack_key(
            if target.track_nested {
                loop_id
            } else {
                LoopId::NONE
            },
            src,
            dst,
        );
        // Fault mutant for the model checker: trade the blocking lock for
        // a try_lock and silently drop the delta when the shard buffer is
        // contended (e.g. by a concurrent explicit flush). The lossless
        // flush oracle catches the missing bytes (DESIGN.md §11).
        #[cfg(feature = "sched")]
        if lc_sched::mutant_active("shards-drop-contended-delta") {
            let Some(mut buf) = shard.buf.try_lock() else {
                return;
            };
            buf.push(key, bytes);
            if buf.needs_flush(&self.cfg) {
                self.guarded_drain(&mut buf, target, tid);
            }
            return;
        }
        let mut buf = shard.buf.lock();
        buf.push(key, bytes);
        if buf.needs_flush(&self.cfg) {
            if let Some(t) = target.telemetry {
                // Epoch takes precedence: a buffer can hit both limits at
                // once, and the epoch is the *designed* trigger.
                let reason = if buf.pending >= self.cfg.flush_epoch {
                    Stat::FlushEpoch
                } else {
                    Stat::FlushFull
                };
                t.bump(tid, reason);
                t.observe(tid, HistId::FlushOccupancy, buf.entries.len() as u64);
            }
            self.guarded_drain(&mut buf, target, tid);
        }
    }

    /// Count and buffer a whole batch of dependences on `tid`'s shard in
    /// **one** lock acquisition — the fused replay path aggregates each
    /// block's dependences by `(loop, src, dst)` key (see [`pack_key`])
    /// and lands them here. `deltas` is taken as pre-aggregated: a batch
    /// that triggers the flush is appended, not searched, so the call is
    /// O(|deltas|) and a repeated key is merely added twice (see
    /// [`DeltaBuffer::extend`]). `n_deps` is the true dependence count
    /// the `deltas` aggregate (it drives the counter and the epoch
    /// trigger). Lock, epoch trigger, [`Self::guarded_drain`] and loss
    /// accounting are [`Self::record_dep`]'s; the fully-flushed result is
    /// byte-identical to `n_deps` individual `record_dep` calls because
    /// delta aggregation and matrix addition both commute.
    #[inline]
    pub fn record_deps(
        &self,
        tid: u32,
        n_deps: u64,
        deltas: &[(u64, u64)],
        target: FlushTarget<'_>,
    ) {
        if n_deps == 0 {
            return;
        }
        let shard = self.shard(tid);
        shard.deps.fetch_add(n_deps, Ordering::Relaxed);
        // Same fault mutant as `record_dep`: drop the whole batch when the
        // shard buffer is contended. The lossless flush oracle catches it.
        #[cfg(feature = "sched")]
        if lc_sched::mutant_active("shards-drop-contended-delta") {
            let Some(mut buf) = shard.buf.try_lock() else {
                return;
            };
            buf.extend(n_deps, deltas, &self.cfg);
            if buf.needs_flush(&self.cfg) {
                self.guarded_drain(&mut buf, target, tid);
            }
            return;
        }
        let mut buf = shard.buf.lock();
        buf.extend(n_deps, deltas, &self.cfg);
        if buf.needs_flush(&self.cfg) {
            if let Some(t) = target.telemetry {
                let reason = if buf.pending >= self.cfg.flush_epoch {
                    Stat::FlushEpoch
                } else {
                    Stat::FlushFull
                };
                t.bump(tid, reason);
                t.observe(tid, HistId::FlushOccupancy, buf.entries.len() as u64);
            }
            self.guarded_drain(&mut buf, target, tid);
        }
    }

    /// Drain `buf` into the shared matrices under the watchdog contract: a
    /// panic anywhere inside the drain (including an injected
    /// [`FaultSite::EpochBarrier`] fault — the PR 2 livelock scenario made
    /// schedulable) is caught, the shard is left consistent, and every
    /// entry that had not yet reached the matrices is counted as lost
    /// instead of vanishing. The calling application thread survives.
    fn guarded_drain(&self, buf: &mut DeltaBuffer, target: FlushTarget<'_>, tid: u32) {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(f) = &self.faults {
                f.trip(FaultSite::EpochBarrier);
            }
            self.drain(buf, target, tid);
        }));
        if result.is_err() {
            // Entries still buffered never reached the matrices; entries
            // already popped did (matrix adds commute, so partial drains
            // keep the global matrix exact for what landed). Count the
            // remainder and reset, so the shard stays usable.
            let lost = buf.entries.len() as u64;
            buf.entries.clear();
            buf.pending = 0;
            self.health.note_panic(lost);
            if let Some(t) = target.telemetry {
                t.bump(tid, Stat::FlushPanic);
            }
        }
    }

    /// Pop-at-a-time so a panic mid-drain (caught by
    /// [`Self::guarded_drain`]) leaves exactly the un-drained entries in
    /// the buffer for loss accounting. Drain order is irrelevant: matrix
    /// cell addition commutes.
    fn drain(&self, buf: &mut DeltaBuffer, target: FlushTarget<'_>, tid: u32) {
        while let Some((key, bytes)) = buf.entries.pop() {
            let (loop_id, src, dst) = unpack_key(key);
            target.global.add(src, dst, bytes);
            if target.track_nested {
                if let Some(f) = &self.faults {
                    f.trip(FaultSite::RegistryInsert);
                }
                // Lossy on overflow: flushes run on application threads, so
                // a capacity panic here would strand sibling threads at
                // their next barrier (the error is latched and surfaced
                // after the run instead).
                if let Some((m, probe, inserted)) = target.loops.get_or_insert_lossy(loop_id) {
                    if let Some(t) = target.telemetry {
                        t.observe(tid, HistId::RegistryProbeLen, probe as u64);
                        if inserted {
                            t.bump(tid, Stat::RegistryInsert);
                        }
                    }
                    m.add(src, dst, bytes);
                }
            }
        }
        buf.pending = 0;
    }

    /// Acquire a shard's buffer lock under the watchdog: immediate
    /// `try_lock`, then exponential backoff (50µs doubling, 10ms cap) until
    /// [`AccumConfig::flush_timeout_ms`] expires. `None` means the holder
    /// is stuck or dead — the caller skips the shard instead of joining it
    /// in whatever stranded it.
    fn lock_with_watchdog<'m>(
        &self,
        m: &'m Mutex<DeltaBuffer>,
    ) -> Option<MutexGuard<'m, DeltaBuffer>> {
        if let Some(g) = m.try_lock() {
            return Some(g);
        }
        // The clock facade makes the deadline virtual inside an lc-sched
        // simulation: a wedged holder times out deterministically and for
        // free in wall-clock terms.
        let deadline = clock::now_micros() + self.cfg.flush_timeout_ms * 1000;
        let mut backoff_us = 50u64;
        loop {
            clock::sleep_micros(backoff_us);
            if let Some(g) = m.try_lock() {
                return Some(g);
            }
            if clock::now_micros() >= deadline {
                return None;
            }
            backoff_us = (backoff_us * 2).min(10_000);
        }
    }

    /// Flush every shard's pending deltas. Called before any read of the
    /// shared matrices so snapshots include all buffered communication.
    ///
    /// Bounded: a shard whose lock cannot be won within
    /// [`AccumConfig::flush_timeout_ms`] (its owner is stalled mid-epoch,
    /// or died without the no-poisoning lock ever noticing) is skipped and
    /// counted — the remaining shards still drain, so one stuck worker
    /// degrades the snapshot instead of deadlocking the reader. This is
    /// PR 2's livelock fix generalized into policy.
    pub fn flush(&self, target: FlushTarget<'_>) {
        for (i, shard) in self.shards.iter().enumerate() {
            let tid = i as u32;
            match self.lock_with_watchdog(&shard.buf) {
                Some(mut buf) => {
                    if buf.pending > 0 {
                        if let Some(t) = target.telemetry {
                            t.bump(tid, Stat::FlushExplicit);
                            t.observe(tid, HistId::FlushOccupancy, buf.entries.len() as u64);
                        }
                        self.guarded_drain(&mut buf, target, tid);
                    }
                }
                None => {
                    self.health.note_timeout();
                    if let Some(t) = target.telemetry {
                        t.bump(tid, Stat::WatchdogTimeout);
                    }
                }
            }
        }
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

    /// Heap footprint of the shard layer. Bounded like [`Self::flush`]: a
    /// shard whose buffer lock cannot be won within
    /// [`AccumConfig::flush_timeout_ms`] counts 0 buffer bytes, so a
    /// footprint read never waits on a stalled thread.
    pub fn memory_bytes(&self) -> usize {
        self.shards.len() * std::mem::size_of::<Shard>()
            + self
                .shards
                .iter()
                .filter_map(|s| self.lock_with_watchdog(&s.buf))
                .map(|buf| buf.memory_bytes())
                .sum::<usize>()
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
/// allocation and uses the winner's (the `ReadSignature::filter_or_insert`
/// pattern). Entries are never removed, so a published pointer stays valid
/// until the registry drops.
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
    /// profiler's flush path uses [`Self::get_or_insert_lossy`] so worker
    /// threads never unwind mid-run.
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

    /// The flush-path lookup: on overflow it latches the error (readable
    /// afterwards via [`Self::overflow`]), counts the dropped delta, and
    /// returns `None` instead of panicking. Flushes run inline on
    /// application threads, where a panic would strand the sibling threads
    /// at their next barrier — the run completes with per-loop attribution
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
    fn delta_buffer_aggregates_same_key() {
        let mut b = DeltaBuffer::default();
        let k = pack_key(LoopId(1), 0, 1);
        b.push(k, 8);
        b.push(k, 8);
        b.push(pack_key(LoopId(2), 0, 1), 4);
        assert_eq!(b.entries.len(), 2);
        assert_eq!(b.pending, 3);
        assert_eq!(b.entries[0], (k, 16));
    }

    #[test]
    fn shards_merge_counters_losslessly() {
        let set = Arc::new(ShardSet::new(8, AccumConfig::default()));
        std::thread::scope(|s| {
            for tid in 0..8u32 {
                let set = Arc::clone(&set);
                s.spawn(move || {
                    for _ in 0..1000 {
                        set.count_access(tid);
                    }
                });
            }
        });
        assert_eq!(set.accesses(), 8000);
        assert_eq!(set.deps(), 0);
    }

    #[test]
    fn epoch_flush_lands_in_matrices() {
        let cfg = AccumConfig {
            flush_epoch: 4,
            ..AccumConfig::default()
        };
        let set = ShardSet::new(2, cfg);
        let global = CommMatrix::new(2);
        let loops = LoopRegistry::new(2, 16);
        let tgt = FlushTarget {
            track_nested: true,
            global: &global,
            loops: &loops,
            telemetry: None,
        };
        for _ in 0..3 {
            set.record_dep(1, LoopId(5), 0, 1, 8, tgt);
        }
        // Below the epoch: nothing flushed yet.
        assert_eq!(global.snapshot().total(), 0);
        set.record_dep(1, LoopId(5), 0, 1, 8, tgt);
        // Epoch boundary: all four deltas land at once.
        assert_eq!(global.get(0, 1), 32);
        assert_eq!(loops.get(LoopId(5)).unwrap().get(0, 1), 32);
        assert_eq!(set.deps(), 4);
    }

    #[test]
    fn explicit_flush_drains_partial_epochs() {
        let set = ShardSet::new(4, AccumConfig::default());
        let global = CommMatrix::new(4);
        let loops = LoopRegistry::new(4, 16);
        let tgt = FlushTarget {
            track_nested: true,
            global: &global,
            loops: &loops,
            telemetry: None,
        };
        set.record_dep(2, LoopId(1), 0, 2, 8, tgt);
        assert_eq!(global.snapshot().total(), 0);
        set.flush(tgt);
        assert_eq!(global.get(0, 2), 8);
        // Idempotent.
        set.flush(tgt);
        assert_eq!(global.get(0, 2), 8);
    }

    #[test]
    fn full_delta_buffer_forces_early_flush() {
        let cfg = AccumConfig {
            flush_epoch: 1_000_000,
            delta_slots: 2,
            ..AccumConfig::default()
        };
        let set = ShardSet::new(1, cfg);
        let global = CommMatrix::new(4);
        let loops = LoopRegistry::new(4, 16);
        let tgt = FlushTarget {
            track_nested: true,
            global: &global,
            loops: &loops,
            telemetry: None,
        };
        set.record_dep(0, LoopId(1), 0, 1, 8, tgt);
        set.record_dep(0, LoopId(1), 0, 2, 8, tgt);
        // Two distinct keys hit `delta_slots`.
        assert_eq!(global.snapshot().total(), 16);
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
    fn flush_reasons_and_occupancy_reach_telemetry() {
        use crate::telemetry::{HistId, Stat, Telemetry, TelemetryConfig};
        let cfg = AccumConfig {
            flush_epoch: 4,
            delta_slots: 2,
            ..AccumConfig::default()
        };
        let set = ShardSet::new(2, cfg);
        let global = CommMatrix::new(4);
        let loops = LoopRegistry::new(4, 16);
        let tel = Telemetry::new(2, TelemetryConfig::default());
        let tgt = FlushTarget {
            track_nested: true,
            global: &global,
            loops: &loops,
            telemetry: Some(&tel),
        };
        // Two distinct keys fill the 2-slot buffer before the epoch: Full.
        set.record_dep(0, LoopId(1), 0, 1, 8, tgt);
        set.record_dep(0, LoopId(2), 0, 1, 8, tgt);
        assert_eq!(tel.counter(Stat::FlushFull), 1);
        // Four same-key deps hit the epoch: Epoch.
        for _ in 0..4 {
            set.record_dep(0, LoopId(1), 0, 1, 8, tgt);
        }
        assert_eq!(tel.counter(Stat::FlushEpoch), 1);
        // A partial buffer drained by an explicit flush: Explicit.
        set.record_dep(0, LoopId(1), 0, 1, 8, tgt);
        set.flush(tgt);
        assert_eq!(tel.counter(Stat::FlushExplicit), 1);
        // Occupancy observed once per flush; registry inserts counted once
        // per distinct loop.
        assert_eq!(tel.hist(HistId::FlushOccupancy).count, 3);
        assert_eq!(tel.counter(Stat::RegistryInsert), 2);
        assert!(tel.hist(HistId::RegistryProbeLen).count > 0);
        // And the matrices saw every delta despite the instrumentation.
        assert_eq!(global.snapshot().total(), 7 * 8);
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

    #[test]
    fn injected_epoch_panic_is_caught_and_losses_are_counted() {
        use lc_faults::{FaultAction, FaultPlan, FaultRule};
        let cfg = AccumConfig {
            flush_epoch: 4,
            ..AccumConfig::default()
        };
        let mut set = ShardSet::new(1, cfg);
        set.set_faults(Arc::new(FaultInjector::new(FaultPlan {
            seed: 0,
            rules: vec![FaultRule::once(
                FaultSite::EpochBarrier,
                FaultAction::Panic,
                0,
            )],
        })));
        let global = CommMatrix::new(2);
        let loops = LoopRegistry::new(2, 16);
        let tgt = FlushTarget {
            track_nested: true,
            global: &global,
            loops: &loops,
            telemetry: None,
        };
        // First epoch boundary trips the injected panic; the recording
        // thread (this one) survives and the buffered entry is counted.
        for _ in 0..4 {
            set.record_dep(0, LoopId(1), 0, 1, 8, tgt);
        }
        assert!(set.health().degraded());
        assert_eq!(set.health().flush_panics(), 1);
        assert_eq!(set.health().lost_deltas(), 1);
        assert_eq!(
            global.snapshot().total(),
            0,
            "nothing drained before the panic"
        );
        // The shard stays usable: the next epoch drains cleanly.
        for _ in 0..4 {
            set.record_dep(0, LoopId(1), 0, 1, 8, tgt);
        }
        assert_eq!(global.get(0, 1), 32);
        assert_eq!(set.health().flush_panics(), 1);
    }

    /// `ram_uniform`'s live key set: 8 loops × 56 ordered thread pairs.
    fn preaggregated_batch(bytes_of: impl Fn(u32, u32, u32) -> u64) -> Vec<(u64, u64)> {
        let mut batch = Vec::new();
        for l in 1..=8u32 {
            for s in 0..8u32 {
                for d in (0..8u32).filter(|&d| d != s) {
                    batch.push((pack_key(LoopId(l), s, d), bytes_of(l, s, d)));
                }
            }
        }
        batch
    }

    /// `record_deps` appends a flushing batch instead of searching, so
    /// nothing may depend on the shard buffer holding one entry per key:
    /// a 448-key batch on top of overlapping buffered entries must land
    /// exact per-cell sums.
    #[test]
    fn record_deps_lands_exact_sums_for_large_and_overlapping_batches() {
        let set = ShardSet::new(8, AccumConfig::default());
        let global = CommMatrix::new(8);
        let loops = LoopRegistry::new(8, 16);
        let tgt = FlushTarget {
            track_nested: true,
            global: &global,
            loops: &loops,
            telemetry: None,
        };
        let first = preaggregated_batch(|l, s, d| (l * 100 + s * 10 + d) as u64);
        assert_eq!(first.len(), 448);
        // Twenty of loop 1's keys (overlap) and a tiny batch repeating one
        // of them go first: below the flush thresholds, so they sit in the
        // buffer when the big batch is appended on top and every one of
        // their keys is buffered twice.
        let second: Vec<_> = preaggregated_batch(|_, _, _| 7)
            .into_iter()
            .take(20)
            .collect();
        let third = [(second[0].0, 5)];
        set.record_deps(3, 20, &second, tgt);
        set.record_deps(3, 1, &third, tgt);
        assert_eq!(global.snapshot().total(), 0, "still buffered");
        set.record_deps(3, 3 * 448, &first, tgt);
        set.flush(tgt);

        assert_eq!(set.deps(), 3 * 448 + 20 + 1);
        let mut want_global = [[0u64; 8]; 8];
        for (i, &(key, _)) in first.iter().enumerate() {
            let (l, s, d) = unpack_key(key);
            let want = (l.0 * 100 + s * 10 + d) as u64
                + if i < 20 { 7 } else { 0 }
                + if i == 0 { 5 } else { 0 };
            assert_eq!(loops.get(l).unwrap().get(s, d), want, "loop {l:?} {s}->{d}");
            want_global[s as usize][d as usize] += want;
        }
        for s in 0..8u32 {
            for d in 0..8u32 {
                assert_eq!(global.get(s, d), want_global[s as usize][d as usize]);
            }
        }
        assert_eq!(loops.len(), 8);
        assert!(!set.health().degraded());
    }

    /// A batch goes through the same `guarded_drain` as single
    /// dependences: an injected epoch-barrier panic is caught, and every
    /// entry that did not drain is counted as lost.
    #[test]
    fn record_deps_counts_an_undrained_batch_as_lost() {
        use lc_faults::{FaultAction, FaultPlan, FaultRule};
        let mut set = ShardSet::new(8, AccumConfig::default());
        set.set_faults(Arc::new(FaultInjector::new(FaultPlan {
            seed: 0,
            rules: vec![FaultRule::once(
                FaultSite::EpochBarrier,
                FaultAction::Panic,
                0,
            )],
        })));
        let global = CommMatrix::new(8);
        let loops = LoopRegistry::new(8, 16);
        let tgt = FlushTarget {
            track_nested: true,
            global: &global,
            loops: &loops,
            telemetry: None,
        };
        let batch = preaggregated_batch(|_, _, _| 8);
        set.record_deps(0, 448, &batch, tgt);
        assert_eq!(set.health().flush_panics(), 1);
        assert_eq!(set.health().lost_deltas(), 448);
        assert_eq!(global.snapshot().total(), 0);
        assert_eq!(set.deps(), 448, "counted even though the deltas were lost");
        // The shard stays usable: the next batch drains cleanly.
        set.record_deps(0, 448, &batch, tgt);
        assert_eq!(global.snapshot().total(), 448 * 8);
        assert_eq!(set.health().lost_deltas(), 448);
    }

    #[test]
    fn explicit_flush_skips_a_stuck_shard_within_the_timeout() {
        let cfg = AccumConfig {
            flush_timeout_ms: 50,
            ..AccumConfig::default()
        };
        let set = Arc::new(ShardSet::new(2, cfg));
        let global = CommMatrix::new(2);
        let loops = LoopRegistry::new(2, 16);
        let tgt = FlushTarget {
            track_nested: false,
            global: &global,
            loops: &loops,
            telemetry: None,
        };
        set.record_dep(0, LoopId::NONE, 0, 1, 8, tgt);
        set.record_dep(1, LoopId::NONE, 1, 0, 4, tgt);
        // Wedge shard 1's buffer lock from another thread, as a worker
        // stalled mid-epoch would.
        let held = Arc::clone(&set);
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (locked_tx, locked_rx) = std::sync::mpsc::channel::<()>();
        let holder = std::thread::spawn(move || {
            let _guard = held.shards[1].buf.lock();
            locked_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        });
        locked_rx.recv().unwrap();
        let start = std::time::Instant::now();
        set.flush(tgt);
        assert!(
            start.elapsed() >= std::time::Duration::from_millis(50),
            "waited out the watchdog"
        );
        // Shard 0 drained; shard 1 was skipped and counted, not deadlocked.
        assert_eq!(global.get(0, 1), 8);
        assert_eq!(global.get(1, 0), 0);
        assert!(set.health().degraded());
        assert_eq!(set.health().watchdog_timeouts(), 1);
        assert_eq!(set.health().lost_deltas(), 0, "delayed, not destroyed");
        release_tx.send(()).unwrap();
        holder.join().unwrap();
        // Once the holder releases, the delayed deltas drain.
        set.flush(tgt);
        assert_eq!(global.get(1, 0), 4);
    }

    /// The reads that follow a flush — the footprint `memory_bytes` and a
    /// whole `report()` — skip a wedged shard too instead of hanging.
    #[test]
    fn footprint_reads_skip_a_stuck_shard_within_the_timeout() {
        use crate::{PerfectDetector, PerfectProfiler, ProfilerConfig};
        use lc_trace::{AccessEvent, AccessKind, AccessSink, FuncId};
        let p = Arc::new(PerfectProfiler::from_detector_with(
            PerfectDetector::perfect(),
            ProfilerConfig::nested(2),
            AccumConfig {
                flush_timeout_ms: 50,
                ..AccumConfig::default()
            },
        ));
        for (tid, kind) in [(0, AccessKind::Write), (1, AccessKind::Read)] {
            p.on_access(&AccessEvent {
                tid,
                addr: 0x40,
                size: 8,
                kind,
                loop_id: LoopId(1),
                parent_loop: LoopId::NONE,
                func: FuncId::NONE,
                site: 0,
            });
        }
        let unwedged = p.counters.memory_bytes();
        let held = Arc::clone(&p);
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (locked_tx, locked_rx) = std::sync::mpsc::channel::<()>();
        let holder = std::thread::spawn(move || {
            let _guard = held.counters.shards[1].buf.lock();
            locked_tx.send(()).unwrap();
            let _ = release_rx.recv();
        });
        locked_rx.recv().unwrap();
        let reader = Arc::clone(&p);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let reading = std::thread::spawn(move || {
            let shards = reader.counters.memory_bytes();
            let report = reader.report();
            done_tx.send((shards, report)).unwrap();
        });
        let (shards, report) = done_rx
            .recv_timeout(std::time::Duration::from_secs(2))
            .expect("blocked on a wedged shard lock");
        reading.join().unwrap();
        assert!(shards <= unwedged, "a skipped shard counts 0 buffer bytes");
        assert_eq!(report.accesses, 2);
        assert!(p.degraded(), "the flush skipped the wedged shard");
        release_tx.send(()).unwrap();
        holder.join().unwrap();
        assert_eq!(p.counters.memory_bytes(), unwedged);
        assert_eq!(p.report().dependencies, 1);
    }
}
