//! The fused tile loop: borrowed event blocks straight into Algorithm 1,
//! and nothing else.
//!
//! [`CommProfiler::on_block_fused`] is the profiler's one batched body:
//! `analyze`, `serve` and the fused replay engine call it directly, and
//! [`lc_trace::AccessSink::on_batch`] (live capture tiles, `Trace::replay`,
//! `par_replay`) calls it on a thread-local scratch. It consumes any
//! event representation through [`lc_trace::AsAccess`] (bare
//! [`lc_trace::AccessEvent`] slices out of the in-RAM SoA trace, or
//! [`lc_trace::StampedEvent`] segments decoded from a v3 spool), so no
//! decode → `Vec` → re-stamp → batch copy chain sits in front of it. Per
//! tile it gathers the addresses, hashes them four at a time
//! ([`lc_sigmem::hash_block`]) and runs the paper's O(1) per-access step
//! — one signature slot, one cache line — with the slot lines prefetched
//! `PREFETCH_AHEAD` events ahead.
//!
//! Dependences are **recorded once per block**: they aggregate by
//! `(loop, src, dst)` in a [`FusedScratch`], and each distinct key is then
//! added straight into its matrix cells — one relaxed add per key per
//! block instead of one per dependence, and one dependence-counter add;
//! the block's access count is one add as well. Both are report-invisible
//! — counters and matrices merge by commutative addition, and which shard
//! holds a count is unobservable. The `fused_replay_equivalence` and
//! `batched_hot_path` differential suites pin the output byte-identical
//! to per-event `on_access` delivery across sources, batch sizes and
//! detectors.
//!
//! A hash memo and an idempotent-read skip filter used to sit in front of
//! the detector; both lost to the loop they were meant to beat and were
//! removed (DESIGN.md §15.2 has the measurements).

use std::cell::RefCell;

use lc_sigmem::Signature;
use lc_trace::{AsAccess, LoopId};

use crate::profiler::CommProfiler;
use crate::shards::pack_key;

/// Events gathered and hashed per block before detection. Sized so the
/// two scratch arrays (4 KiB) stay comfortably in L1 next to the tile's
/// events, and equal to a live capture tile, so each one is hashed in a
/// single block.
const TILE: usize = lc_trace::tile::TILE_EVENTS;

/// How many events ahead of the detection cursor signature slot lines
/// are prefetched. Far enough to cover an L2 hit, near enough that the
/// lines survive in L1 until the probe lands.
const PREFETCH_AHEAD: usize = 8;

/// Fibonacci multiplier spreading packed dependence keys over the hint
/// table (keys are dense small integers — low bits alone would alias).
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Observability counters for one scratch's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FusedStats {
    /// Always 0: the hash memo is gone. The three zero fields keep their
    /// names only because `lcbench` reads them; they go with its rows.
    pub memo_hits: u64,
    /// Always 0 (see [`Self::memo_hits`]).
    pub memo_misses: u64,
    /// Always 0: the skip filter is gone (see [`Self::memo_hits`]).
    pub elided_reads: u64,
    /// Aggregated dependence batches added into the matrices.
    pub dep_batches: u64,
}

/// Working state for the fused hot loop: the per-block dependence
/// aggregation buffer. One instance per consumer; empty between blocks.
pub struct FusedScratch {
    /// `(packed key, bytes)` aggregated for the block in flight.
    deps: Vec<(u64, u64)>,
    /// Direct-mapped dedup hints into `deps` (`u16::MAX` = empty).
    dep_hint: Box<[u16]>,
    /// Dependences the current aggregation covers.
    pending_deps: u64,
    /// In-order `(src, dst, bytes)` for the phase accumulator, drained
    /// once per block under a single lock.
    phase_deps: Vec<(u32, u32, u64)>,
    /// Lifetime counters.
    pub stats: FusedStats,
}

/// Aggregation keys held before an early in-block drain. Sized to hold
/// the full live key set of a dependence-dense block (threads² × a few
/// loops) so early drains stay rare.
const DEP_SLOTS: usize = 512;

/// Direct-mapped `key → deps index` hints backing the O(1) dedup in
/// [`FusedScratch::push_dep`]. A hint evicted by a colliding key only
/// costs a duplicate `(key, bytes)` entry — the drain adds every entry
/// and matrix addition commutes — never a lost delta.
const DEP_HINTS: usize = 1024;

impl FusedScratch {
    /// An empty scratch.
    pub fn with_defaults() -> Self {
        Self {
            deps: Vec::with_capacity(DEP_SLOTS),
            dep_hint: vec![u16::MAX; DEP_HINTS].into_boxed_slice(),
            pending_deps: 0,
            phase_deps: Vec::new(),
            stats: FusedStats::default(),
        }
    }

    /// Aggregate one dependence for the block in flight: O(1) dedup via
    /// the hint table instead of a linear scan (dependence-dense blocks
    /// carry hundreds of live keys).
    #[inline]
    fn push_dep(&mut self, key: u64, bytes: u64) {
        self.pending_deps += 1;
        let b = (key.wrapping_mul(MIX) >> 32) as usize & (DEP_HINTS - 1);
        let i = self.dep_hint[b] as usize;
        if let Some(e) = self.deps.get_mut(i) {
            if e.0 == key {
                e.1 += bytes;
                return;
            }
        }
        self.dep_hint[b] = self.deps.len() as u16;
        self.deps.push((key, bytes));
    }
}

thread_local! {
    /// `on_batch`'s scratch: one per thread, so a short live tile costs no
    /// allocation.
    static SCRATCH: RefCell<FusedScratch> = RefCell::new(FusedScratch::with_defaults());
}

/// Run `f` on the calling thread's scratch. A fresh one stands in when
/// that scratch is unavailable — already borrowed further up the stack,
/// or torn down because a thread-exit destructor is delivering a tile.
pub(crate) fn with_thread_scratch(f: impl Fn(&mut FusedScratch)) {
    let ran = SCRATCH
        .try_with(|cell| cell.try_borrow_mut().map(|mut s| f(&mut s)).is_ok())
        .unwrap_or(false);
    if !ran {
        f(&mut FusedScratch::with_defaults());
    }
}

impl<S: Signature> CommProfiler<S> {
    /// Batched delivery: strict per-event Algorithm 1 in stream order —
    /// identical results to per-event [`lc_trace::AccessSink::on_access`]
    /// — with dependences recorded once per block. Generic over
    /// [`AsAccess`] so SoA trace slices and decoded spool segments both
    /// feed it without copying.
    ///
    /// With telemetry enabled the call degrades to the instrumented
    /// per-event path, preserving the zero-cost-when-off contract.
    pub fn on_block_fused<T: AsAccess>(&self, evs: &[T], scratch: &mut FusedScratch) {
        if evs.is_empty() {
            return;
        }
        // The block's counts and deltas all land on its first event's
        // shard: which shard holds them is unobservable in any read path
        // (counters and matrices merge across shards), mirroring the
        // `seed_counts` contract.
        let tid = evs[0].access().tid;
        if let Some(t) = &self.telemetry {
            t.bump(tid, crate::telemetry::Stat::SinkBatch);
            for rec in evs {
                self.on_access_instrumented(rec.access(), t);
            }
            return;
        }
        self.counters.count_accesses(tid, evs.len() as u64);
        let mut addrs = [0u64; TILE];
        let mut hashes = [0u64; TILE];
        for tile in evs.chunks(TILE) {
            let n = tile.len();
            for (a, rec) in addrs[..n].iter_mut().zip(tile) {
                *a = rec.access().addr;
            }
            lc_sigmem::hash_block(&addrs[..n], &mut hashes[..n]);
            for (k, rec) in tile.iter().enumerate() {
                if let Some(&h) = hashes[..n].get(k + PREFETCH_AHEAD) {
                    self.detector.prefetch(h);
                }
                let ev = rec.access();
                if let Some(d) = self
                    .detector
                    .on_access_hashed(ev.tid, ev.addr, hashes[k], ev.size, ev.kind)
                {
                    let loop_id = if self.config.track_nested {
                        ev.loop_id
                    } else {
                        LoopId::NONE
                    };
                    scratch.push_dep(pack_key(loop_id, d.src, d.dst), d.bytes);
                    if self.phases.is_some() {
                        scratch.phase_deps.push((d.src, d.dst, d.bytes));
                    }
                    if scratch.deps.len() >= DEP_SLOTS {
                        self.drain_scratch_deps(tid, scratch);
                    }
                }
            }
        }
        if scratch.pending_deps > 0 {
            self.drain_scratch_deps(tid, scratch);
        }
        if let Some(p) = &self.phases {
            if !scratch.phase_deps.is_empty() {
                let mut g = p.lock();
                for &(src, dst, bytes) in &scratch.phase_deps {
                    g.add(src, dst, bytes);
                }
                scratch.phase_deps.clear();
            }
        }
    }

    /// Add the block's aggregated dependences straight into the matrices,
    /// one relaxed add per distinct key, and count them on `tid`'s shard.
    fn drain_scratch_deps(&self, tid: u32, scratch: &mut FusedScratch) {
        self.add_deps(tid, scratch.pending_deps, &scratch.deps);
        scratch.stats.dep_batches += 1;
        scratch.deps.clear();
        scratch.pending_deps = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::ProfilerConfig;
    use crate::AsymmetricProfiler;
    use lc_sigmem::SignatureConfig;
    use lc_trace::{AccessEvent, AccessKind, AccessSink, FuncId};

    fn ev(tid: u32, addr: u64, kind: AccessKind, loop_id: u32) -> AccessEvent {
        AccessEvent {
            tid,
            addr,
            size: 8,
            kind,
            loop_id: LoopId(loop_id),
            parent_loop: LoopId::NONE,
            func: FuncId::NONE,
            site: 0,
        }
    }

    fn profiler(threads: usize) -> AsymmetricProfiler {
        AsymmetricProfiler::asymmetric(
            SignatureConfig::paper_default(1 << 12, threads),
            ProfilerConfig::nested(threads),
        )
    }

    /// Every ordered thread pair communicates in every loop: 16 × 15 × 4
    /// = 960 live `(loop, src, dst)` keys in one block, so the scratch
    /// drains early at `DEP_SLOTS` mid-block. The result must still equal
    /// the per-event `on_access` oracle, fed directly and through
    /// `on_batch`.
    #[test]
    fn block_with_more_live_keys_than_dep_slots_matches_per_event_oracle() {
        const THREADS: u32 = 16;
        const LOOPS: u32 = 4;
        let mut block = Vec::new();
        for lp in 1..=LOOPS {
            for w in 0..THREADS {
                let addr = 0x1000 + ((lp * THREADS + w) as u64) * 8;
                block.push(ev(w, addr, AccessKind::Write, lp));
                for r in (0..THREADS).filter(|&r| r != w) {
                    block.push(ev(r, addr, AccessKind::Read, lp));
                }
            }
        }
        let live_keys = (LOOPS * THREADS * (THREADS - 1)) as usize;
        assert!(live_keys > DEP_SLOTS);

        let oracle = profiler(THREADS as usize);
        for e in &block {
            oracle.on_access(e);
        }
        oracle.flush();
        assert_eq!(oracle.dependencies(), live_keys as u64);
        let o = oracle.report();

        let fused = profiler(THREADS as usize);
        let mut scratch = FusedScratch::with_defaults();
        fused.on_block_fused(&block, &mut scratch);
        assert!(scratch.stats.dep_batches >= 2, "the block drained early");
        let batched = profiler(THREADS as usize);
        batched.on_batch(&block);

        for (p, what) in [(&fused, "on_block_fused"), (&batched, "on_batch")] {
            p.flush();
            assert_eq!(p.dependencies(), oracle.dependencies(), "{what}");
            assert_eq!(p.global_matrix(), oracle.global_matrix(), "{what}");
            let r = p.report();
            assert_eq!(r.per_loop.len(), LOOPS as usize, "{what}");
            assert_eq!(r.per_loop, o.per_loop, "{what}");
            assert_eq!(r.accesses, o.accesses, "{what}");
        }
    }

    /// The one per-block access and dependence counts land on `first tid
    /// & mask`: a block whose first event's tid is beyond the shard count
    /// is still counted in full. (Tid 13 only reads an address nobody
    /// wrote, so no dependence falls outside the 4 × 4 matrices.)
    #[test]
    fn block_access_count_survives_a_first_tid_beyond_the_shard_count() {
        // 4 threads → 4 shards; tid 13 masks onto shard 1.
        let p = profiler(4);
        let block = [
            ev(13, 0x40, AccessKind::Read, 1),
            ev(2, 0x48, AccessKind::Write, 1),
            ev(0, 0x48, AccessKind::Read, 1),
        ];
        let mut scratch = FusedScratch::with_defaults();
        p.on_block_fused(&block, &mut scratch);
        p.on_block_fused(&block[1..], &mut scratch);
        p.flush();
        assert_eq!(p.accesses(), 5);
        assert_eq!(p.dependencies(), 2);
        assert_eq!(p.global_matrix().get(2, 0), 16);
    }

    /// The retired mechanisms' counters read 0 by construction;
    /// `dep_batches` still counts hand-overs (none for a dependence-free
    /// block).
    #[test]
    fn retired_counters_stay_zero_and_dep_batches_counts_handovers() {
        let p = profiler(4);
        let mut scratch = FusedScratch::with_defaults();
        p.on_block_fused(
            &[
                ev(0, 0x40, AccessKind::Read, 1),
                ev(0, 0x40, AccessKind::Read, 1),
            ],
            &mut scratch,
        );
        assert_eq!(scratch.stats, FusedStats::default());
        p.on_block_fused(
            &[
                ev(1, 0x40, AccessKind::Write, 1),
                ev(0, 0x40, AccessKind::Read, 1),
            ],
            &mut scratch,
        );
        p.flush();
        assert_eq!(p.dependencies(), 1);
        assert_eq!(
            scratch.stats,
            FusedStats {
                dep_batches: 1,
                ..FusedStats::default()
            }
        );
    }
}
