//! MESI coherence simulation over recorded traces under a thread mapping.
//!
//! §III: mapping communicating threads near each other means "less
//! replication of data in different caches. The caches can be used more
//! efficiently, and the number of cache misses is reduced." This simulator
//! quantifies that: replay a trace with a thread→core placement, model
//! per-core private caches kept coherent by an idealized directory, and
//! count misses, invalidations and — weighted by the machine topology —
//! the cost of cache-to-cache transfers.

use std::collections::HashMap;

use lc_profiler::{CommMatrix, DenseMatrix, MachineTopology, ThreadMapping};
use lc_trace::{AccessKind, Trace};

use crate::cache::{Cache, CacheConfig, Mesi};

/// Counters produced by one simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total simulated accesses.
    pub accesses: u64,
    /// Private-cache hits.
    pub hits: u64,
    /// Misses served from memory (no other cache had the line).
    pub memory_fills: u64,
    /// Misses served by another cache on the same socket/cluster level.
    pub local_transfers: u64,
    /// Misses served by a cache on another socket.
    pub remote_transfers: u64,
    /// Lines invalidated in other caches by writes.
    pub invalidations: u64,
    /// Topology-distance-weighted cost of all cache-to-cache transfers.
    pub transfer_cost: u64,
}

impl SimStats {
    /// Misses of any kind.
    pub fn misses(&self) -> u64 {
        self.memory_fills + self.local_transfers + self.remote_transfers
    }

    /// Miss ratio ∈ [0, 1].
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        self.misses() as f64 / self.accesses as f64
    }
}

/// One simulation's full outcome: counters plus the observed
/// cache-to-cache transfer matrix in *thread* coordinates (provider row,
/// consumer column, bytes) — directly comparable against the profiler's
/// RAW communication matrix, which is the paper's premise: shared-memory
/// communication *is* coherence traffic.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Aggregate counters.
    pub stats: SimStats,
    /// Thread-level transfer matrix (bytes = transfers × line size),
    /// including clean-sharing forwards (which the nearest-sharer policy
    /// redistributes away from the semantic producer).
    pub transfers: DenseMatrix,
    /// Dirty forwards only: the owner of a Modified line supplies it.
    /// These correspond one-to-one with value communication, so their
    /// support is (modulo false sharing) a subset of the RAW matrix.
    pub dirty_transfers: DenseMatrix,
}

/// Directory entry: which cores hold a line, and who (if anyone) owns it
/// dirty. Idealized full-map directory (no capacity limits).
#[derive(Clone, Copy, Default)]
struct DirEntry {
    sharers: u64,
    owner: Option<u32>,
}

/// The coherence simulator.
pub struct CoherenceSim {
    cfg: CacheConfig,
    topo: MachineTopology,
    caches: Vec<Cache>,
    directory: HashMap<u64, DirEntry>,
    stats: SimStats,
    /// Core-level cache-to-cache transfer counts.
    core_transfers: CommMatrix,
    /// Core-level dirty (Modified-owner) forwards.
    core_dirty: CommMatrix,
}

impl CoherenceSim {
    /// New simulator with one private cache per core of `topo`.
    pub fn new(cfg: CacheConfig, topo: MachineTopology) -> Self {
        assert!(topo.cores() <= 64, "directory sharer mask is 64-wide");
        Self {
            cfg,
            topo,
            caches: (0..topo.cores()).map(|_| Cache::new(cfg)).collect(),
            directory: HashMap::new(),
            stats: SimStats::default(),
            core_transfers: CommMatrix::new(topo.cores()),
            core_dirty: CommMatrix::new(topo.cores()),
        }
    }

    /// Run a whole trace under `mapping`; returns counters plus the
    /// thread-level transfer matrix.
    pub fn run(mut self, trace: &Trace, mapping: &ThreadMapping) -> SimResult {
        let threads = mapping.assignment.len();
        for e in trace.events() {
            let ev = &e.event;
            let core = mapping.assignment[ev.tid as usize];
            match ev.kind {
                AccessKind::Read => self.read(core as u32, ev.addr),
                AccessKind::Write => self.write(core as u32, ev.addr),
            }
        }
        // Fold core-level transfers back to thread coordinates.
        let mut inv = vec![None; self.topo.cores()];
        for (t, &c) in mapping.assignment.iter().enumerate() {
            inv[c] = Some(t);
        }
        let fold = |core_m: DenseMatrix| {
            let mut out = DenseMatrix::zero(threads);
            for p in 0..self.topo.cores() {
                for c in 0..self.topo.cores() {
                    let v = core_m.get(p, c);
                    if v > 0 {
                        if let (Some(pt), Some(ct)) = (inv[p], inv[c]) {
                            out.bump(pt, ct, v);
                        }
                    }
                }
            }
            out
        };
        SimResult {
            stats: self.stats,
            transfers: fold(self.core_transfers.snapshot()),
            dirty_transfers: fold(self.core_dirty.snapshot()),
        }
    }

    fn evict(&mut self, core: u32, line: u64, state: Mesi) {
        let entry = self.directory.entry(line).or_default();
        entry.sharers &= !(1 << core);
        if state == Mesi::Modified {
            entry.owner = None; // write-back to memory
        } else if entry.owner == Some(core) {
            entry.owner = None;
        }
    }

    fn fill(&mut self, core: u32, line: u64, state: Mesi) {
        if let Some((victim, vstate)) = self.caches[core as usize].insert(line, state) {
            self.evict(core, victim, vstate);
        }
        let entry = self.directory.entry(line).or_default();
        entry.sharers |= 1 << core;
        if state == Mesi::Modified {
            entry.owner = Some(core);
        }
    }

    /// Account a miss served by `provider` (None = memory); `dirty` marks
    /// a Modified-owner forward.
    fn account_fill(&mut self, core: u32, provider: Option<u32>, dirty: bool) {
        match provider {
            None => self.stats.memory_fills += 1,
            Some(p) => {
                let d = self.topo.distance(core as usize, p as usize);
                self.stats.transfer_cost += d;
                self.core_transfers.add(p, core, self.cfg.line_bytes);
                if dirty {
                    self.core_dirty.add(p, core, self.cfg.line_bytes);
                }
                if self.topo.socket_of(core as usize) == self.topo.socket_of(p as usize) {
                    self.stats.local_transfers += 1;
                } else {
                    self.stats.remote_transfers += 1;
                }
            }
        }
    }

    fn read(&mut self, core: u32, addr: u64) {
        self.stats.accesses += 1;
        let line = self.cfg.line_of(addr);
        let cache = &mut self.caches[core as usize];
        if let Some(slot) = cache.find(line) {
            self.stats.hits += 1;
            cache.touch(slot); // LRU refresh, keep state.
            return;
        }
        // Miss: find a provider.
        let entry = self.directory.entry(line).or_default();
        let dirty = entry.owner.is_some();
        let provider = if let Some(owner) = entry.owner {
            // Dirty elsewhere: owner forwards and downgrades to Shared.
            Some(owner)
        } else if entry.sharers != 0 {
            // Clean copy in some cache: nearest sharer forwards.
            let mut best: Option<(u32, u64)> = None;
            let mut s = entry.sharers;
            while s != 0 {
                let c = s.trailing_zeros();
                let d = self.topo.distance(core as usize, c as usize);
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((c, d));
                }
                s &= s - 1;
            }
            best.map(|(c, _)| c)
        } else {
            None
        };
        if let Some(p) = provider {
            if self.directory[&line].owner == Some(p) {
                self.caches[p as usize].set_state(line, Some(Mesi::Shared));
                self.directory.get_mut(&line).unwrap().owner = None;
            }
        }
        self.account_fill(core, provider, dirty);
        let state = if provider.is_none() && self.directory[&line].sharers == 0 {
            Mesi::Exclusive
        } else {
            Mesi::Shared
        };
        self.fill(core, line, state);
    }

    fn write(&mut self, core: u32, addr: u64) {
        self.stats.accesses += 1;
        let line = self.cfg.line_of(addr);
        let cache = &mut self.caches[core as usize];
        let held = cache.find(line);
        let had_line = held.is_some();
        if let Some(slot) = held {
            if matches!(cache.at(slot), Some((_, Mesi::Modified | Mesi::Exclusive))) {
                self.stats.hits += 1;
                cache.touch(slot);
                cache.set_state_at(slot, Mesi::Modified);
                self.directory.entry(line).or_default().owner = Some(core);
                return;
            }
        }
        // Upgrade or fill: invalidate every other copy.
        let entry = *self.directory.entry(line).or_default();
        let mut provider = None;
        let mut dirty = false;
        let mut sharers = entry.sharers & !(1 << core);
        if let Some(owner) = entry.owner {
            if owner != core {
                provider = Some(owner);
                dirty = true;
            }
        } else if sharers != 0 && !had_line {
            provider = Some(sharers.trailing_zeros());
        }
        while sharers != 0 {
            let c = sharers.trailing_zeros();
            self.caches[c as usize].set_state(line, None);
            self.stats.invalidations += 1;
            sharers &= sharers - 1;
        }
        if had_line {
            // Upgrade in place (S -> M): a hit-with-upgrade; count as hit.
            self.stats.hits += 1;
        } else {
            self.account_fill(core, provider, dirty);
        }
        let e = self.directory.entry(line).or_default();
        e.sharers = 0;
        e.owner = None;
        self.fill(core, line, Mesi::Modified);
    }
}

/// Convenience: simulate one trace under one mapping.
pub fn simulate(
    trace: &Trace,
    mapping: &ThreadMapping,
    topo: &MachineTopology,
    cfg: CacheConfig,
) -> SimResult {
    CoherenceSim::new(cfg, *topo).run(trace, mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_trace::{AccessEvent, FuncId, LoopId, StampedEvent};

    fn trace(script: &[(u32, u64, AccessKind)]) -> Trace {
        Trace::new(
            script
                .iter()
                .enumerate()
                .map(|(i, &(tid, addr, kind))| StampedEvent {
                    seq: i as u64,
                    event: AccessEvent {
                        tid,
                        addr,
                        size: 8,
                        kind,
                        loop_id: LoopId::NONE,
                        parent_loop: LoopId::NONE,
                        func: FuncId::NONE,
                        site: 0,
                    },
                })
                .collect(),
        )
    }

    fn sim(script: &[(u32, u64, AccessKind)], mapping: &ThreadMapping) -> SimStats {
        simulate(
            &trace(script),
            mapping,
            &MachineTopology::dual_socket_xeon(),
            CacheConfig::small_l1(),
        )
        .stats
    }

    use AccessKind::{Read, Write};

    #[test]
    fn private_reuse_hits() {
        let s = sim(
            &[(0, 0x100, Write), (0, 0x100, Read), (0, 0x108, Read)],
            &ThreadMapping::identity(16),
        );
        // First write misses to memory; the two reads hit (same line).
        assert_eq!(s.accesses, 3);
        assert_eq!(s.memory_fills, 1);
        assert_eq!(s.hits, 2);
        assert_eq!(s.invalidations, 0);
    }

    #[test]
    fn producer_consumer_transfer_is_counted_and_weighted() {
        // Threads 0 and 8: same socket under one mapping, different under
        // identity (cores 0 and 8 are cross-socket on the 2×8 model).
        let script = [(0u32, 0x200u64, Write), (1, 0x200, Read)];
        let cross = ThreadMapping {
            assignment: vec![0, 8].into_iter().chain(2..16).collect(),
        };
        let near = ThreadMapping::identity(16); // cores 0 and 1: same socket
        let s_cross = sim(&script, &cross);
        let s_near = sim(&script, &near);
        assert_eq!(s_cross.remote_transfers, 1);
        assert_eq!(s_near.local_transfers, 1);
        assert!(s_cross.transfer_cost > s_near.transfer_cost);
    }

    #[test]
    fn writes_invalidate_sharers() {
        let script = [
            (0u32, 0x300u64, Write),
            (1, 0x300, Read),  // transfer, now shared
            (2, 0x300, Read),  // another sharer
            (0, 0x300, Write), // upgrade: invalidate 1 and 2
            (1, 0x300, Read),  // must miss again
        ];
        let s = sim(&script, &ThreadMapping::identity(16));
        assert_eq!(s.invalidations, 2);
        // Accesses: 5; hits: the final write-upgrade only.
        assert_eq!(s.misses() + s.hits, 5);
        assert!(s.misses() >= 4);
    }

    #[test]
    fn false_sharing_shows_up_as_extra_invalidations() {
        // Two threads ping-pong *different* words of one line.
        let mut script = Vec::new();
        for i in 0..20u64 {
            script.push(((i % 2) as u32, 0x400 + (i % 2) * 8, Write));
        }
        let s = sim(&script, &ThreadMapping::identity(16));
        assert!(
            s.invalidations >= 18,
            "line ping-pong should invalidate nearly every write: {s:?}"
        );
    }

    #[test]
    fn capacity_evictions_write_back() {
        // Stream far more lines than the cache holds; all must miss to
        // memory, none may panic the directory accounting.
        let script: Vec<(u32, u64, AccessKind)> =
            (0..2000u64).map(|i| (0u32, i * 64, Write)).collect();
        let s = sim(&script, &ThreadMapping::identity(16));
        assert_eq!(s.memory_fills, 2000);
        assert_eq!(s.hits, 0);
    }

    #[test]
    fn stats_arithmetic() {
        let s = SimStats {
            accesses: 10,
            hits: 6,
            memory_fills: 2,
            local_transfers: 1,
            remote_transfers: 1,
            invalidations: 0,
            transfer_cost: 5,
        };
        assert_eq!(s.misses(), 4);
        assert!((s.miss_ratio() - 0.4).abs() < 1e-12);
    }
}
