//! Set-associative LRU cache model.

/// Geometry of one private cache.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
}

impl CacheConfig {
    /// A small private L1-ish cache: 64 sets × 4 ways × 64 B = 16 KiB.
    pub fn small_l1() -> Self {
        Self {
            sets: 64,
            ways: 4,
            line_bytes: 64,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        (self.sets * self.ways) as u64 * self.line_bytes
    }

    /// The line (block) number of an address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr / self.line_bytes
    }

    /// The set index a line maps to.
    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line as usize) & (self.sets - 1)
    }
}

/// MESI state of a cached line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mesi {
    /// Exclusive, dirty.
    Modified,
    /// Exclusive, clean.
    Exclusive,
    /// Possibly replicated, clean.
    Shared,
}

/// Low bits of a slot's tag word: 0 for an empty slot, `1 + Mesi as u64`
/// for a resident line.
const STATE_BITS: u32 = 2;
const STATE_MASK: u64 = (1 << STATE_BITS) - 1;

/// A slot's tag word: the LRU clock of its last use above the state bits.
#[inline]
fn tag(lru: u64, state: Mesi) -> u64 {
    lru << STATE_BITS | (state as u64 + 1)
}

#[inline]
fn state_of(tag: u64) -> Option<Mesi> {
    match tag & STATE_MASK {
        0 => None,
        1 => Some(Mesi::Modified),
        2 => Some(Mesi::Exclusive),
        _ => Some(Mesi::Shared),
    }
}

/// One slot: `[line, tag]`. An empty slot is all-zero bytes, so a cache's
/// slots come from the zeroed allocator and the sets a run never touches
/// never become resident memory.
type Slot = [u64; 2];

/// One core's private cache: one flat `sets × ways` slot array, set-major.
///
/// The slot-level API (`find` / `touch` / `fill` / `*_at`) probes a set
/// once and hands back a **slot index** that stays valid while the line is
/// resident, so callers can keep per-copy side state in arrays parallel to
/// the slots (the coherence backend's pending sets). The line-level
/// methods (`contains`, `state`, `insert`, `set_state`) are conveniences
/// over it.
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    slots: Vec<Slot>,
    clock: u64,
}

impl Cache {
    /// New empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.sets.is_power_of_two() && cfg.line_bytes.is_power_of_two());
        assert!(cfg.ways >= 1);
        Self {
            cfg,
            slots: vec![[0; 2]; cfg.sets * cfg.ways],
            clock: 0,
        }
    }

    /// Number of slots (`sets × ways`) — the length of any parallel array.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// The ways of `line`'s set, and the slot index of the first.
    #[inline]
    fn set(&self, line: u64) -> (usize, &[Slot]) {
        let base = self.cfg.set_of(line) * self.cfg.ways;
        (base, &self.slots[base..base + self.cfg.ways])
    }

    /// Slot holding `line`, if resident. (Does not touch LRU.)
    #[inline]
    pub fn find(&self, line: u64) -> Option<usize> {
        let (base, set) = self.set(line);
        (set.iter())
            .position(|s| s[0] == line && s[1] & STATE_MASK != 0)
            .map(|way| base + way)
    }

    /// Mark `slot` most recently used.
    #[inline]
    pub fn touch(&mut self, slot: usize) {
        self.clock += 1;
        let t = &mut self.slots[slot][1];
        *t = self.clock << STATE_BITS | *t & STATE_MASK;
    }

    /// Place a non-resident `line` (most recently used) into an empty slot
    /// of its set, else over the least recently used one. Returns the slot
    /// and the displaced line with its state, if any.
    pub fn fill(&mut self, line: u64, state: Mesi) -> (usize, Option<(u64, Mesi)>) {
        debug_assert!(self.find(line).is_none(), "fill of a resident line");
        let (base, set) = self.set(line);
        let way = (set.iter())
            .position(|s| s[1] & STATE_MASK == 0)
            .unwrap_or_else(|| {
                // Resident tags order as their LRU clocks.
                let oldest = set.iter().enumerate().min_by_key(|(_, s)| s[1]);
                oldest.expect("ways >= 1").0
            });
        let slot = base + way;
        let victim = self.at(slot);
        self.clock += 1;
        self.slots[slot] = [line, tag(self.clock, state)];
        (slot, victim)
    }

    /// Line and state held in `slot`, if occupied.
    #[inline]
    pub fn at(&self, slot: usize) -> Option<(u64, Mesi)> {
        let [line, t] = self.slots[slot];
        state_of(t).map(|st| (line, st))
    }

    /// Change the state of an occupied `slot` (upgrade / downgrade).
    #[inline]
    pub fn set_state_at(&mut self, slot: usize, state: Mesi) {
        let t = &mut self.slots[slot][1];
        debug_assert!(*t & STATE_MASK != 0, "state of an empty slot");
        *t = tag(*t >> STATE_BITS, state);
    }

    /// Empty `slot`; returns the state its line had.
    pub fn invalidate_at(&mut self, slot: usize) -> Option<Mesi> {
        let t = &mut self.slots[slot][1];
        let prev = state_of(*t);
        *t &= !STATE_MASK;
        prev
    }

    /// Is `line` present? (Does not touch LRU.)
    pub fn contains(&self, line: u64) -> bool {
        self.find(line).is_some()
    }

    /// Current MESI state of `line`, if present.
    pub fn state(&self, line: u64) -> Option<Mesi> {
        self.find(line)
            .and_then(|slot| self.at(slot))
            .map(|(_, st)| st)
    }

    /// Touch `line` (LRU bump) and set its state. Returns the evicted line
    /// (with its state) if an insertion displaced one.
    pub fn insert(&mut self, line: u64, state: Mesi) -> Option<(u64, Mesi)> {
        match self.find(line) {
            Some(slot) => {
                self.touch(slot);
                self.set_state_at(slot, state);
                None
            }
            None => self.fill(line, state).1,
        }
    }

    /// Downgrade or remove a line (coherence action). Returns the previous
    /// state if it was present.
    pub fn set_state(&mut self, line: u64, state: Option<Mesi>) -> Option<Mesi> {
        let slot = self.find(line)?;
        match state {
            Some(st) => {
                let prev = self.at(slot).map(|(_, st)| st);
                self.set_state_at(slot, st);
                prev
            }
            None => self.invalidate_at(slot),
        }
    }

    /// Lines currently resident.
    pub fn resident(&self) -> usize {
        (self.slots.iter())
            .filter(|s| s[1] & STATE_MASK != 0)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cache() -> Cache {
        Cache::new(CacheConfig {
            sets: 4,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn config_geometry() {
        let c = CacheConfig::small_l1();
        assert_eq!(c.capacity(), 16 * 1024);
        assert_eq!(c.line_of(0), 0);
        assert_eq!(c.line_of(63), 0);
        assert_eq!(c.line_of(64), 1);
    }

    #[test]
    fn insert_hit_and_state() {
        let mut c = cache();
        assert!(c.insert(10, Mesi::Exclusive).is_none());
        assert!(c.contains(10));
        assert_eq!(c.state(10), Some(Mesi::Exclusive));
        // Re-insert updates state without eviction.
        assert!(c.insert(10, Mesi::Modified).is_none());
        assert_eq!(c.state(10), Some(Mesi::Modified));
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn lru_evicts_the_oldest_way() {
        let mut c = cache();
        // Lines 0, 4, 8 map to set 0 (4 sets).
        c.insert(0, Mesi::Shared);
        c.insert(4, Mesi::Shared);
        c.insert(0, Mesi::Shared); // refresh 0; 4 is now LRU
        let evicted = c.insert(8, Mesi::Shared);
        assert_eq!(evicted, Some((4, Mesi::Shared)));
        assert!(c.contains(0) && c.contains(8) && !c.contains(4));
    }

    #[test]
    fn set_state_downgrades_and_invalidates() {
        let mut c = cache();
        c.insert(3, Mesi::Modified);
        assert_eq!(c.set_state(3, Some(Mesi::Shared)), Some(Mesi::Modified));
        assert_eq!(c.state(3), Some(Mesi::Shared));
        assert_eq!(c.set_state(3, None), Some(Mesi::Shared));
        assert!(!c.contains(3));
        assert_eq!(c.set_state(3, None), None);
    }

    /// The pre-flattening model, kept as the oracle: per-set `Vec` of ways,
    /// `swap_remove` on invalidation, `min_by_key` LRU victim.
    struct RefCache {
        sets: Vec<Vec<(u64, Mesi, u64)>>,
        ways: usize,
        clock: u64,
    }

    impl RefCache {
        fn state(&self, line: u64) -> Option<Mesi> {
            let set = &self.sets[line as usize % self.sets.len()];
            set.iter().find(|w| w.0 == line).map(|w| w.1)
        }

        fn insert(&mut self, line: u64, state: Mesi) -> Option<(u64, Mesi)> {
            self.clock += 1;
            let n = self.sets.len();
            let set = &mut self.sets[line as usize % n];
            if let Some(w) = set.iter_mut().find(|w| w.0 == line) {
                (w.1, w.2) = (state, self.clock);
                return None;
            }
            let mut evicted = None;
            if set.len() >= self.ways {
                let (idx, _) = set.iter().enumerate().min_by_key(|(_, w)| w.2).unwrap();
                let victim = set.swap_remove(idx);
                evicted = Some((victim.0, victim.1));
            }
            set.push((line, state, self.clock));
            evicted
        }

        fn set_state(&mut self, line: u64, state: Option<Mesi>) -> Option<Mesi> {
            let n = self.sets.len();
            let set = &mut self.sets[line as usize % n];
            let pos = set.iter().position(|w| w.0 == line)?;
            let prev = set[pos].1;
            match state {
                Some(st) => set[pos].1 = st,
                None => {
                    set.swap_remove(pos);
                }
            }
            Some(prev)
        }
    }

    /// A slot is two words and an empty one is all-zero bytes, so a cache
    /// is allocated zeroed and only the sets a run fills become resident.
    #[test]
    fn an_empty_slot_is_two_zero_words() {
        assert_eq!(std::mem::size_of::<Slot>(), 16);
        let mut c = cache();
        assert!(c.slots.iter().all(|s| *s == [0; 2]));
        let slot = c.fill(5, Mesi::Modified).0;
        c.invalidate_at(slot);
        assert_eq!(c.slots[slot][1] & STATE_MASK, 0);
        assert_eq!(c.resident(), 0);
    }

    proptest! {
        /// Random insert / invalidate / downgrade scripts produce identical
        /// hit, victim and state sequences on the flat cache (driven through
        /// the slot API) and the reference model, from direct-mapped to
        /// 64-way sets.
        #[test]
        fn flat_cache_matches_the_reference_model(
            ways_ix in 0usize..4,
            script in prop::collection::vec((0u8..5, 0u64..4096, 0usize..3), 1..800),
        ) {
            const SETS: usize = 2;
            let ways = [1, 2, 4, 64][ways_ix];
            let mut flat = Cache::new(CacheConfig { sets: SETS, ways, line_bytes: 64 });
            let mut oracle = RefCache { sets: vec![Vec::new(); SETS], ways, clock: 0 };
            let lines = (SETS * ways * 3 / 2).max(6) as u64;
            for (op, raw, st) in script {
                let line = raw % lines;
                let state = [Mesi::Modified, Mesi::Exclusive, Mesi::Shared][st];
                match op {
                    // Insert (weight 3 of 5, so sets fill and evict).
                    0..=2 => {
                        let victim = match flat.find(line) {
                            Some(slot) => {
                                flat.touch(slot);
                                flat.set_state_at(slot, state);
                                None
                            }
                            None => {
                                let (slot, victim) = flat.fill(line, state);
                                prop_assert_eq!(flat.at(slot), Some((line, state)));
                                victim
                            }
                        };
                        prop_assert_eq!(victim, oracle.insert(line, state));
                    }
                    3 => {
                        let prev = flat.find(line).and_then(|slot| flat.invalidate_at(slot));
                        prop_assert_eq!(prev, oracle.set_state(line, None));
                    }
                    _ => prop_assert_eq!(
                        flat.set_state(line, Some(Mesi::Shared)),
                        oracle.set_state(line, Some(Mesi::Shared))
                    ),
                }
                for l in 0..lines {
                    prop_assert_eq!(flat.state(l), oracle.state(l), "line {}", l);
                }
                prop_assert_eq!(flat.resident(), oracle.sets.iter().map(Vec::len).sum::<usize>());
            }
        }
    }
}
