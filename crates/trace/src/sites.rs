//! Access-site registry and per-site statistics.
//!
//! Each instrumented access expression carries a static site id (the
//! `#[track_caller]` location — the analogue of the instrumented
//! instruction's address in DiscoPoP's LLVM pass). This module makes the
//! id *resolvable back to source* (`file:line:col`) and provides a
//! [`SiteCounter`] sink ranking sites by traffic — the "which source line
//! is hot" view a profiler user starts from.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::panic::Location;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, RwLock};

use crate::event::{AccessEvent, AccessKind};
use crate::sink::AccessSink;

/// Global site-id → location registry.
static REGISTRY: RwLock<Option<HashMap<u64, &'static Location<'static>>>> = RwLock::new(None);

/// Slots in the per-thread direct-mapped cache in front of `SEEN`.
const SITE_CACHE_SLOTS: usize = 64;

thread_local! {
    /// Per-thread set of ids already registered (keeps the registry lock
    /// off every access after a site's first on this thread).
    static SEEN: RefCell<HashSet<u64>> = RefCell::new(HashSet::new());
    /// Direct-mapped cache of ids already in `SEEN`: a hit skips the
    /// SipHash insert, so a traced access in a hot loop pays one compare.
    static SEEN_CACHE: [Cell<u64>; SITE_CACHE_SLOTS] =
        const { [const { Cell::new(0) }; SITE_CACHE_SLOTS] };
}

/// Record a site location under its id. Cheap when already registered by
/// this thread.
#[inline]
pub fn register_site(loc: &'static Location<'static>) {
    let id = loc as *const _ as u64;
    // Fibonacci hashing: the top log2(SITE_CACHE_SLOTS) bits of id·φ.
    let slot = (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SITE_CACHE_SLOTS.ilog2())) as usize;
    if SEEN_CACHE.with(|c| c[slot].get()) != id {
        register_site_slow(id, loc, slot);
    }
}

#[cold]
#[inline(never)]
fn register_site_slow(id: u64, loc: &'static Location<'static>, slot: usize) {
    let fresh = SEEN.with(|s| s.borrow_mut().insert(id));
    if fresh {
        let mut reg = REGISTRY.write();
        reg.get_or_insert_with(HashMap::new).insert(id, loc);
    }
    SEEN_CACHE.with(|c| c[slot].set(id));
}

/// Resolve a site id to `file:line:col`, if it was registered in this
/// process (ids from trace files recorded elsewhere resolve to `None`).
pub fn site_location(site: u64) -> Option<String> {
    REGISTRY
        .read()
        .as_ref()
        .and_then(|m| m.get(&site))
        .map(|l| format!("{}:{}:{}", l.file(), l.line(), l.column()))
}

/// Per-site traffic counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct SiteTraffic {
    /// Read events.
    pub reads: u64,
    /// Write events.
    pub writes: u64,
    /// Total bytes.
    pub bytes: u64,
}

const SHARDS: usize = 32;

/// Sink aggregating traffic per static access site.
pub struct SiteCounter {
    shards: Box<[Mutex<HashMap<u64, SiteTraffic>>]>,
    total: AtomicU64,
}

impl Default for SiteCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl SiteCounter {
    /// New empty counter.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            total: AtomicU64::new(0),
        }
    }

    /// Total events observed.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sites ranked by byte volume, descending, with resolved locations.
    pub fn hottest(&self, top_n: usize) -> Vec<(String, SiteTraffic)> {
        let mut all: Vec<(u64, SiteTraffic)> = Vec::new();
        for shard in self.shards.iter() {
            all.extend(shard.lock().iter().map(|(k, v)| (*k, *v)));
        }
        all.sort_by_key(|(_, t)| std::cmp::Reverse(t.bytes));
        all.into_iter()
            .take(top_n)
            .map(|(site, t)| {
                (
                    site_location(site).unwrap_or_else(|| format!("<site {site:#x}>")),
                    t,
                )
            })
            .collect()
    }

    /// Number of distinct sites observed.
    pub fn distinct_sites(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}

impl AccessSink for SiteCounter {
    fn on_access(&self, ev: &AccessEvent) {
        self.total.fetch_add(1, Ordering::Relaxed);
        let shard = (ev.site as usize >> 4) & (SHARDS - 1);
        let mut map = self.shards[shard].lock();
        let t = map.entry(ev.site).or_default();
        match ev.kind {
            AccessKind::Read => t.reads += 1,
            AccessKind::Write => t.writes += 1,
        }
        t.bytes += ev.size as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::TraceCtx;
    use crate::memory::TracedBuffer;
    use crate::registry::ThreadGuard;
    use std::sync::Arc;

    #[test]
    fn sites_resolve_to_this_file() {
        let counter = Arc::new(SiteCounter::new());
        let ctx = TraceCtx::new(counter.clone(), 1);
        let buf: TracedBuffer<u64> = ctx.alloc(4);
        let _t = ThreadGuard::register(0);
        for i in 0..10 {
            buf.store(i % 4, i as u64); // <- one site
        }
        let _ = buf.load(0); // <- another site
        assert_eq!(counter.total(), 11);
        assert_eq!(counter.distinct_sites(), 2);
        let hot = counter.hottest(10);
        assert_eq!(hot.len(), 2);
        assert!(
            hot[0].0.contains("sites.rs"),
            "unresolved hot site: {}",
            hot[0].0
        );
        assert_eq!(hot[0].1.writes, 10);
        assert_eq!(hot[1].1.reads, 1);
    }

    #[test]
    fn unknown_sites_render_as_hex() {
        let c = SiteCounter::new();
        c.on_access(&AccessEvent {
            tid: 0,
            addr: 0,
            size: 8,
            kind: AccessKind::Read,
            loop_id: crate::event::LoopId::NONE,
            parent_loop: crate::event::LoopId::NONE,
            func: crate::event::FuncId::NONE,
            site: 0xdead_0000,
        });
        let hot = c.hottest(1);
        assert!(hot[0].0.starts_with("<site"));
    }

    #[test]
    fn repeat_registrations_through_the_cache_resolve() {
        let locs = [Location::caller(), Location::caller(), Location::caller()];
        for _ in 0..3 {
            for loc in locs {
                register_site(loc);
            }
        }
        for loc in locs {
            assert_eq!(
                site_location(loc as *const _ as u64),
                Some(format!("{}:{}:{}", loc.file(), loc.line(), loc.column()))
            );
        }
    }

    #[test]
    fn registry_is_idempotent_across_threads() {
        let loc = Location::caller();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        register_site(loc);
                    }
                });
            }
        });
        assert!(site_location(loc as *const _ as u64).is_some());
    }
}
