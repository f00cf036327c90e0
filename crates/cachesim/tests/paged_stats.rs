//! Per-loop false-sharing stats are kept in pages of directory indices:
//! a loop charged on lines whose indices lie many pages apart must report
//! exactly what the unsharded backend reports, at any shard count, and
//! the loop cap must latch on the stream's loops, not one shard's.

use lc_cachesim::{
    canonical_coherence_report, CoherenceBackend, CoherenceConfig, ShardedCoherence,
};
use lc_trace::{AccessEvent, AccessKind, FuncId, LoopId};
use proptest::prelude::*;

const LINES: u64 = 2048;

fn ev(tid: u32, line: u64, word: u64, kind: AccessKind, lid: u32) -> AccessEvent {
    AccessEvent {
        tid,
        addr: 0x10_0000 + line * 64 + word * 8,
        size: 8,
        kind,
        loop_id: LoopId(lid),
        parent_loop: LoopId::NONE,
        func: FuncId::NONE,
        site: 0,
    }
}

/// Loop 1 reads `LINES` lines first, so they take directory indices in
/// that order; then loop 2 writes and reads the picked ones.
fn stream(picks: &[(u32, u64, u64, bool)]) -> Vec<AccessEvent> {
    let prefix = (0..LINES).map(|l| ev(l as u32 % 4, l, 0, AccessKind::Read, 1));
    let body = picks.iter().map(|&(tid, line, word, write)| {
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        ev(tid, line, word, kind, 2)
    });
    prefix.chain(body).collect()
}

fn sharded(cfg: CoherenceConfig, evs: &[AccessEvent], n: usize, cap: usize) -> String {
    let mut b = ShardedCoherence::with_loop_capacity(cfg, 4, n, cap);
    for block in evs.chunks(500) {
        b.on_block(block).unwrap();
    }
    canonical_coherence_report(&b.finish().unwrap())
}

proptest! {
    #[test]
    fn a_loop_charged_pages_apart_reports_alike_at_1_and_2_shards(
        picks in prop::collection::vec((0u32..4, 0u64..LINES, 0u64..8, any::<bool>()), 1..600),
    ) {
        // 16 KiB, 4-way: the 2048 lines evict one another, so pending
        // sets are flushed as well as snapshotted.
        let cfg = CoherenceConfig::default();
        let evs = stream(&picks);
        let mut one = CoherenceBackend::new(cfg, 4);
        one.on_block(&evs);
        let want = canonical_coherence_report(&one.report());
        prop_assume!(want.contains("\nloop 2\n"));
        prop_assert_eq!(sharded(cfg, &evs, 2, 1024), want);
    }
}

/// Two shards each seeing fewer loops than the cap still latch the
/// overflow when their union is over it, as one backend does.
#[test]
fn the_loop_cap_counts_the_union_of_the_shards_loops() {
    let cfg = CoherenceConfig::default();
    // Loop `i` touches only line `i`: even loops land in shard 0, odd in
    // shard 1, 40 loops in all against a cap of 32.
    let evs: Vec<AccessEvent> = (0..40u64)
        .map(|i| ev(0, i, 0, AccessKind::Write, i as u32))
        .collect();
    let mut one = CoherenceBackend::new(cfg, 4).with_loop_capacity(32);
    one.on_block(&evs);
    assert!(one.report().loop_overflow.is_some());
    let mut b = ShardedCoherence::with_loop_capacity(cfg, 4, 2, 32);
    b.on_block(&evs).unwrap();
    let rep = b.finish().unwrap();
    assert_eq!(rep.loop_overflow.map(|e| e.capacity), Some(32));
    // Under the cap, nothing latches.
    let mut b = ShardedCoherence::with_loop_capacity(cfg, 4, 2, 64);
    b.on_block(&evs).unwrap();
    assert!(b.finish().unwrap().loop_overflow.is_none());
}
