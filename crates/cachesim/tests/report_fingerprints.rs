//! Byte identity of the canonical coherence report, pinned across backend
//! rewrites.
//!
//! A change meant only to speed the simulator up must leave every simulated
//! statistic identical. The fingerprints below are FNV-1a hashes of
//! [`canonical_coherence_report`] taken with the map-based backend (the
//! commit before the flat-state rewrite) over fixed-seed streams that cover
//! what a container change can disturb: uniform cache-missy traffic, a
//! hot/reuse mix, straddling 16–64 B unaligned accesses, a 64-thread fleet,
//! round-robin-interleaved false-sharing recordings, and a geometry sweep
//! down to direct-mapped and up to 64-way sets. A mismatch prints the whole
//! recomputed table; re-record only with a change that *means* to alter the
//! simulated statistics.
//!
//! The same fingerprints hold for the backend split into 2, 4 and 8
//! cache-set shards ([`ShardedCoherence`], each count clamped to the
//! geometry's set count), and a property checks the merged sharded report
//! against the unsharded one on random scripts.

use std::sync::Arc;

use lc_cachesim::{
    canonical_coherence_report, CoherenceBackend, CoherenceConfig, CoherenceReport,
    CoherenceTotals, ShardedCoherence,
};
use lc_trace::{
    synth_event, AccessEvent, AccessKind, FuncId, LoopId, RecordingSink, StampedEvent, TraceCtx,
};
use lc_workloads::{by_name, InputSize, RunConfig};
use proptest::prelude::*;

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn synth(n: u64, seed: u64, threads: u32, working_set: u64, reuse: f64) -> Vec<AccessEvent> {
    (0..n)
        .map(|i| synth_event(i, seed, threads, working_set, reuse).event)
        .collect()
}

/// Unaligned multi-word accesses: sizes 16/24/40/64 at a 4-byte skew, so
/// accesses straddle words and lines under every line size.
fn straddling(n: u64, seed: u64, threads: u32) -> Vec<AccessEvent> {
    let mut evs = synth(n, seed, threads, 1024, 0.3);
    for (i, e) in evs.iter_mut().enumerate() {
        e.size = [16, 24, 40, 64][i % 4];
        e.addr += (i as u64 % 3) * 4;
    }
    evs
}

/// Record a false-sharing kernel and interleave the threads round-robin by
/// per-thread ordinal: each thread's own stream depends only on the seed,
/// so the result is run-to-run stable yet keeps the line ping-pong the
/// thread-serial goldens flatten away.
fn interleaved_recording(name: &str) -> Vec<AccessEvent> {
    const THREADS: usize = 4;
    let rec = Arc::new(RecordingSink::new());
    let ctx = TraceCtx::new(rec.clone(), THREADS);
    by_name(name)
        .unwrap()
        .run(&ctx, &RunConfig::new(THREADS, InputSize::SimDev, 13));
    let mut evs: Vec<StampedEvent> = rec.finish().events().to_vec();
    evs.sort_by_key(|e| (e.event.tid, e.seq));
    let mut ordinal = [0u64; THREADS];
    let mut keyed: Vec<(u64, AccessEvent)> = evs
        .iter()
        .map(|e| {
            let k = &mut ordinal[e.event.tid as usize];
            *k += 1;
            (*k, e.event)
        })
        .collect();
    keyed.sort_by_key(|&(k, e)| (k, e.tid));
    keyed.into_iter().map(|(_, e)| e).collect()
}

/// What [`CoherenceBackend::totals`] must equal, read off a full report.
fn totals_of(rep: &CoherenceReport) -> CoherenceTotals {
    CoherenceTotals {
        accesses: rep.accesses,
        invalidations: rep.invalidations,
        c2c_fills: rep.c2c_fills,
        writebacks: rep.writebacks,
        true_bytes: rep.global.true_bytes(),
        false_bytes: rep.global.false_bytes,
        false_sharing_events: rep.false_sharing_events(),
    }
}

/// The canonical report's fingerprint with the backend split into
/// `shards` cache-set shards (clamped to the set count); one shard is the
/// plain backend, whose scrape counters are checked too.
fn fingerprint(cfg: CoherenceConfig, threads: usize, evs: &[AccessEvent], shards: usize) -> u64 {
    let rep = if shards == 1 {
        let mut b = CoherenceBackend::new(cfg, threads);
        b.on_block(evs);
        let rep = b.report();
        assert_eq!(b.totals(), totals_of(&rep));
        rep
    } else {
        let n = shards.min(cfg.cache_config().sets);
        let mut b = ShardedCoherence::new(cfg, threads, n);
        for block in evs.chunks(1000) {
            b.on_block(block).unwrap();
        }
        b.finish().unwrap()
    };
    fnv1a(&canonical_coherence_report(&rep))
}

fn computed(shards: usize) -> Vec<(String, u64)> {
    let fingerprint = |cfg, threads, evs: &[AccessEvent]| fingerprint(cfg, threads, evs, shards);
    let dflt = CoherenceConfig::default();
    let small = CoherenceConfig {
        line_bytes: 64,
        cache_kib: 1,
        assoc: 2,
    };
    let unpadded = interleaved_recording("fs_unpadded");
    let straddle = interleaved_recording("fs_straddle");
    let mut out = vec![
        // The `coh_uniform` benchmark shape: seed 2·42+1, 8 threads, 64 Ki words.
        (
            "uniform".to_string(),
            fingerprint(dflt, 8, &synth(200_000, 85, 8, 65_536, 0.0)),
        ),
        (
            "hot_mix".to_string(),
            fingerprint(dflt, 8, &synth(100_000, 15, 8, 4096, 0.5)),
        ),
        (
            "straddling".to_string(),
            fingerprint(dflt, 4, &straddling(60_000, 23, 4)),
        ),
        (
            "threads64".to_string(),
            fingerprint(dflt, 64, &synth(60_000, 7, 64, 2048, 0.25)),
        ),
        ("fs_unpadded".to_string(), fingerprint(dflt, 4, &unpadded)),
        ("fs_straddle".to_string(), fingerprint(dflt, 4, &straddle)),
        (
            "fs_unpadded_small".to_string(),
            fingerprint(small, 4, &unpadded),
        ),
        (
            "fs_straddle_small".to_string(),
            fingerprint(small, 4, &straddle),
        ),
    ];
    let mut sweep = straddling(20_000, 31, 4);
    sweep.extend(synth(20_000, 33, 4, 8192, 0.2));
    for line_bytes in [16, 64, 512] {
        for assoc in [1, 4, 64] {
            for cache_kib in [1, 16] {
                let cfg = CoherenceConfig {
                    line_bytes,
                    cache_kib,
                    assoc,
                };
                if cfg.validate().is_ok() {
                    out.push((
                        format!("geom_l{line_bytes}_a{assoc}_k{cache_kib}"),
                        fingerprint(cfg, 4, &sweep),
                    ));
                }
            }
        }
    }
    out
}

/// Recorded at commit 14ce557 (the `HashMap`/`BTreeMap` backend).
const PINNED: &[(&str, u64)] = &[
    ("uniform", 0xf36d322b475944db),
    ("hot_mix", 0x591b70602f29e7b9),
    ("straddling", 0xa05de2acf9ffce4a),
    ("threads64", 0x9f12a19bac95a7f4),
    ("fs_unpadded", 0xf7bf6704530e85ee),
    ("fs_straddle", 0xa5d35bb091579dc5),
    ("fs_unpadded_small", 0x699a6ab6fa8a7b36),
    ("fs_straddle_small", 0xecaac59d8fc6298d),
    ("geom_l16_a1_k1", 0xb7d6e10c6a6140d2),
    ("geom_l16_a1_k16", 0x501553265f239a60),
    ("geom_l16_a4_k1", 0x557dc3f038ead4da),
    ("geom_l16_a4_k16", 0x37139b535960697c),
    ("geom_l16_a64_k1", 0x378e9fa99e97b5bf),
    ("geom_l16_a64_k16", 0x6ab8b39ce43ed6e0),
    ("geom_l64_a1_k1", 0xa3e2995de39f6edf),
    ("geom_l64_a1_k16", 0x56a4146711922094),
    ("geom_l64_a4_k1", 0x1f9696fb6765b904),
    ("geom_l64_a4_k16", 0x4198c08ceeaa480e),
    ("geom_l64_a64_k16", 0x5d50e89ab7026ab7),
    ("geom_l512_a1_k1", 0x164ebfa5a0b78a22),
    ("geom_l512_a1_k16", 0x06624be7c96f0e62),
    ("geom_l512_a4_k16", 0x1915317bc3b94ba9),
];

fn assert_pinned(shards: usize) {
    let got = computed(shards);
    let table: String = got
        .iter()
        .map(|(n, f)| format!("    (\"{n}\", {f:#018x}),\n"))
        .collect();
    let want: Vec<(String, u64)> = PINNED.iter().map(|&(n, f)| (n.to_string(), f)).collect();
    assert!(
        got == want,
        "fingerprints moved at {shards} shard(s); recomputed table:\n{table}"
    );
}

#[test]
fn canonical_reports_match_the_pinned_fingerprints() {
    assert_pinned(1);
}

/// Includes `geom_l16_a64_k1`, whose one set clamps every count to 1.
#[test]
fn sharded_canonical_reports_match_the_pinned_fingerprints() {
    for shards in [2, 4, 8] {
        assert_pinned(shards);
    }
}

/// `(tid, word slot, is_write, loop, size index)`.
fn arb_event() -> impl Strategy<Value = (u32, u64, bool, u32, usize)> {
    (0u32..4, 0u64..40, any::<bool>(), 1u32..4, 0usize..3)
}

fn to_events(script: &[(u32, u64, bool, u32, usize)]) -> Vec<AccessEvent> {
    script
        .iter()
        .map(|&(tid, slot, write, lid, sz)| AccessEvent {
            tid,
            addr: 0x1000 + slot * 8,
            size: [8, 8, 24][sz],
            kind: if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            loop_id: LoopId(lid),
            parent_loop: LoopId::NONE,
            func: FuncId::NONE,
            site: 0,
        })
        .collect()
}

/// `(tid, word, size index, loop, byte skew, write)` of a wilder script:
/// tids past the 4 simulated threads, loops 0 (none) to 11, accesses from
/// one byte to line-straddling (up to 10 lines, more than any shard
/// count) to clamped (2^17 and 2^32 − 1 bytes, or running off the top of
/// the address space). Clamped sizes are 1 in 25: each costs 1024
/// line-accesses per backend.
fn arb_wild_event() -> impl Strategy<Value = (u32, u64, usize, u32, u64, bool)> {
    (
        0u32..6,
        0u64..400,
        0usize..50,
        0u32..12,
        0u64..8,
        any::<bool>(),
    )
}

fn to_wild_events(script: &[(u32, u64, usize, u32, u64, bool)]) -> Vec<AccessEvent> {
    script
        .iter()
        .map(|&(tid, word, sz, lid, skew, write)| {
            let size = match sz {
                48 => 1 << 17,
                49 => u32::MAX,
                _ => [8, 8, 8, 8, 8, 8, 8, 1, 4, 16, 16, 24, 72, 72, 200, 600][sz % 16],
            };
            // One word in 40 sits just below the top of the address space.
            let addr = if word % 40 == 39 {
                u64::MAX - (word % 8) * 16 - skew
            } else {
                0x1000 + word * 8 / 3 + skew
            };
            AccessEvent {
                tid,
                addr,
                size,
                kind: if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                loop_id: LoopId(lid),
                parent_loop: LoopId::NONE,
                func: FuncId::NONE,
                site: 0,
            }
        })
        .collect()
}

proptest! {
    /// The merged report of 2, 4 and 8 cache-set shards equals the
    /// unsharded one byte for byte, for any block split; fed the whole
    /// stream, the shards count each access and each clamped access once.
    #[test]
    fn sharded_report_equals_the_unsharded_one(
        script in prop::collection::vec(arb_wild_event(), 1..300),
        cuts in prop::collection::vec(1usize..64, 1..16),
    ) {
        let cfg = CoherenceConfig { line_bytes: 64, cache_kib: 1, assoc: 2 };
        let script = to_wild_events(&script);
        let mut whole = CoherenceBackend::new(cfg, 4);
        whole.on_block(&script);
        let whole = whole.report();
        let want = canonical_coherence_report(&whole);
        for n in [2, 4, 8] {
            let mut sharded = ShardedCoherence::new(cfg, 4, n);
            let mut rest = &script[..];
            for &cut in cuts.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (block, tail) = rest.split_at(cut.min(rest.len()));
                sharded.on_block(block).unwrap();
                rest = tail;
            }
            let merged = sharded.finish().unwrap();
            prop_assert_eq!(canonical_coherence_report(&merged), want.clone());

            let parts: Vec<CoherenceReport> = (0..n)
                .map(|k| {
                    let mut shard = CoherenceBackend::shard(cfg, 4, k, n);
                    shard.on_block(&script);
                    shard.report()
                })
                .collect();
            let accesses: u64 = parts.iter().map(|r| r.accesses).sum();
            let clamped: u64 = parts.iter().map(|r| r.clamped_accesses).sum();
            prop_assert_eq!(accesses, whole.accesses);
            prop_assert_eq!(clamped, whole.clamped_accesses);
            let mut parts = parts.into_iter();
            let mut merged = parts.next().unwrap();
            parts.for_each(|p| merged.merge(p));
            prop_assert_eq!(canonical_coherence_report(&merged), want.clone());
        }
    }

    /// Snapshots are non-destructive: a `report()` taken mid-stream charges
    /// live pending sets on a copy, so the end report equals that of a
    /// backend that was never snapshotted. And `totals()` — what metrics
    /// scrapes read instead of a report — agrees with the report each time.
    #[test]
    fn mid_stream_report_does_not_disturb_the_end_report(
        script in prop::collection::vec(arb_event(), 1..300),
        cut in 0usize..300,
    ) {
        let cfg = CoherenceConfig { line_bytes: 64, cache_kib: 1, assoc: 2 };
        let script = to_events(&script);
        let cut = cut.min(script.len());
        let mut snap = CoherenceBackend::new(cfg, 4);
        snap.on_block(&script[..cut]);
        let mid = snap.report();
        prop_assert_eq!(snap.totals(), totals_of(&mid));
        let mid = canonical_coherence_report(&mid);
        let mut prefix = CoherenceBackend::new(cfg, 4);
        prefix.on_block(&script[..cut]);
        prop_assert_eq!(mid, canonical_coherence_report(&prefix.report()));
        snap.on_block(&script[cut..]);
        let mut fresh = CoherenceBackend::new(cfg, 4);
        fresh.on_block(&script);
        prop_assert_eq!(
            canonical_coherence_report(&snap.report()),
            canonical_coherence_report(&fresh.report())
        );
        prop_assert_eq!(snap.totals(), totals_of(&fresh.report()));
    }
}
