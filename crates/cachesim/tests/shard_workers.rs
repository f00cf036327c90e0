//! Shard counts against worker counts.
//!
//! [`ShardedCoherence`] runs its cache-set shards on whichever worker is
//! free — the calling thread or one of its helpers — so which thread
//! simulates which chunk changes from run to run. None of that may reach
//! the report: over the streams `report_fingerprints.rs` pins (uniform,
//! hot/reuse, straddling, 64 threads, interleaved false-sharing
//! recordings, a geometry sweep), 1, 2, 4, 8 and 16 shards run by the
//! calling thread alone or beside 1 or 3 helpers must each stream — on
//! as many threads as simulated it — the canonical report of one
//! unsharded backend, byte for byte. So must scopes that only some shards
//! hold rows of, or hold at all.

use std::sync::Arc;

use lc_cachesim::{
    canonical_coherence_report, write_coherence_report, CoherenceBackend, CoherenceConfig,
    ShardedCoherence,
};
use lc_trace::{
    synth_event, AccessEvent, AccessKind, FuncId, LoopId, RecordingSink, StampedEvent, TraceCtx,
};
use lc_workloads::{by_name, InputSize, RunConfig};

fn synth(n: u64, seed: u64, threads: u32, working_set: u64, reuse: f64) -> Vec<AccessEvent> {
    (0..n)
        .map(|i| synth_event(i, seed, threads, working_set, reuse).event)
        .collect()
}

/// Sizes 16/24/40/64 at a 4-byte skew: accesses straddle words and lines.
fn straddling(n: u64, seed: u64, threads: u32) -> Vec<AccessEvent> {
    let mut evs = synth(n, seed, threads, 1024, 0.3);
    for (i, e) in evs.iter_mut().enumerate() {
        e.size = [16, 24, 40, 64][i % 4];
        e.addr += (i as u64 % 3) * 4;
    }
    evs
}

/// A false-sharing kernel's recording, its threads interleaved round-robin
/// by per-thread ordinal.
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
    let mut keyed: Vec<(u64, AccessEvent)> = (evs.iter())
        .map(|e| {
            let k = &mut ordinal[e.event.tid as usize];
            *k += 1;
            (*k, e.event)
        })
        .collect();
    keyed.sort_by_key(|&(k, e)| (k, e.tid));
    keyed.into_iter().map(|(_, e)| e).collect()
}

/// `(name, geometry, threads, stream)` for every pinned stream.
fn streams() -> Vec<(String, CoherenceConfig, usize, Vec<AccessEvent>)> {
    let dflt = CoherenceConfig::default();
    let small = CoherenceConfig {
        line_bytes: 64,
        cache_kib: 1,
        assoc: 2,
    };
    let unpadded = interleaved_recording("fs_unpadded");
    let straddle = interleaved_recording("fs_straddle");
    let mut out = vec![
        (
            "uniform".into(),
            dflt,
            8,
            synth(200_000, 85, 8, 65_536, 0.0),
        ),
        ("hot_mix".into(), dflt, 8, synth(100_000, 15, 8, 4096, 0.5)),
        ("straddling".into(), dflt, 4, straddling(60_000, 23, 4)),
        (
            "threads64".into(),
            dflt,
            64,
            synth(60_000, 7, 64, 2048, 0.25),
        ),
        ("fs_unpadded".into(), dflt, 4, unpadded.clone()),
        ("fs_straddle".into(), dflt, 4, straddle.clone()),
        ("fs_unpadded_small".into(), small, 4, unpadded),
        ("fs_straddle_small".into(), small, 4, straddle),
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
                    let name = format!("geom_l{line_bytes}_a{assoc}_k{cache_kib}");
                    out.push((name, cfg, 4, sweep.clone()));
                }
            }
        }
    }
    out
}

/// The report of `evs` run as `shards` cache-set shards beside `helpers`
/// helper threads, streamed on as many threads as simulated it.
fn streamed(
    cfg: CoherenceConfig,
    threads: usize,
    evs: &[AccessEvent],
    shards: usize,
    helpers: usize,
) -> Vec<u8> {
    let mut b = ShardedCoherence::with_helpers(cfg, threads, shards, helpers, 1024);
    assert_eq!(b.shards(), shards);
    for block in evs.chunks(1000) {
        b.on_block(block).unwrap();
    }
    let workers = b.workers();
    let mut out = Vec::new();
    write_coherence_report(&b.finish().unwrap(), workers, &mut out).unwrap();
    out
}

/// Every pinned stream at 1, 2, 4, 8 and 16 shards (clamped to the set
/// count) with `helpers` helper threads.
fn reports_like_one_backend(helpers: usize) {
    let streams = streams();
    assert_eq!(streams.len(), 22, "the pinned streams");
    for (name, cfg, threads, evs) in &streams {
        let mut one = CoherenceBackend::new(*cfg, *threads);
        one.on_block(evs);
        let want = canonical_coherence_report(&one.report());
        for shards in [1, 2, 4, 8, 16] {
            let shards = shards.min(cfg.cache_config().sets);
            let got = streamed(*cfg, *threads, evs, shards, helpers);
            assert!(
                got == want.as_bytes(),
                "{name}: {shards} shard(s), {helpers} helper(s) differ from one backend"
            );
        }
    }
}

#[test]
fn the_calling_thread_alone_reports_like_one_backend() {
    reports_like_one_backend(0);
}

#[test]
fn one_helper_reports_like_one_backend() {
    reports_like_one_backend(1);
}

#[test]
fn three_helpers_report_like_one_backend() {
    reports_like_one_backend(3);
}

/// An access by `tid` to word `word` of 64 B line `line` in loop `lid`.
fn at(tid: u32, line: u64, word: u64, kind: AccessKind, lid: u32) -> AccessEvent {
    AccessEvent {
        tid,
        addr: line * 64 + word * 8,
        size: 8,
        kind,
        loop_id: LoopId(lid),
        parent_loop: LoopId::NONE,
        func: FuncId::NONE,
        site: 0,
    }
}

/// Scopes the shards hold unevenly, at 4 shards (a line is shard
/// `line % 4`'s): loop 1 false-shares lines of every shard; loop 2 only
/// lines of shard 0, so no other shard interns it; loop 3 false-shares
/// lines of shard 0 and only reads unwritten lines of shard 2, which
/// then holds its traffic but no rows of it; loop 4 only reads unwritten
/// lines of every shard, so every shard holds it and none has rows of it.
fn uneven_scopes() -> Vec<AccessEvent> {
    use AccessKind::{Read, Write};
    let mut evs = Vec::new();
    for _round in 0..20 {
        for line in 0..64 {
            evs.extend([at(0, line, 0, Write, 1), at(1, line, 1, Write, 1)]);
        }
        for line in (1000..1064).step_by(4) {
            evs.extend([at(2, line, 2, Write, 2), at(3, line, 3, Write, 2)]);
            evs.extend([
                at(0, line + 2000, 0, Write, 3),
                at(1, line + 2000, 5, Write, 3),
            ]);
            evs.extend([
                at(2, line + 4002, 1, Read, 3),
                at(3, line + 6000 + line / 4 % 4, 1, Read, 4),
            ]);
        }
    }
    evs
}

#[test]
fn scopes_some_shards_lack_stream_like_one_backend() {
    let cfg = CoherenceConfig::default();
    let evs = uneven_scopes();
    let mut one = CoherenceBackend::new(cfg, 4);
    one.on_block(&evs);
    let one = one.report();
    let want = canonical_coherence_report(&one);
    let rows = |lid: u32| one.loops[&lid].lines().count();
    assert!(rows(1) >= 64 && rows(2) > 0 && rows(3) > 0, "{want}");
    assert_eq!(rows(4), 0, "loop 4 shares nothing");
    assert!(!one.loops[&4].is_zero(), "but has bus traffic");
    for (lid, shards) in [(2, vec![0]), (3, vec![0, 2]), (4, vec![0, 1, 2, 3])] {
        let held: Vec<usize> = (0..4)
            .filter(|&k| {
                let mut shard = CoherenceBackend::shard(cfg, 4, k, 4);
                shard.on_block(&evs);
                shard.report().loops.contains_key(&lid)
            })
            .collect();
        assert_eq!(held, shards, "the shards holding loop {lid}");
    }
    for shards in [1, 2, 4, 8, 16] {
        for helpers in [0, 1, 3] {
            let got = streamed(cfg, 4, &evs, shards, helpers);
            assert!(
                got == want.as_bytes(),
                "{shards} shard(s), {helpers} helper(s) differ from one backend"
            );
        }
    }
}
