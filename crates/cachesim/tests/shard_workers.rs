//! Shard counts against worker counts.
//!
//! [`ShardedCoherence`] runs its cache-set shards on whichever worker is
//! free — the calling thread or one of its helpers — so which thread
//! simulates which chunk changes from run to run. None of that may reach
//! the report: over the streams `report_fingerprints.rs` pins (uniform,
//! hot/reuse, straddling, 64 threads, interleaved false-sharing
//! recordings, a geometry sweep), 1, 2, 4 and 8 shards run by the
//! calling thread alone or beside 1 or 3 helpers must each render the
//! canonical report of one unsharded backend, byte for byte.

use std::sync::Arc;

use lc_cachesim::{
    canonical_coherence_report, CoherenceBackend, CoherenceConfig, ShardedCoherence,
};
use lc_trace::{synth_event, AccessEvent, RecordingSink, StampedEvent, TraceCtx};
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

/// Every pinned stream at 1, 2, 4 and 8 shards (clamped to the set
/// count) with `helpers` helper threads.
fn reports_like_one_backend(helpers: usize) {
    let streams = streams();
    assert_eq!(streams.len(), 22, "the pinned streams");
    for (name, cfg, threads, evs) in &streams {
        let mut one = CoherenceBackend::new(*cfg, *threads);
        one.on_block(evs);
        let want = canonical_coherence_report(&one.report());
        for shards in [1, 2, 4, 8] {
            let shards = shards.min(cfg.cache_config().sets);
            let mut b = ShardedCoherence::with_helpers(*cfg, *threads, shards, helpers, 1024);
            assert_eq!(b.shards(), shards);
            for block in evs.chunks(1000) {
                b.on_block(block).unwrap();
            }
            let got = canonical_coherence_report(&b.finish().unwrap());
            assert!(
                got == want,
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
