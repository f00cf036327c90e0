//! Offline replay scaling: slot-sharded parallel analysis throughput.
//!
//! Reports events/second over one recorded trace for
//!
//! * the **per-event** sequential path (`on_access` loop) — the baseline
//!   the fused engine must beat;
//! * the **fused** zero-materialization path (`on_block_fused` straight
//!   over the in-RAM SoA trace), swept over block sizes;
//! * the **spool-fused** path: the trace written to a v3 spool and read
//!   back one segment at a time straight into the fused engine — the full
//!   read-checksum-decode-detect pipeline with no intermediate `Vec`;
//! * the **coherence** backend (`CoherenceBackend::on_block`, the
//!   `--coherence` cost) on the same trace — reported against the fused
//!   rate so the MESI hot path cannot silently slide back onto maps;
//! * the **slot-sharded** parallel path (`analyze_trace_asymmetric`) with
//!   coalescing on and off.
//!
//! The first four feed CI's perf gate, so they are timed in rounds: each
//! round runs per-event, every fused block size, spool-fused and
//! coherence once, in that order, and a path's figure is its median over
//! [`ROUNDS`] rounds. A slow spell on the host then lands on every path
//! alike, instead of on whichever path happened to be running.
//!
//! Every mode must report the identical dependence count — the benchmark
//! asserts it, so a run doubles as a coarse equivalence check (the precise
//! one lives in `tests/parallel_replay_equivalence.rs`).
//!
//! Environment knobs: `BENCH_EVENTS` (trace length, default 400000),
//! `BENCH_JOBS` (comma-separated sweep, default `1,2,4`), `BENCH_BATCH`
//! (batch-size sweep, default `256,1024,4096`).

use std::time::Instant;

use lc_bench::{ascii_table, results_dir, save_csv, save_metrics};
use lc_cachesim::{CoherenceBackend, CoherenceConfig};
use lc_profiler::raw::AsymmetricDetector;
use lc_profiler::{
    analyze_trace_asymmetric, AccumConfig, AsymmetricProfiler, FusedScratch, MetricsRegistry,
    ParReplayConfig, ProfilerConfig,
};
use lc_sigmem::SignatureConfig;
use lc_trace::{
    AccessEvent, AccessKind, AccessSink, FuncId, LoopId, MmapTrace, StampedEvent, Trace,
};

const THREADS: usize = 8;
const SLOTS: usize = 1 << 16;
const LOOPS: u32 = 8;
const WORDS: u64 = 64;
/// Rounds of the gated paths; each figure is the median over them.
const ROUNDS: usize = 7;
/// Events per spool segment, and the coherence backend's block size: the
/// blocks `analyze --coherence` hands both engines on a v3 spool.
const SEGMENT_EVENTS: usize = 4096;

/// Producer/consumer trace with run structure: each thread writes a block
/// of words, then sweeps its ring-neighbour's block — so runs of
/// same-thread same-kind accesses exist for coalescing to fold, and a
/// fixed fraction of reads carry a cross-thread RAW.
fn synth_trace(events: u64) -> Trace {
    let mut evs = Vec::with_capacity(events as usize);
    let mut seq = 0u64;
    while seq < events {
        let round = seq / (2 * WORDS * THREADS as u64);
        for tid in 0..THREADS as u32 {
            let me = tid as u64 * WORDS;
            let neighbour = ((tid as usize + 1) % THREADS) as u64 * WORDS;
            let l = LoopId(1 + (round as u32 % LOOPS));
            for w in 0..WORDS {
                for (base, kind) in [(me, AccessKind::Write), (neighbour, AccessKind::Read)] {
                    if seq >= events {
                        break;
                    }
                    evs.push(StampedEvent {
                        seq,
                        event: AccessEvent {
                            tid,
                            addr: 0x1000 + (base + w) * 8,
                            size: 8,
                            kind,
                            loop_id: l,
                            parent_loop: LoopId::NONE,
                            func: FuncId::NONE,
                            site: 0,
                        },
                    });
                    seq += 1;
                }
            }
        }
    }
    Trace::new(evs)
}

fn make_profiler() -> AsymmetricProfiler {
    AsymmetricProfiler::from_detector_with(
        AsymmetricDetector::asymmetric(SignatureConfig::paper_default(SLOTS, THREADS)),
        ProfilerConfig::nested(THREADS),
        AccumConfig::default(),
    )
}

/// Per-event delivery: wall time and dependence count.
fn per_event(events: &[AccessEvent]) -> (f64, u64) {
    let p = make_profiler();
    let t0 = Instant::now();
    for ev in events {
        p.on_access(ev);
    }
    p.flush();
    (t0.elapsed().as_secs_f64(), p.dependencies())
}

/// The fused engine over `batch`-event slices: wall time and dependence
/// count.
fn fused(events: &[AccessEvent], batch: usize) -> (f64, u64) {
    let p = make_profiler();
    let mut scratch = FusedScratch::with_defaults();
    let t0 = Instant::now();
    for block in events.chunks(batch) {
        p.on_block_fused(block, &mut scratch);
    }
    p.flush();
    (t0.elapsed().as_secs_f64(), p.dependencies())
}

/// The fused engine fed by the spool reader: wall time and dependence
/// count.
fn spool_fused(spool: &MmapTrace) -> (f64, u64) {
    let p = make_profiler();
    let mut scratch = FusedScratch::with_defaults();
    let t0 = Instant::now();
    spool
        .stream_from(0, |frame| p.on_block_fused(frame, &mut scratch))
        .expect("spool replay");
    p.flush();
    (t0.elapsed().as_secs_f64(), p.dependencies())
}

/// The MESI backend: wall time and invalidations (its repeat-run
/// cross-check).
fn coherence(events: &[AccessEvent]) -> (f64, u64) {
    let mut b = CoherenceBackend::new(CoherenceConfig::default(), THREADS);
    let t0 = Instant::now();
    for block in events.chunks(SEGMENT_EVENTS) {
        b.on_block(block);
    }
    (t0.elapsed().as_secs_f64(), b.totals().invalidations)
}

fn median(mut secs: Vec<f64>) -> f64 {
    secs.sort_by(f64::total_cmp);
    secs[secs.len() / 2]
}

/// Best-of-3 wall time for the ungated table rows; the measured closure
/// returns the dependence count so every mode's result can be
/// cross-checked.
fn best_of_3(mut run: impl FnMut() -> (f64, u64)) -> (f64, u64) {
    let mut best: Option<(f64, u64)> = None;
    for _ in 0..3 {
        let r = run();
        if let Some(b) = best {
            assert_eq!(b.1, r.1, "repeat runs saw different dependence counts");
        }
        if best.is_none_or(|b| r.0 < b.0) {
            best = Some(r);
        }
    }
    best.unwrap()
}

fn main() {
    let events: u64 = std::env::var("BENCH_EVENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(400_000);
    let jobs_sweep: Vec<usize> = std::env::var("BENCH_JOBS")
        .ok()
        .map(|v| v.split(',').filter_map(|t| t.parse().ok()).collect())
        .unwrap_or_else(|| vec![1, 2, 4]);
    let batch_sweep: Vec<usize> = std::env::var("BENCH_BATCH")
        .ok()
        .map(|v| v.split(',').filter_map(|t| t.parse().ok()).collect())
        .unwrap_or_else(|| vec![256, 1024, 4096]);
    assert!(
        !batch_sweep.is_empty(),
        "BENCH_BATCH sweep must be non-empty"
    );

    let trace = synth_trace(events);
    println!(
        "\nOffline replay scaling: {} events, {} threads in trace \
         (host has {} CPU(s) — above that, workers time-share)\n",
        trace.len(),
        THREADS,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let evs = trace.access_events();
    let tput = |secs: f64| events as f64 / secs / 1e6;

    // The spool-fused path reads the trace back from a v3 spool on disk.
    let spool_path =
        std::env::temp_dir().join(format!("lc_bench_fused_{}.lcspool", std::process::id()));
    {
        let mut w = lc_trace::SpoolV3Writer::create(&spool_path).expect("create bench spool");
        for frame in trace.events().chunks(SEGMENT_EVENTS) {
            w.append_frame(frame).expect("write bench spool");
        }
        w.finish().expect("finish bench spool");
    }
    let spool = MmapTrace::open(&spool_path).expect("open bench spool");

    // The gated paths, alternated round by round.
    let mut base_deps: Option<u64> = None;
    let mut check = |what: &str, deps: u64| {
        assert_eq!(
            *base_deps.get_or_insert(deps),
            deps,
            "{what} changed detection"
        );
    };
    let mut invalidations: Option<u64> = None;
    let mut per_event_s = Vec::new();
    let mut fused_s = vec![Vec::new(); batch_sweep.len()];
    let mut spool_s = Vec::new();
    let mut coherence_s = Vec::new();
    for _ in 0..ROUNDS {
        let (s, deps) = per_event(evs);
        check("per-event replay", deps);
        per_event_s.push(s);
        for (times, &batch) in fused_s.iter_mut().zip(&batch_sweep) {
            let (s, deps) = fused(evs, batch);
            check("fused replay", deps);
            times.push(s);
        }
        let (s, deps) = spool_fused(&spool);
        check("spool-fused replay", deps);
        spool_s.push(s);
        let (s, inv) = coherence(evs);
        assert_eq!(
            *invalidations.get_or_insert(inv),
            inv,
            "repeat coherence runs disagree"
        );
        coherence_s.push(s);
    }
    let base_deps = base_deps.expect("at least one round");
    drop(spool);
    let _ = std::fs::remove_file(&spool_path);
    let _ = std::fs::remove_file(lc_trace::index_path(&spool_path));

    let per_event_s = median(per_event_s);
    let fused_s: Vec<f64> = fused_s.into_iter().map(median).collect();
    let (best, &fused_s_best) = fused_s
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .expect("non-empty sweep");
    let fused_batch = batch_sweep[best];
    let spool_s = median(spool_s);
    let coherence_s = median(coherence_s);

    let row = |mode: &str, jobs: usize, batch: String, coalesce: bool, secs: f64, deps: String| {
        vec![
            mode.to_string(),
            jobs.to_string(),
            batch,
            if coalesce { "on" } else { "off" }.into(),
            format!("{:.2}", tput(secs)),
            deps,
        ]
    };
    let mut rows = vec![row(
        "per-event",
        1,
        "-".into(),
        false,
        per_event_s,
        base_deps.to_string(),
    )];
    for (&batch, &s) in batch_sweep.iter().zip(&fused_s) {
        rows.push(row(
            "fused",
            1,
            batch.to_string(),
            false,
            s,
            base_deps.to_string(),
        ));
    }
    rows.push(row(
        "spool-fused",
        1,
        SEGMENT_EVENTS.to_string(),
        false,
        spool_s,
        base_deps.to_string(),
    ));
    rows.push(row(
        "coherence",
        1,
        SEGMENT_EVENTS.to_string(),
        false,
        coherence_s,
        "-".into(),
    ));

    let mut reg = MetricsRegistry::new();
    reg.gauge(
        "loopcomm_bench_replay_events",
        "Trace length used for the replay-scaling sweep",
        events as f64,
    );
    reg.gauge(
        "loopcomm_bench_replay_per_event_mev_s",
        "Sequential per-event replay throughput, Mevents/s",
        tput(per_event_s),
    );
    reg.gauge(
        "loopcomm_bench_replay_fused_mev_s",
        "Fused zero-materialization replay throughput (best batch size), Mevents/s",
        tput(fused_s_best),
    );
    reg.gauge(
        "loopcomm_bench_replay_fused_best_batch",
        "Batch size that maximised fused replay throughput",
        fused_batch as f64,
    );
    reg.gauge(
        "loopcomm_bench_replay_spool_fused_mev_s",
        "Fused replay throughput fed by the v3 spool reader, Mevents/s",
        tput(spool_s),
    );
    reg.gauge(
        "loopcomm_bench_replay_coherence_mev_s",
        "MESI coherence backend throughput on the bench trace, Mevents/s",
        tput(coherence_s),
    );

    for &jobs in &jobs_sweep {
        for &batch in &batch_sweep {
            for coalesce in [false, true] {
                let (secs, deps) = best_of_3(|| {
                    let t0 = Instant::now();
                    let a = analyze_trace_asymmetric(
                        &trace,
                        SignatureConfig::paper_default(SLOTS, THREADS),
                        ProfilerConfig::nested(THREADS),
                        AccumConfig::default(),
                        &ParReplayConfig {
                            jobs,
                            coalesce,
                            batch_events: batch,
                            ..ParReplayConfig::default()
                        },
                    );
                    (t0.elapsed().as_secs_f64(), a.report.dependencies)
                });
                assert_eq!(base_deps, deps, "sharded replay changed detection");
                rows.push(row(
                    "sharded",
                    jobs,
                    batch.to_string(),
                    coalesce,
                    secs,
                    deps.to_string(),
                ));
                reg.gauge(
                    &format!(
                        "loopcomm_bench_replay_sharded_mev_s_j{jobs}_b{batch}_c{}",
                        u8::from(coalesce)
                    ),
                    "Slot-sharded replay throughput, Mevents/s",
                    tput(secs),
                );
            }
        }
        eprintln!("  swept jobs={jobs}");
    }

    // Temporal-locality sweep: the `loopcomm synth --addr-reuse` /
    // `--working-set` knobs drive the shared `lc_trace::synth_event`
    // generator, so this sweep measures exactly the traces the CLI can
    // fabricate. As reuse grows, reads revisit a 64-entry hot set, so the
    // rows compare the fused engine with per-event delivery from
    // cache-missy to L1-resident input; they land in the CSV with the
    // reuse probability folded into the mode column (working set stays at
    // the generator default, 65 536 addresses).
    let reuse_sweep: Vec<f64> = std::env::var("BENCH_REUSE")
        .ok()
        .map(|v| v.split(',').filter_map(|t| t.parse().ok()).collect())
        .unwrap_or_else(|| vec![0.0, 0.5, 0.9, 0.99]);
    for &reuse in &reuse_sweep {
        let t = Trace::new(
            (0..events)
                .map(|i| lc_trace::synth_event(i, 42, THREADS as u32, 65_536, reuse))
                .collect(),
        );
        let (p_s, p_deps) = best_of_3(|| per_event(t.access_events()));
        rows.push(row(
            &format!("per-event@reuse={reuse}"),
            1,
            "-".into(),
            false,
            p_s,
            p_deps.to_string(),
        ));
        let (f_s, f_deps) = best_of_3(|| fused(t.access_events(), fused_batch));
        assert_eq!(
            p_deps, f_deps,
            "fused replay changed detection at reuse={reuse}"
        );
        rows.push(row(
            &format!("fused@reuse={reuse}"),
            1,
            fused_batch.to_string(),
            false,
            f_s,
            f_deps.to_string(),
        ));
        eprintln!("  swept addr-reuse={reuse}");
    }

    println!(
        "{}",
        ascii_table(
            &["mode", "jobs", "batch", "coalesce", "Mev/s", "deps"],
            &rows,
        )
    );
    save_csv(
        "replay_scaling.csv",
        &["mode", "jobs", "batch", "coalesce", "mev_s", "deps"],
        &rows,
    );
    save_metrics("replay_scaling.metrics.json", &reg);

    // Baseline snapshot for regression tracking: the four gated paths and
    // the three ratios CI's perf gate holds.
    // The fused engine against per-event delivery of the same events.
    let fused_ratio = per_event_s / fused_s_best;
    // What the out-of-core route keeps of the in-RAM fused rate: reads,
    // checksum and decode are the only difference between the two.
    let spool_ratio = fused_s_best / spool_s;
    // What `--coherence` costs relative to Algorithm 1 on the same events.
    let coherence_ratio = fused_s_best / coherence_s;
    let baseline = format!(
        "{{\n  \"bench\": \"replay_scaling\",\n  \"events\": {events},\n  \
         \"rounds\": {ROUNDS},\n  \
         \"per_event_mev_s\": {:.4},\n  \"fused_mev_s\": {:.4},\n  \
         \"spool_fused_mev_s\": {:.4},\n  \"coherence_mev_s\": {:.4},\n  \
         \"fused_over_per_event\": {fused_ratio:.4},\n  \
         \"spool_over_fused\": {spool_ratio:.4},\n  \
         \"coherence_over_fused\": {coherence_ratio:.4},\n  \
         \"fused_batch\": {fused_batch},\n  \"deps\": {base_deps}\n}}\n",
        tput(per_event_s),
        tput(fused_s_best),
        tput(spool_s),
        tput(coherence_s),
    );
    let path = results_dir().join("BENCH_replay.json");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, baseline) {
        Ok(()) => println!("[baseline] {}", path.display()),
        Err(e) => eprintln!("[baseline] failed to write {}: {e}", path.display()),
    }

    // Append this run to the historical log: one JSON object per line,
    // every headline metric, so trends survive the in-place rewrite of
    // BENCH_replay.json above. CI uploads the file as an artifact; local
    // runs accumulate a per-host record.
    let commit = std::env::var("GITHUB_SHA").unwrap_or_else(|_| "local".into());
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let line = format!(
        "{{\"unix\": {unix}, \"commit\": \"{commit}\", \"events\": {events}, \
         \"rounds\": {ROUNDS}, \
         \"per_event_mev_s\": {:.4}, \"fused_mev_s\": {:.4}, \
         \"spool_fused_mev_s\": {:.4}, \"coherence_mev_s\": {:.4}, \
         \"fused_over_per_event\": {fused_ratio:.4}, \
         \"spool_over_fused\": {spool_ratio:.4}, \
         \"coherence_over_fused\": {coherence_ratio:.4}}}\n",
        tput(per_event_s),
        tput(fused_s_best),
        tput(spool_s),
        tput(coherence_s),
    );
    let hist = results_dir().join("BENCH_history.jsonl");
    use std::io::Write as _;
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&hist)
        .and_then(|mut f| f.write_all(line.as_bytes()))
    {
        Ok(()) => println!("[history] appended to {}", hist.display()),
        Err(e) => eprintln!("[history] failed to append {}: {e}", hist.display()),
    }
    println!(
        "\nfused/per-event speed ratio: {fused_ratio:.3}x at batch={fused_batch} \
         (CI's perf gate fails below 1.0, or >10% below the committed baseline)"
    );
    println!(
        "spool/fused speed ratio: {spool_ratio:.3}x \
         (CI's perf gate fails >10% below the committed baseline)"
    );
    println!(
        "coherence/fused speed ratio: {coherence_ratio:.3}x \
         (CI's perf gate fails >10% below the committed baseline)"
    );
}
