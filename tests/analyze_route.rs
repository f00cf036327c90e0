//! `loopcomm analyze` has one route: whatever the input format and
//! whatever flags ride along, the canonical report is the same bytes.
//!
//! One workload is recorded once and written as v1, v2 and v3; every
//! combination of format x `--jobs` x detector x `--mmap` x {plain,
//! `--salvage`, `--checkpoint` then `--resume`} must produce a
//! `--report-out` byte-identical to the library oracle
//! (`analyze_trace_*` with `ParReplayConfig::default()`, which `lcbench`
//! also pins), and `--coherence-out` must equal one in-process
//! `CoherenceBackend` for every format and `--jobs`. The spool `record`
//! streams must analyse like a per-event replay of the same run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::Arc;

use lc_cachesim::{canonical_coherence_report, CoherenceBackend, CoherenceConfig};
use lc_profiler::{
    analyze_trace_asymmetric, analyze_trace_perfect, canonical_report, AccumConfig,
    ParReplayConfig, ProfilerConfig,
};
use lc_sigmem::SignatureConfig;
use lc_trace::{RecordingSink, Trace, TraceCtx};
use loopcomm::prelude::*;

const THREADS: usize = 4;
const SLOTS: usize = 1 << 12;

fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lc_route_{}_{test}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn loopcomm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_loopcomm"))
        .args(args)
        .output()
        .expect("spawn loopcomm")
}

fn record_radix(threads: usize) -> Trace {
    let rec = Arc::new(RecordingSink::new());
    let ctx = TraceCtx::new(rec.clone(), threads);
    by_name("radix")
        .expect("workload exists")
        .run(&ctx, &RunConfig::new(threads, InputSize::SimDev, 42));
    rec.finish()
}

/// The same events as a v1 file and a v2 spool (both still imported, no
/// longer written by any command) and a v3 spool.
fn write_formats(trace: &Trace, dir: &Path) -> [(&'static str, String); 3] {
    let path = |name: &str| dir.join(name).to_str().expect("UTF-8 temp dir").to_string();
    let (v1, v2, v3) = (path("t.lctrace"), path("t.lct2"), path("t.lcv3"));
    let create = |p: &str| std::fs::File::create(p).expect("create fixture");
    lc_trace::write_trace(trace, create(&v1)).expect("write v1");
    lc_trace::write_trace_spool(trace, create(&v2), 1000).expect("write v2");
    lc_trace::write_trace_spool_v3(trace, Path::new(&v3), 1000).expect("write v3");
    [("v1", v1), ("v2", v2), ("v3", v3)]
}

/// Run `analyze <file> <flags> <out_flag> <out>` and return what it wrote.
fn analyze_to(file: &str, flags: &[&str], out_flag: &str, out: &Path, what: &str) -> String {
    std::fs::remove_file(out).ok();
    let mut args = vec!["analyze", file, "--slots", "4096"];
    args.extend_from_slice(flags);
    args.extend([out_flag, out.to_str().unwrap()]);
    let o = loopcomm(&args);
    assert!(
        o.status.success(),
        "{what}: `loopcomm {}` failed: {}",
        args.join(" "),
        String::from_utf8_lossy(&o.stderr)
    );
    std::fs::read_to_string(out).unwrap_or_else(|e| panic!("{what}: {out_flag} not written: {e}"))
}

fn concat<'a>(base: &[&'a str], extra: &[&'a str]) -> Vec<&'a str> {
    [base, extra].concat()
}

#[test]
fn report_is_byte_identical_across_formats_jobs_detectors_and_flags() {
    let dir = scratch_dir("report");
    let trace = record_radix(THREADS);
    let events = trace.len() as u64;
    let formats = write_formats(&trace, &dir);

    let prof = ProfilerConfig::nested(THREADS);
    let par = ParReplayConfig::default();
    let oracle_asym = analyze_trace_asymmetric(
        &trace,
        SignatureConfig::paper_default(SLOTS, THREADS),
        prof,
        AccumConfig::default(),
        &par,
    );
    let oracle_perfect = analyze_trace_perfect(&trace, prof, AccumConfig::default(), &par);
    let oracles = [
        (false, canonical_report(&oracle_asym.report, events)),
        (true, canonical_report(&oracle_perfect.report, events)),
    ];
    assert_ne!(oracle_asym.report.dependencies, 0, "radix communicates");

    let out = dir.join("r.txt");
    let cp = dir.join("cp");
    let cp_arg = cp.to_str().unwrap();
    for (fmt, file) in &formats {
        for jobs in ["1", "2"] {
            for (perfect, want) in &oracles {
                for mmap in [false, true] {
                    let mut base = vec!["--jobs", jobs];
                    if *perfect {
                        base.push("--perfect");
                    }
                    if mmap {
                        base.push("--mmap");
                    }
                    let tag = format!("{fmt} jobs={jobs} perfect={perfect} mmap={mmap}");

                    let got = analyze_to(file, &base, "--report-out", &out, &tag);
                    assert_eq!(&got, want, "{tag}: plain");
                    let got = analyze_to(
                        file,
                        &concat(&base, &["--salvage"]),
                        "--report-out",
                        &out,
                        &tag,
                    );
                    assert_eq!(&got, want, "{tag}: --salvage");

                    std::fs::remove_dir_all(&cp).ok();
                    let flags = concat(&base, &["--checkpoint", cp_arg, "--every", "5000"]);
                    let got = analyze_to(file, &flags, "--report-out", &out, &tag);
                    assert_eq!(&got, want, "{tag}: --checkpoint");
                    let flags = concat(&base, &["--resume", cp_arg]);
                    let got = analyze_to(file, &flags, "--report-out", &out, &tag);
                    assert_eq!(&got, want, "{tag}: --resume");
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn coherence_report_is_one_backend_whatever_the_format_and_jobs() {
    let dir = scratch_dir("coherence");
    let trace = record_radix(THREADS);
    let formats = write_formats(&trace, &dir);

    let mut backend = CoherenceBackend::new(CoherenceConfig::default(), THREADS);
    backend.on_block(trace.access_events());
    let want = canonical_coherence_report(&backend.report());

    let out = dir.join("c.txt");
    for (fmt, file) in &formats {
        for jobs in ["1", "2", "4"] {
            let tag = format!("{fmt} jobs={jobs}");
            let flags = ["--coherence", "--jobs", jobs];
            let got = analyze_to(file, &flags, "--coherence-out", &out, &tag);
            assert_eq!(got, want, "{tag}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `record` streams a v3 spool through `SpoolSink`. One thread makes the
/// run deterministic, so the recorded file must analyse to exactly what a
/// per-event replay of the same run, recorded in memory, reports.
#[test]
fn recorded_spool_analyses_like_a_per_event_replay_of_the_same_run() {
    let dir = scratch_dir("record");
    let spool = record_cli(&dir, "1");
    let trace = record_radix(1);
    let oracle = AsymmetricProfiler::asymmetric(
        SignatureConfig::paper_default(SLOTS, 1),
        ProfilerConfig::nested(1),
    );
    trace.replay(&oracle);
    oracle.flush_pending();
    let want = canonical_report(&oracle.report(), trace.len() as u64);

    let out = dir.join("r.txt");
    let got = analyze_to(&spool, &[], "--report-out", &out, "recorded v3");
    assert_eq!(got, want);
    std::fs::remove_dir_all(&dir).ok();
}

/// A multi-thread recording differs run to run, but one file must
/// analyse the same mapped (file order) as loaded by `--salvage` (sorted
/// by stamp): the recorder writes its spool in stamp order.
#[test]
fn a_multi_thread_recording_maps_in_stamp_order() {
    let dir = scratch_dir("record_mt");
    let spool = record_cli(&dir, "4");
    let out = dir.join("r.txt");
    let mapped = analyze_to(&spool, &[], "--report-out", &out, "mapped");
    let loaded = analyze_to(&spool, &["--salvage"], "--report-out", &out, "loaded");
    assert_eq!(mapped, loaded);
    std::fs::remove_dir_all(&dir).ok();
}

/// `loopcomm record radix <dir>/radix.lcv3 --threads <threads>` at
/// `simdev`, checked to have written a v3 spool and its index.
fn record_cli(dir: &Path, threads: &str) -> String {
    let spool = dir.join("radix.lcv3");
    let spool_arg = spool.to_str().unwrap();
    let rec = loopcomm(&[
        "record",
        "radix",
        spool_arg,
        "--threads",
        threads,
        "--size",
        "simdev",
        "--seed",
        "42",
    ]);
    let stdout = String::from_utf8_lossy(&rec.stdout);
    assert!(
        rec.status.success(),
        "record failed: {}",
        String::from_utf8_lossy(&rec.stderr)
    );
    assert!(stdout.contains("format v3"), "{stdout}");
    assert!(lc_trace::index_path(&spool).exists(), "v3 side-car index");
    spool_arg.to_string()
}

#[test]
fn retired_flags_are_accepted_and_metrics_come_from_the_analyzer() {
    let dir = scratch_dir("flags");
    let trace = record_radix(THREADS);
    let [(_, v1), _, _] = write_formats(&trace, &dir);

    // `--mmap` on a v1 file used to exit 1 ("needs the v3 spool format").
    // It is still accepted because `lcbench` passes it; the other retired
    // analyze flags exit 2 (tests/cli_args.rs).
    let out = dir.join("m.prom");
    let flags = ["--mmap", "--jobs", "2"];
    let metrics = analyze_to(&v1, &flags, "--metrics", &out, "v1 --mmap");

    let mut values = std::collections::BTreeMap::new();
    for line in metrics.lines().filter(|l| !l.starts_with('#')) {
        let (name, value) = line.split_once(' ').expect("`name value` sample line");
        let value: f64 = value.parse().expect("numeric sample");
        values.insert(name, value);
    }
    assert_eq!(values["loopcomm_replay_events_total"], trace.len() as f64);
    assert_eq!(values["loopcomm_accesses_total"], trace.len() as f64);
    assert_eq!(values["loopcomm_replay_jobs"], 2.0);
    assert!(values["loopcomm_replay_frames_total"] >= 1.0);
    assert!(values["loopcomm_dependences_total"] > 0.0);
    assert!(
        !metrics.contains("folded"),
        "the CLI no longer coalesces:\n{metrics}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
