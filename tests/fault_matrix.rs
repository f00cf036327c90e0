//! The fault matrix: every scripted single-fault plan must leave the CLI
//! in one of two defensible states within a hard wall-clock bound —
//! a clean exit with an exact global matrix, or a *counted* degradation
//! (telemetry counters + a stderr warning). And the zero-fault plan must
//! be a true no-op: armed-but-empty injection changes nothing.
//!
//! This includes the replay of the PR 2 livelock scenario — a worker
//! panicking mid-flush — which the watchdog now survives.

use lc_faults::{FaultInjector, FaultPlan};
use lc_profiler::{
    AccumConfig, AsymmetricDetector, AsymmetricProfiler, CommProfiler, PerfectProfiler,
    ProfilerConfig,
};
use lc_sigmem::SignatureConfig;
use lc_trace::event::{AccessEvent, AccessKind, FuncId, LoopId};
use lc_trace::sink::AccessSink;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard bound for any single CLI run under a fault plan. Generous next to
/// the watchdog's own 2 s default so a pass never flakes, but far below
/// the "hung forever" regime the harness exists to rule out.
const RUN_TIMEOUT: Duration = Duration::from_secs(60);

fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lc_fault_matrix_{}_{test}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn loopcomm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_loopcomm"))
}

/// Run to completion or kill at the bound — a hang is a test failure, not
/// a CI timeout.
fn run_with_timeout(mut cmd: Command, what: &str) -> Output {
    use std::io::Read;
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn loopcomm");
    let start = Instant::now();
    let status = loop {
        if let Some(s) = child.try_wait().expect("try_wait") {
            break s;
        }
        if start.elapsed() > RUN_TIMEOUT {
            child.kill().ok();
            child.wait().ok();
            panic!("`{what}` exceeded the {RUN_TIMEOUT:?} fault-matrix bound");
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    let mut stdout = Vec::new();
    let mut stderr = Vec::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_end(&mut stdout)
        .unwrap();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_end(&mut stderr)
        .unwrap();
    Output {
        status,
        stdout,
        stderr,
    }
}

fn write_plan(dir: &std::path::Path, body: &str) -> PathBuf {
    let path = dir.join("plan.txt");
    std::fs::write(&path, body).expect("write plan");
    path
}

/// Pull one numeric metric out of the `--metrics *.json` exposition.
fn metric(json: &str, name: &str) -> f64 {
    let key = format!("\"name\":\"{name}\"");
    let at = json
        .find(&key)
        .unwrap_or_else(|| panic!("metric `{name}` missing from {json}"));
    let rest = &json[at..];
    let v = rest
        .find("\"value\":")
        .map(|i| &rest[i + "\"value\":".len()..])
        .unwrap_or_else(|| panic!("metric `{name}` has no value"));
    let end = v
        .find([',', '}'])
        .unwrap_or_else(|| panic!("unterminated value for `{name}`"));
    v[..end].parse().expect("numeric metric")
}

struct FaultRun {
    out: Output,
    metrics: String,
}

/// `loopcomm profile radix` under one fault plan, with metrics captured.
fn profile_under_plan(test: &str, plan: &str) -> FaultRun {
    let dir = scratch_dir(test);
    let plan_path = write_plan(&dir, plan);
    let metrics_path = dir.join("metrics.json");
    let out = run_with_timeout(
        {
            let mut c = loopcomm();
            c.args([
                "profile",
                "radix",
                "--threads",
                "2",
                "--size",
                "simdev",
                "--seed",
                "9",
                "--metrics",
                metrics_path.to_str().unwrap(),
                "--fault-plan",
                plan_path.to_str().unwrap(),
            ]);
            c
        },
        &format!("profile under plan `{}`", plan.trim()),
    );
    let metrics = std::fs::read_to_string(&metrics_path).unwrap_or_default();
    std::fs::remove_dir_all(&dir).ok();
    FaultRun { out, metrics }
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// `(frames, events)` from `salvage: format v3, N frame(s), M event(s) ...`.
fn parse_salvage_line(stdout: &str) -> (u64, u64) {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("salvage:"))
        .expect("salvage line");
    let num_before = |marker: &str| -> u64 {
        let end = line.find(marker).expect("salvage field");
        let digits: String = line[..end]
            .chars()
            .rev()
            .take_while(char::is_ascii_digit)
            .collect();
        digits
            .chars()
            .rev()
            .collect::<String>()
            .parse()
            .expect("numeric salvage field")
    };
    (num_before(" frame(s)"), num_before(" event(s)"))
}

// ---------------------------------------------------------------------------
// The no-fault differential: an armed-but-empty plan is a byte-level no-op.
// ---------------------------------------------------------------------------

fn stream(n: u64) -> impl Iterator<Item = AccessEvent> {
    (0..n).map(|i| AccessEvent {
        tid: (i % 4) as u32,
        addr: 0x9000 + (i % 257) * 8,
        size: 8,
        kind: if i % 5 == 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
        loop_id: LoopId((i % 3) as u32),
        parent_loop: LoopId::NONE,
        func: FuncId(1),
        site: i % 11,
    })
}

fn assert_identical<R, W>(plain: CommProfiler<R, W>, armed: CommProfiler<R, W>)
where
    R: lc_sigmem::ReaderSet,
    W: lc_sigmem::WriterMap,
{
    for ev in stream(40_000) {
        plain.on_access(&ev);
    }
    for ev in stream(40_000) {
        armed.on_access(&ev);
    }
    plain.flush_pending();
    armed.flush_pending();
    let (a, b) = (plain.report(), armed.report());
    assert_eq!(a.accesses, b.accesses);
    assert_eq!(a.dependencies, b.dependencies);
    assert_eq!(a.global, b.global, "global matrices must be identical");
    assert_eq!(a.per_loop.len(), b.per_loop.len());
    for (loop_id, m) in &a.per_loop {
        assert_eq!(Some(m), b.per_loop.get(loop_id), "loop {loop_id:?} differs");
    }
    assert_eq!(
        plain.flush_health(),
        armed.flush_health(),
        "empty plan must not touch health"
    );
    assert!(!armed.degraded());
    // The full metric expositions agree byte for byte.
    assert_eq!(a.threads, b.threads);
    assert_eq!(
        plain.metrics().to_prometheus(),
        armed.metrics().to_prometheus()
    );
}

#[test]
fn empty_fault_plan_is_byte_identical_asymmetric() {
    let cfg = ProfilerConfig::nested(4);
    let sig = SignatureConfig::paper_default(1 << 12, 4);
    let plain = AsymmetricProfiler::asymmetric(sig, cfg);
    let armed = AsymmetricProfiler::asymmetric(sig, cfg)
        .with_faults(Arc::new(FaultInjector::new(FaultPlan::empty())));
    assert_identical(plain, armed);
}

#[test]
fn empty_fault_plan_is_byte_identical_perfect() {
    let cfg = ProfilerConfig::nested(4);
    let plain = PerfectProfiler::perfect(cfg);
    let armed =
        PerfectProfiler::perfect(cfg).with_faults(Arc::new(FaultInjector::new(FaultPlan::empty())));
    assert_identical(plain, armed);
}

#[test]
fn empty_fault_plan_cli_output_is_byte_identical() {
    // Process-level form of the no-op claim. Single-threaded on purpose:
    // with 2+ live threads the RAW dependence count wobbles by a few with
    // scheduling (a read only pairs with a write that already landed), so
    // byte equality is only an invariant when there is no interleaving.
    // The in-process differentials above cover the multi-thread matrices
    // on a fixed event order.
    let dir = scratch_dir("cli_differential");
    let plan_path = write_plan(&dir, "# no faults\nseed 7\n");
    let base_args = [
        "profile",
        "radix",
        "--threads",
        "1",
        "--size",
        "simdev",
        "--seed",
        "9",
    ];
    let plain = run_with_timeout(
        {
            let mut c = loopcomm();
            c.args(base_args);
            c
        },
        "differential baseline",
    );
    let armed = run_with_timeout(
        {
            let mut c = loopcomm();
            c.args(base_args)
                .args(["--fault-plan", plan_path.to_str().unwrap()]);
            c
        },
        "differential armed run",
    );
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(plain.status.code(), Some(0));
    assert_eq!(armed.status.code(), Some(0));
    assert_eq!(plain.stdout, armed.stdout, "stdout must be byte-identical");
    assert!(
        !stderr_of(&armed).contains("degraded"),
        "empty plan must not warn"
    );
}

// ---------------------------------------------------------------------------
// Single-fault rows of the matrix.
// ---------------------------------------------------------------------------

/// The PR 2 livelock replay: a worker thread dies mid-flush at the epoch
/// barrier. The run must complete, exit 0, warn, and count the loss.
#[test]
fn worker_panic_mid_flush_degrades_but_completes() {
    let run = profile_under_plan("epoch_panic", "seed 1\nfault epoch_barrier panic after=3\n");
    assert_eq!(run.out.status.code(), Some(0), "degraded runs still exit 0");
    let err = stderr_of(&run.out);
    assert!(
        err.contains("degraded run"),
        "missing degraded warning: {err}"
    );
    assert!(metric(&run.metrics, "loopcomm_flush_panics_total") >= 1.0);
    assert!(metric(&run.metrics, "loopcomm_flush_lost_deltas_total") >= 1.0);
    assert_eq!(metric(&run.metrics, "loopcomm_degraded"), 1.0);
}

#[test]
fn stalled_worker_finishes_within_the_bound_without_degrading() {
    let run = profile_under_plan(
        "epoch_stall",
        "seed 1\nfault epoch_barrier stall:100 count=2\n",
    );
    assert_eq!(run.out.status.code(), Some(0));
    // A slow worker is delay, not damage: nothing lost, nothing latched.
    assert!(!stderr_of(&run.out).contains("degraded"));
    assert_eq!(metric(&run.metrics, "loopcomm_flush_panics_total"), 0.0);
    assert_eq!(metric(&run.metrics, "loopcomm_degraded"), 0.0);
}

#[test]
fn sink_flush_panic_is_caught_and_counted() {
    let run = profile_under_plan("sink_flush", "seed 1\nfault sink_flush panic\n");
    assert_eq!(run.out.status.code(), Some(0));
    assert!(stderr_of(&run.out).contains("degraded run"));
    assert!(metric(&run.metrics, "loopcomm_flush_panics_total") >= 1.0);
    assert_eq!(metric(&run.metrics, "loopcomm_degraded"), 1.0);
}

#[test]
fn registry_insert_panic_is_caught_and_counted() {
    let run = profile_under_plan(
        "registry_insert",
        "seed 1\nfault registry_insert panic after=2\n",
    );
    assert_eq!(run.out.status.code(), Some(0));
    assert!(stderr_of(&run.out).contains("degraded run"));
    assert!(metric(&run.metrics, "loopcomm_flush_panics_total") >= 1.0);
    // lost_deltas may be 0 here: the popped entry's *global* add lands
    // before the registry insert trips, so only per-loop attribution (and
    // any entries still queued behind it) can be lost.
    assert_eq!(metric(&run.metrics, "loopcomm_degraded"), 1.0);
}

/// Spool I/O faults: the recorder reports the failure with a non-zero exit
/// and the salvage path recovers every segment that reached the disk.
#[test]
fn spool_io_fault_fails_loudly_and_prefix_salvages() {
    for (tag, action) in [("io_error", "io_error"), ("short_write", "short_write:9")] {
        let dir = scratch_dir(&format!("spool_{tag}"));
        // The v3 header page is one write and each segment five (marker,
        // length, CRC, payload, padding), so after=14 lets the header and
        // two whole segments reach the disk and tears the third's payload.
        let plan_path = write_plan(
            &dir,
            &format!("seed 1\nfault trace_write {action} after=14\n"),
        );
        let trace_path = dir.join("run.lctrace");
        let rec = run_with_timeout(
            {
                let mut c = loopcomm();
                c.args([
                    "record",
                    "radix",
                    trace_path.to_str().unwrap(),
                    "--threads",
                    "2",
                    "--size",
                    "simdev",
                    "--seed",
                    "9",
                    "--fault-plan",
                    plan_path.to_str().unwrap(),
                ]);
                c
            },
            &format!("record under {tag}"),
        );
        assert_eq!(rec.status.code(), Some(1), "I/O faults are hard failures");
        let err = stderr_of(&rec);
        assert!(err.contains("trace spool failed"), "{tag}: {err}");
        assert!(err.contains("--salvage"), "{tag}: missing salvage hint");

        let an = run_with_timeout(
            {
                let mut c = loopcomm();
                c.args(["analyze", trace_path.to_str().unwrap(), "--salvage"]);
                c
            },
            &format!("analyze --salvage after {tag}"),
        );
        assert_eq!(an.status.code(), Some(0), "{tag}: salvage analyze failed");
        let stdout = String::from_utf8_lossy(&an.stdout).into_owned();
        assert!(stdout.contains("salvage: format v3"), "{tag}: {stdout}");
        // Only whole segments survive, and exactly the two written before
        // the fault: DEFAULT_FRAME_EVENTS events each.
        let (frames, events) = parse_salvage_line(&stdout);
        assert_eq!(frames, 2, "{tag}: {stdout}");
        assert_eq!(
            events,
            frames * lc_trace::DEFAULT_FRAME_EVENTS as u64,
            "{tag}: partial frames must never be recovered: {stdout}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// In-process spot check that a scripted drain panic is visible through
/// every reporting surface at once: the health snapshot, the `degraded()`
/// latch, and the Prometheus exposition the CLI writes.
#[test]
fn scripted_drain_panic_reaches_every_reporting_surface() {
    let profiler = AsymmetricProfiler::from_detector_with(
        AsymmetricDetector::asymmetric(SignatureConfig::paper_default(1 << 12, 4)),
        ProfilerConfig::nested(4),
        AccumConfig {
            flush_timeout_ms: 50,
            ..AccumConfig::default()
        },
    )
    .with_faults(Arc::new(FaultInjector::new(
        FaultPlan::parse("seed 1\nfault epoch_barrier panic after=0 count=1\n").unwrap(),
    )));
    // The injected rule fires on the first epoch drain; the caught panic
    // must then show up identically in the snapshot and the metrics.
    for ev in stream(40_000) {
        profiler.on_access(&ev);
    }
    profiler.flush_pending();
    let h = profiler.flush_health();
    assert!(h.degraded, "the scripted panic must have fired");
    assert_eq!(h.flush_panics, 1);
    assert!(profiler.degraded());
    let prom = profiler.metrics().to_prometheus();
    assert!(prom.contains("loopcomm_flush_panics_total 1"), "{prom}");
    assert!(prom.contains("loopcomm_degraded 1"), "{prom}");
}
