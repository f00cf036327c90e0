//! The fault matrix: every scripted single-fault plan must leave the CLI
//! in one of two defensible states within a hard wall-clock bound — a
//! clean exit, or a loud failure whose damage the salvage path bounds.
//! The zero-fault plan must be a true no-op (armed-but-empty injection
//! changes nothing), and a plan naming a site that does not exist is a
//! usage error.

use lc_faults::{FaultInjector, FaultPlan};
use lc_profiler::{
    AsymmetricProfiler, CommProfiler, FusedScratch, PerfectProfiler, ProfilerConfig,
};
use lc_sigmem::SignatureConfig;
use lc_trace::event::{AccessEvent, AccessKind, FuncId, LoopId, StampedEvent};
use lc_trace::{MmapTrace, SpoolV3Writer};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard bound for any single CLI run under a fault plan. Generous so a
/// pass never flakes, but far below the "hung forever" regime the harness
/// exists to rule out.
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

fn stream(n: u64) -> impl Iterator<Item = StampedEvent> {
    (0..n).map(|i| StampedEvent {
        seq: i,
        event: AccessEvent {
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
        },
    })
}

/// Write [`stream`] as a v3 spool through the writer's fault seams,
/// armed with `faults` or not at all.
fn write_spool(path: &Path, faults: Option<Arc<FaultInjector>>) {
    let events: Vec<StampedEvent> = stream(40_000).collect();
    let mut w = SpoolV3Writer::create_with(path, faults).expect("create spool");
    for frame in events.chunks(4096) {
        w.append_frame(frame).expect("append frame");
    }
    w.finish().expect("finish spool");
}

fn assert_files_identical(a: &Path, b: &Path) {
    let (x, y) = (std::fs::read(a).unwrap(), std::fs::read(b).unwrap());
    assert!(!x.is_empty(), "{} is empty", a.display());
    assert!(x == y, "{} and {} differ", a.display(), b.display());
}

/// The spool writer armed with an empty plan writes the same spool and
/// index bytes as the unarmed one, and both analyze to the same report
/// and metric exposition.
fn assert_identical<R, W>(test: &str, make: impl Fn() -> CommProfiler<R, W>)
where
    R: lc_sigmem::ReaderSet,
    W: lc_sigmem::WriterMap,
{
    let dir = scratch_dir(test);
    let plain = dir.join("plain.lcv3");
    let armed = dir.join("armed.lcv3");
    write_spool(&plain, None);
    write_spool(
        &armed,
        Some(Arc::new(FaultInjector::new(FaultPlan::empty()))),
    );
    assert_files_identical(&plain, &armed);
    assert_files_identical(&lc_trace::index_path(&plain), &lc_trace::index_path(&armed));
    let analyze = |path: &Path| {
        let p = make();
        let mut scratch = FusedScratch::with_defaults();
        MmapTrace::open(path)
            .expect("open spool")
            .stream_from(0, |seg| p.on_block_fused(seg, &mut scratch))
            .expect("replay spool");
        p
    };
    let (plain, armed) = (analyze(&plain), analyze(&armed));
    std::fs::remove_dir_all(&dir).ok();
    let (a, b) = (plain.report(), armed.report());
    assert_eq!(a.accesses, 40_000);
    assert_eq!(a.accesses, b.accesses);
    assert_eq!(a.dependencies, b.dependencies);
    assert_eq!(a.global, b.global, "global matrices must be identical");
    assert_eq!(a.per_loop, b.per_loop);
    assert_eq!(
        plain.metrics().to_prometheus(),
        armed.metrics().to_prometheus()
    );
}

#[test]
fn empty_fault_plan_is_byte_identical_asymmetric() {
    let cfg = ProfilerConfig::nested(4);
    let sig = SignatureConfig::paper_default(1 << 12, 4);
    assert_identical("asymmetric", || AsymmetricProfiler::asymmetric(sig, cfg));
}

#[test]
fn empty_fault_plan_is_byte_identical_perfect() {
    let cfg = ProfilerConfig::nested(4);
    assert_identical("perfect", || PerfectProfiler::perfect(cfg));
}

/// Run `loopcomm` with `args`, then `extra`.
fn cli(args: &[&str], extra: &[&str], what: &str) -> Output {
    run_with_timeout(
        {
            let mut c = loopcomm();
            c.args(args).args(extra);
            c
        },
        what,
    )
}

/// `loopcomm record radix` into `spool`, single-threaded, with extra
/// arguments.
fn record(spool: &Path, extra: &[&str], what: &str) -> Output {
    let spool = spool.to_str().unwrap();
    let args = [
        "record",
        "radix",
        spool,
        "--threads",
        "1",
        "--size",
        "simdev",
        "--seed",
        "9",
    ];
    cli(&args, extra, what)
}

#[test]
fn empty_fault_plan_cli_output_is_byte_identical() {
    // Process-level form of the no-op claim, on the spool writer's seams.
    // `record` is single-threaded on purpose: with 2+ live threads the
    // interleaving, and so the spool, changes from run to run. Its event
    // payload still differs between processes — a site id is the address
    // of the access's static source location, which ASLR moves — so its
    // index and its analysis are compared byte for byte, and the seeded
    // `synth` stream, which goes through the same writer, is compared
    // whole.
    let dir = scratch_dir("cli_differential");
    let plan_path = write_plan(&dir, "# no faults\nseed 7\n");
    let plan = ["--fault-plan", plan_path.to_str().unwrap()];
    let (plain, armed) = (dir.join("plain.lcv3"), dir.join("armed.lcv3"));
    let a = record(&plain, &[], "differential baseline");
    let b = record(&armed, &plan, "differential armed run");
    assert_eq!(a.status.code(), Some(0), "{}", stderr_of(&a));
    assert_eq!(b.status.code(), Some(0), "{}", stderr_of(&b));
    assert!(b.stderr.is_empty(), "empty plan must not warn");
    assert_files_identical(&lc_trace::index_path(&plain), &lc_trace::index_path(&armed));
    for spool in [&plain, &armed] {
        let report = spool.with_extension("txt");
        let args = [
            "analyze",
            spool.to_str().unwrap(),
            "--report-out",
            report.to_str().unwrap(),
        ];
        let out = cli(&args, &[], "analyze a differential spool");
        assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    }
    assert_files_identical(&plain.with_extension("txt"), &armed.with_extension("txt"));

    let synth = |spool: &Path, extra: &[&str]| {
        let args = [
            "synth",
            spool.to_str().unwrap(),
            "--events",
            "50000",
            "--threads",
            "4",
        ];
        let out = cli(&args, extra, "synth a differential spool");
        assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    };
    let (plain, armed) = (dir.join("plain_synth.lcv3"), dir.join("armed_synth.lcv3"));
    synth(&plain, &[]);
    synth(&armed, &plan);
    assert_files_identical(&plain, &armed);
    assert_files_identical(&lc_trace::index_path(&plain), &lc_trace::index_path(&armed));
    std::fs::remove_dir_all(&dir).ok();
}

/// The profiler's accumulation path has no fault seams: a plan naming one
/// of the sites it used to host is rejected as a usage error before any
/// work starts, not silently accepted.
#[test]
fn plan_naming_a_removed_site_is_a_usage_error() {
    for site in ["sink_flush", "epoch_barrier", "registry_insert"] {
        let dir = scratch_dir(&format!("removed_{site}"));
        let plan_path = write_plan(&dir, &format!("seed 1\nfault {site} panic\n"));
        let spool = dir.join("run.lcv3");
        let out = record(
            &spool,
            &["--fault-plan", plan_path.to_str().unwrap()],
            &format!("record under a `{site}` plan"),
        );
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{site}: {err}");
        assert_eq!(err.lines().count(), 1, "{site}: one-line error: {err}");
        assert!(err.starts_with("fault plan line 2:"), "{site}: {err}");
        assert!(!spool.exists(), "{site}: nothing may be recorded");
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------------
// Single-fault rows of the matrix.
// ---------------------------------------------------------------------------

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
