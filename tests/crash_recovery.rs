//! The crash-recovery fault matrix: an injected crash or I/O fault at
//! every durability seam (`checkpoint_write`, `index_write`) must leave
//! the analysis resumable, and the resumed run's canonical report must be
//! **byte-identical** to an uninterrupted one.
//!
//! Covered per seam:
//! * `panic` — the process dies mid-write (hard crash).
//! * `io_error` — the write fails cleanly; durability degrades with a
//!   warning but analysis completes.
//! * `short_write` — a torn write wedges the writer; same contract.
//! * `bit_flip` — the write *succeeds* but the payload is corrupt; the
//!   CRC catches it at load time and the run degrades to from-scratch
//!   rather than trusting torn state.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Hard bound for any single CLI run. A hang is a test failure, not a CI
/// timeout.
const RUN_TIMEOUT: Duration = Duration::from_secs(120);

const EVENTS: u64 = 120_000;
const EVERY: u64 = 25_000;

fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lc_crash_rec_{}_{test}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn loopcomm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_loopcomm"))
}

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
            panic!("`{what}` exceeded the {RUN_TIMEOUT:?} crash-recovery bound");
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    let mut stdout = Vec::new();
    let mut stderr = Vec::new();
    if let Some(mut s) = child.stdout.take() {
        s.read_to_end(&mut stdout).ok();
    }
    if let Some(mut s) = child.stderr.take() {
        s.read_to_end(&mut stderr).ok();
    }
    Output {
        status,
        stdout,
        stderr,
    }
}

fn synth_spool(dir: &Path) -> PathBuf {
    let spool = dir.join("s.lcv3");
    let mut cmd = loopcomm();
    cmd.arg("synth")
        .arg(&spool)
        .args(["--events", &EVENTS.to_string(), "--threads", "4"]);
    let out = run_with_timeout(cmd, "synth");
    assert!(out.status.success(), "synth failed: {out:?}");
    spool
}

fn analyze(spool: &Path, report: &Path, extra: &[&str]) -> Output {
    let mut cmd = loopcomm();
    cmd.arg("analyze")
        .arg(spool)
        .args(["--slots", "512", "--jobs", "2", "--report-out"])
        .arg(report)
        .args(extra);
    run_with_timeout(cmd, "analyze")
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Faults at the checkpoint seam: whatever the action does to the
/// checkpoint file, a subsequent `--resume` run must reproduce the
/// uninterrupted report byte-for-byte.
#[test]
fn checkpoint_seam_fault_matrix_is_byte_identical_on_resume() {
    let dir = scratch_dir("cp_seam");
    let spool = synth_spool(&dir);
    let base = dir.join("base.txt");
    let out = analyze(&spool, &base, &["--mmap"]);
    assert!(out.status.success(), "baseline failed: {out:?}");
    let baseline = read(&base);

    // (action, plan line, expect the faulted run itself to die)
    let matrix: &[(&str, &str, bool)] = &[
        // First checkpoint write dies: only a `.tmp` exists, resume
        // starts from scratch.
        ("panic_first", "fault checkpoint_write panic count=1", true),
        // A later write dies: resume continues from a real mid-trace
        // checkpoint.
        (
            "panic_later",
            "fault checkpoint_write panic after=2 count=1",
            true,
        ),
        // Clean I/O failure: durability degrades, analysis completes.
        (
            "io_error",
            "fault checkpoint_write io_error count=inf",
            false,
        ),
        (
            "short_write",
            "fault checkpoint_write short_write:7 count=inf",
            false,
        ),
        // The write "succeeds" but the blob is corrupt; the CRC rejects
        // it at resume time.
        (
            "bit_flip",
            "fault checkpoint_write bit_flip:12 count=inf",
            false,
        ),
    ];

    for (name, plan_line, expect_death) in matrix {
        let cp = dir.join(format!("cp_{name}"));
        let plan = dir.join(format!("plan_{name}.txt"));
        std::fs::write(&plan, format!("{plan_line}\n")).expect("write plan");

        let crashed = dir.join(format!("crashed_{name}.txt"));
        let out = analyze(
            &spool,
            &crashed,
            &[
                "--mmap",
                "--checkpoint",
                cp.to_str().unwrap(),
                "--every",
                &EVERY.to_string(),
                "--fault-plan",
                plan.to_str().unwrap(),
            ],
        );
        if *expect_death {
            assert!(
                !out.status.success(),
                "[{name}] expected the injected crash to kill the run: {out:?}"
            );
        } else {
            assert!(
                out.status.success(),
                "[{name}] non-fatal fault must not fail the analysis: {out:?}"
            );
            // Non-fatal faults still produce the exact report — only
            // durability degrades.
            assert_eq!(
                read(&crashed),
                baseline,
                "[{name}] faulted run's own report must stay exact"
            );
        }

        let resumed = dir.join(format!("resumed_{name}.txt"));
        let out = analyze(
            &spool,
            &resumed,
            &["--mmap", "--resume", cp.to_str().unwrap()],
        );
        assert!(out.status.success(), "[{name}] resume failed: {out:?}");
        assert_eq!(
            read(&resumed),
            baseline,
            "[{name}] resumed report must be byte-identical to the uninterrupted run"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint of another format version (here a version-1 file, whose
/// Bloom-filter state this build cannot read) is refused with exit 1,
/// not silently replaced by a from-scratch run.
#[test]
fn resume_from_a_version_1_checkpoint_exits_1() {
    let dir = scratch_dir("cp_v1");
    let spool = synth_spool(&dir);
    let cp = dir.join("cp");
    let out = analyze(
        &spool,
        &dir.join("first.txt"),
        &[
            "--checkpoint",
            cp.to_str().unwrap(),
            "--every",
            &EVERY.to_string(),
        ],
    );
    assert!(out.status.success(), "checkpointed run failed: {out:?}");
    let file = lc_profiler::checkpoint_path(&cp);
    let mut bytes = read(&file);
    assert_eq!(
        &bytes[4..8],
        &2u32.to_le_bytes(),
        "current format is LCCP v2"
    );
    bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(&file, &bytes).expect("write v1 checkpoint");

    let out = analyze(
        &spool,
        &dir.join("resumed.txt"),
        &["--resume", cp.to_str().unwrap()],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("unsupported checkpoint version 1 (expected 2)"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Faults at the v3 side-car index seam: the index is advisory, so any
/// torn/corrupt/missing index must be rebuilt exactly from the CRC-framed
/// segments and yield the same report.
#[test]
fn index_seam_fault_matrix_rebuilds_exactly() {
    let dir = scratch_dir("idx_seam");
    let spool = synth_spool(&dir);
    let base = dir.join("base.txt");
    let out = analyze(&spool, &base, &["--mmap"]);
    assert!(out.status.success(), "baseline failed: {out:?}");
    let baseline = read(&base);

    let matrix: &[(&str, &str)] = &[
        ("panic", "fault index_write panic count=1"),
        ("io_error", "fault index_write io_error count=inf"),
        ("short_write", "fault index_write short_write:5 count=inf"),
        ("bit_flip", "fault index_write bit_flip:9 count=inf"),
    ];

    for (name, plan_line) in matrix {
        let faulted = dir.join(format!("s_{name}.lcv3"));
        let plan = dir.join(format!("plan_{name}.txt"));
        std::fs::write(&plan, format!("{plan_line}\n")).expect("write plan");
        let mut cmd = loopcomm();
        cmd.arg("synth")
            .arg(&faulted)
            .args(["--events", &EVENTS.to_string(), "--threads", "4"])
            .args(["--fault-plan", plan.to_str().unwrap()]);
        // Data pages land before the index; whether the index write then
        // panics, errors, or silently corrupts, the data must survive.
        let _ = run_with_timeout(cmd, "synth faulted");

        let report = dir.join(format!("r_{name}.txt"));
        let out = analyze(&faulted, &report, &["--mmap"]);
        assert!(
            out.status.success(),
            "[{name}] analyze after index fault failed: {out:?}"
        );
        assert_eq!(
            read(&report),
            baseline,
            "[{name}] rebuilt-index replay must be byte-identical"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A salvaged (truncated-tail) spool analyzed with `--jobs > 1` must equal
/// the single-job analysis of the same salvage — the routing guarantee
/// holds on recovered prefixes, not just clean spools.
#[test]
fn salvage_respects_jobs_routing() {
    let dir = scratch_dir("salvage_jobs");
    // A v2 spool of `synth`'s default stream: nothing writes v2 files any
    // more, but `--salvage` still imports them.
    let trace = lc_trace::Trace::new(
        (0..EVENTS)
            .map(|i| lc_trace::synth_event(i, 42, 4, 65_536, 0.0))
            .collect(),
    );
    let mut bytes = Vec::new();
    lc_trace::write_trace_spool(&trace, &mut bytes, lc_trace::DEFAULT_FRAME_EVENTS)
        .expect("write v2");
    // Tear the tail mid-frame so `--salvage` recovers a strict prefix.
    let torn = dir.join("torn.lct");
    std::fs::write(&torn, &bytes[..bytes.len() - 777]).expect("write torn spool");

    let r1 = dir.join("r_jobs1.txt");
    let out = analyze(&torn, &r1, &["--salvage", "--jobs", "1"]);
    assert!(out.status.success(), "salvage jobs=1 failed: {out:?}");
    let r4 = dir.join("r_jobs4.txt");
    let mut cmd = loopcomm();
    cmd.arg("analyze")
        .arg(&torn)
        .args(["--slots", "512", "--salvage", "--jobs", "4", "--report-out"])
        .arg(&r4);
    let out = run_with_timeout(cmd, "salvage jobs=4");
    assert!(out.status.success(), "salvage jobs=4 failed: {out:?}");
    assert_eq!(
        read(&r1),
        read(&r4),
        "salvaged prefix must analyze identically across --jobs"
    );
    std::fs::remove_dir_all(&dir).ok();
}
