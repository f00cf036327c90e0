//! `analyze --coherence` at the CLI: the loop cap bounds the coherence
//! backend as it bounds the RAW analyzer, and `--metrics` carries the
//! coherence series without changing stdout or the reports.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use lc_cachesim::{CoherenceBackend, CoherenceConfig};
use lc_trace::{AccessEvent, AccessKind, FuncId, LoopId, StampedEvent, Trace};

fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lc_coh_cli_{}_{test}", std::process::id()));
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

/// A v3 spool of `n` accesses by 4 threads over 251 words, and its
/// events; access `i` reads when `reads_only`, and is in loop
/// `loop_of(i)`.
fn spool(
    dir: &Path,
    n: u64,
    reads_only: bool,
    loop_of: impl Fn(u64) -> u32,
) -> (String, Vec<StampedEvent>) {
    let evs: Vec<StampedEvent> = (0..n)
        .map(|i| StampedEvent {
            seq: i,
            event: AccessEvent {
                tid: (i % 4) as u32,
                addr: 0x1000 + (i * 7 % 251) * 8,
                size: 8,
                kind: if reads_only || i % 3 != 0 {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                },
                loop_id: LoopId(loop_of(i)),
                parent_loop: LoopId::NONE,
                func: FuncId::NONE,
                site: 0,
            },
        })
        .collect();
    let path = dir.join("t.lcv3");
    lc_trace::write_trace_spool_v3(&Trace::new(evs.clone()), &path, 1000).expect("write v3");
    (path.to_str().expect("UTF-8 temp dir").to_string(), evs)
}

/// A spool of reads, each in its own loop, records no RAW dependence, so
/// the RAW analyzer never fills its loop registry; the coherence backend
/// sees every loop and fails the run with the same hint.
#[test]
fn more_loops_than_the_cap_fail_coherence_with_the_capacity_hint() {
    let dir = scratch_dir("cap");
    let (file, _) = spool(&dir, 20_000, true, |i| i as u32);
    let plain = loopcomm(&["analyze", &file, "--loop-capacity", "64"]);
    assert!(
        plain.status.success(),
        "no RAW overflow without --coherence"
    );
    let out = loopcomm(&["analyze", &file, "--coherence", "--loop-capacity", "64"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("more than 64 distinct loops")
            && stderr.contains("hint: rerun with --loop-capacity 256 or higher (current 64)"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_carry_the_coherence_series_and_stdout_is_unchanged() {
    let dir = scratch_dir("metrics");
    let (file, evs) = spool(&dir, 30_000, false, |i| 1 + (i / 1000 % 5) as u32);
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (prom, with, without) = (path("m.prom"), path("with.txt"), path("without.txt"));
    let run = |extra: &[&str], out: &str| {
        let mut args = vec!["analyze", &file, "--coherence", "--coherence-out", out];
        args.extend(extra);
        let o = loopcomm(&args);
        assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
        String::from_utf8(o.stdout).unwrap()
    };
    let stdout = run(&["--metrics", &prom], &with);
    let plain = run(&[], &without);
    let drop_paths = |s: &str| -> Vec<String> {
        (s.lines())
            .filter(|l| !l.starts_with("wrote metrics"))
            .map(|l| l.replace(&with, "OUT").replace(&without, "OUT"))
            .collect()
    };
    assert_eq!(drop_paths(&stdout), drop_paths(&plain));
    assert_eq!(
        std::fs::read(&with).unwrap(),
        std::fs::read(&without).unwrap()
    );

    let mut b = CoherenceBackend::new(CoherenceConfig::default(), 4);
    b.on_block(&evs);
    let t = b.totals();
    let metrics = std::fs::read_to_string(&prom).unwrap();
    let value = |name: &str| -> f64 {
        let line = (metrics.lines())
            .find(|l| l.split_whitespace().next() == Some(name))
            .unwrap_or_else(|| panic!("no `{name}` in:\n{metrics}"));
        line.split_whitespace().nth(1).unwrap().parse().unwrap()
    };
    for (name, want) in [
        ("accesses", t.accesses),
        ("invalidations", t.invalidations),
        ("c2c_fills", t.c2c_fills),
        ("writebacks", t.writebacks),
        ("true_bytes", t.true_bytes),
        ("false_bytes", t.false_bytes),
        ("false_sharing_events", t.false_sharing_events),
    ] {
        assert_eq!(
            value(&format!("loopcomm_coherence_{name}_total")),
            want as f64,
            "{name}"
        );
    }
    assert!(t.invalidations > 0 && t.true_bytes > 0);
    assert!(value("loopcomm_coherence_shards") >= 1.0);
    assert!(value("loopcomm_coherence_report_seconds") >= 0.0);
    std::fs::remove_dir_all(&dir).ok();
}
