//! CLI argument validation: malformed flags must fail loudly at parse
//! time with actionable messages, never silently clamp or panic deep in
//! the replay path.

use std::process::{Command, Output};

fn loopcomm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_loopcomm"))
        .args(args)
        .output()
        .expect("spawn loopcomm")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// `--batch` is a removed flag: whatever value follows it, the refusal is
/// the one-line removed-flag hint, before the value is parsed or checked.
fn assert_batch_refused_as_removed(value: &str) {
    let out = loopcomm(&["analyze", "whatever.lctrace", "--batch", value]);
    assert_eq!(out.status.code(), Some(2), "usage errors exit with 2");
    let err = stderr_of(&out);
    assert!(
        err.contains("--batch was removed"),
        "--batch {value}: hint must name the removed flag, got: {err}"
    );
    assert!(
        !err.contains("must be in") && !err.contains("invalid value"),
        "--batch {value}: the value must not be parsed, got: {err}"
    );
    assert_eq!(err.lines().count(), 1, "one-line hint, got: {err}");
    assert!(out.stdout.is_empty(), "--batch {value}: nothing analysed");
}

#[test]
fn batch_zero_is_rejected_with_documented_range() {
    // `--batch 0` used to be a range error; the flag is gone, so the hint
    // now says why instead of quoting a range.
    assert_batch_refused_as_removed("0");
}

#[test]
fn absurd_batch_is_rejected_not_clamped() {
    // Neither clamped nor range-checked: refused as a removed flag.
    assert_batch_refused_as_removed("999999999");
}

#[test]
fn non_integer_batch_is_rejected() {
    assert_batch_refused_as_removed("lots");
}

#[test]
fn synth_addr_reuse_out_of_range_is_rejected() {
    // --addr-reuse is a probability; 1.5 is a typo'd percentage.
    let out = loopcomm(&["synth", "out.lctrace", "--addr-reuse", "1.5"]);
    assert!(!out.status.success(), "--addr-reuse 1.5 must fail");
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(
        err.contains("--addr-reuse"),
        "error must name the flag, got: {err}"
    );
}

#[test]
fn synth_working_set_zero_is_rejected() {
    let out = loopcomm(&["synth", "out.lctrace", "--working-set", "0"]);
    assert!(!out.status.success(), "--working-set 0 must fail");
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(
        err.contains("--working-set"),
        "error must name the flag, got: {err}"
    );
}

#[test]
fn non_power_of_two_line_size_is_rejected() {
    // 48-byte "lines" would break the set-index sharding argument; the
    // geometry flags demand powers of two at parse time.
    let out = loopcomm(&[
        "analyze",
        "whatever.lctrace",
        "--coherence",
        "--line-size",
        "48",
    ]);
    assert!(!out.status.success(), "--line-size 48 must fail");
    assert_eq!(out.status.code(), Some(2), "usage errors exit with 2");
    let err = stderr_of(&out);
    assert!(
        err.contains("--line-size must be a power of two in 16..=512") && err.contains("got 48"),
        "error must state range and echo the value, got: {err}"
    );
}

#[test]
fn out_of_range_cache_kib_is_rejected_not_clamped() {
    let out = loopcomm(&[
        "analyze",
        "whatever.lctrace",
        "--coherence",
        "--cache-kib",
        "131072",
    ]);
    assert!(!out.status.success(), "--cache-kib 131072 must fail");
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(
        err.contains("--cache-kib must be a power of two in 1..=65536"),
        "error must state the valid range, got: {err}"
    );
}

#[test]
fn oversized_assoc_is_rejected() {
    let out = loopcomm(&[
        "analyze",
        "whatever.lctrace",
        "--coherence",
        "--assoc",
        "128",
    ]);
    assert!(!out.status.success(), "--assoc 128 must fail");
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(
        err.contains("--assoc must be a power of two in 1..=64") && err.contains("got 128"),
        "error must state range and echo the value, got: {err}"
    );
}

#[test]
fn non_integer_geometry_value_is_rejected() {
    let out = loopcomm(&[
        "analyze",
        "whatever.lctrace",
        "--coherence",
        "--line-size",
        "big",
    ]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(
        err.contains("--line-size expects an integer"),
        "non-integer must name the flag, got: {err}"
    );
}

#[test]
fn geometry_cross_constraint_is_rejected() {
    // 1 KiB cannot hold even one set of 16 ways x 512 B lines — the
    // cross-constraint must fire even when each flag is individually valid.
    let out = loopcomm(&[
        "analyze",
        "whatever.lctrace",
        "--coherence",
        "--cache-kib",
        "1",
        "--assoc",
        "16",
        "--line-size",
        "512",
    ]);
    assert!(!out.status.success(), "impossible geometry must fail");
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(
        err.contains("cannot hold one set"),
        "error must explain the cross constraint, got: {err}"
    );
}

#[test]
fn non_numeric_value_for_any_numeric_flag_is_a_usage_error_not_a_panic() {
    let mut flags = vec![
        "--threads",
        "--slots",
        "--window",
        "--seed",
        "--loop-capacity",
        "--jobs",
        "--frame-events",
        "--queue-frames",
        "--max-conns",
        "--max-tenants",
        "--every",
        "--events",
        "--tenant-idle-secs",
        "--tenant-max-bytes",
    ];
    if cfg!(feature = "sched") {
        flags.extend(["--explore", "--max-preemptions", "--max-schedules"]);
    }
    for flag in flags {
        let out = loopcomm(&["analyze", "whatever.lctrace", flag, "abc"]);
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{flag} abc: {err}");
        assert!(!err.contains("panicked"), "{flag} abc panicked: {err}");
        assert!(
            err.contains(&format!("invalid value `abc` for {flag}")),
            "{flag}: error must name the flag and echo the value, got: {err}"
        );
    }
}

#[test]
fn removed_no_skip_flag_exits_2_with_a_hint_and_analyses_nothing() {
    // A real, analysable input: the refusal must come from the flag, at
    // parse time, before the file is opened.
    let dir = scratch_dir("removed_flag");
    let trace = dir.join("t.lctrace");
    std::fs::write(&trace, v1_two_thread_trace(0, 1)).unwrap();
    let report = dir.join("report.txt");
    let out = loopcomm(&[
        "analyze",
        trace.to_str().unwrap(),
        "--no-skip-filter",
        "--report-out",
        report.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "a removed flag is a usage error"
    );
    let err = stderr_of(&out);
    assert!(
        err.contains("--no-skip-filter") && err.contains("removed in PR 24"),
        "hint must name the flag and say where it went, got: {err}"
    );
    assert_eq!(err.lines().count(), 1, "one-line hint, got: {err}");
    assert!(out.stdout.is_empty(), "nothing analysed");
    assert!(!report.exists(), "no report written");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retired_write_and_analyze_flags_exit_2_with_a_one_line_hint() {
    let dir = scratch_dir("retired_flags");
    let trace = dir.join("t.lctrace");
    std::fs::write(&trace, v1_two_thread_trace(0, 1)).unwrap();
    let (trace, out) = (trace.to_str().unwrap(), dir.join("out.lcv3"));
    let out = out.to_str().unwrap();
    let cases: [(&str, &[&str]); 6] = [
        (
            "--spool",
            &["record", "radix", out, "--size", "simdev", "--spool"],
        ),
        ("--v3", &["synth", out, "--events", "10", "--v3"]),
        ("--no-coalesce", &["analyze", trace, "--no-coalesce"]),
        ("--fused", &["analyze", trace, "--fused"]),
        ("--no-fused", &["analyze", trace, "--no-fused"]),
        ("--batch", &["analyze", trace, "--batch", "1024"]),
    ];
    for (flag, args) in cases {
        let o = loopcomm(args);
        let err = stderr_of(&o);
        assert_eq!(o.status.code(), Some(2), "{flag}: {err}");
        assert!(
            err.contains(flag) && err.contains("removed"),
            "{flag}: hint must name the flag, got: {err}"
        );
        assert_eq!(err.lines().count(), 1, "{flag}: one-line hint, got: {err}");
        assert!(o.stdout.is_empty(), "{flag}: nothing ran");
        assert!(
            !std::path::Path::new(out).exists(),
            "{flag}: nothing written"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn coherence_on_a_command_that_ignores_it_exits_2_naming_the_readers() {
    // Each of these used to exit 0 with no coherence output at all; the
    // 100-thread case also slipped past the backend's 64-thread limit.
    let cases: [&[&str]; 5] = [
        &[
            "profile",
            "radix",
            "--threads",
            "2",
            "--size",
            "simdev",
            "--coherence",
        ],
        &[
            "profile",
            "radix",
            "--threads",
            "100",
            "--size",
            "simdev",
            "--coherence",
        ],
        &["nested", "radix", "--size", "simdev", "--coherence"],
        &["simulate", "radix", "--size", "simdev", "--coherence"],
        &["deps", "fft", "--size", "simdev", "--coherence"],
    ];
    for args in cases {
        let o = loopcomm(args);
        let err = stderr_of(&o);
        assert_eq!(o.status.code(), Some(2), "{args:?}: {err}");
        assert!(
            err.contains("--coherence")
                && err.contains("`analyze`, `serve` and `classify`")
                && err.contains(&format!("not `{}`", args[0])),
            "{args:?}: must name the flag and its readers, got: {err}"
        );
        assert_eq!(err.lines().count(), 1, "{args:?}: one line, got: {err}");
        assert!(o.stdout.is_empty(), "{args:?}: nothing ran");
    }
}

/// `classify --coherence` runs the exact detector beside the MESI
/// backend, so it reads neither signature flag; both used to be accepted
/// and ignored.
#[test]
fn signature_flags_under_classify_coherence_exit_2_naming_the_readers() {
    let live = ["--size", "simdev", "--threads", "2"];
    for (flag, value) in [("--slots", "7"), ("--loop-capacity", "8")] {
        let mut args = vec!["classify", "fs_padded", "--coherence", flag, value];
        args.extend(live);
        let o = loopcomm(&args);
        let err = stderr_of(&o);
        assert_eq!(o.status.code(), Some(2), "{args:?}: {err}");
        assert!(
            err.contains(&format!("{flag} is read only by `profile`"))
                && err.contains("`classify without --coherence`")
                && err.ends_with("not `classify --coherence`\n"),
            "{args:?}: must name the flag and its readers, got: {err}"
        );
        assert_eq!(err.lines().count(), 1, "{args:?}: one line, got: {err}");
        assert!(o.stdout.is_empty(), "{args:?}: nothing ran");
        // Without --coherence the same flag is read.
        let mut args = vec!["classify", "fs_padded", flag, value];
        args.extend(live);
        let o = loopcomm(&args);
        assert_eq!(o.status.code(), Some(0), "{args:?}: {}", stderr_of(&o));
    }
}

#[test]
fn coherence_out_without_analyze_coherence_exits_2_and_writes_nothing() {
    let dir = scratch_dir("coherence_out");
    let trace = dir.join("t.lctrace");
    std::fs::write(&trace, v1_two_thread_trace(0, 1)).unwrap();
    let (trace, report) = (trace.to_str().unwrap(), dir.join("coh.txt"));
    let report = report.to_str().unwrap();
    let cases: [&[&str]; 2] = [
        &["analyze", trace, "--coherence-out", report],
        &[
            "profile",
            "radix",
            "--size",
            "simdev",
            "--coherence-out",
            report,
        ],
    ];
    for args in cases {
        let o = loopcomm(args);
        let err = stderr_of(&o);
        assert_eq!(o.status.code(), Some(2), "{args:?}: {err}");
        assert!(
            err.contains("--coherence-out is read only by `analyze --coherence`"),
            "{args:?}: must name the flag and its reader, got: {err}"
        );
        assert_eq!(err.lines().count(), 1, "{args:?}: one line, got: {err}");
        assert!(o.stdout.is_empty(), "{args:?}: nothing ran");
        assert!(!std::path::Path::new(report).exists(), "{args:?}: no file");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn thread_counts_out_of_range_are_usage_errors_not_panics() {
    let cases: [&[&str]; 4] = [
        // The producer/consumer ring needs a neighbour to hand off to.
        &[
            "profile",
            "fs_straddle",
            "--threads",
            "1",
            "--size",
            "simdev",
        ],
        &["profile", "radix", "--threads", "0", "--size", "simdev"],
        &["deps", "fft", "--threads", "0", "--size", "simdev"],
        // More threads than `analyze` accepts thread ids for.
        &["analyze", "whatever.lctrace", "--threads", "1025"],
    ];
    for args in cases {
        let o = loopcomm(args);
        let err = stderr_of(&o);
        assert_eq!(o.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("--threads"), "{args:?}: {err}");
        assert_eq!(err.lines().count(), 1, "{args:?}: one line, got: {err}");
    }
}

#[test]
fn sizing_flags_out_of_range_exit_2_naming_the_flag_and_its_range() {
    // Each of these used to panic, abort or wrap deep in the run: a
    // zero-slot signature, a capacity overflow, a zero-capacity registry,
    // `next_power_of_two` wrapping to 0, an 8 TiB allocation, a zero phase
    // window, and a `--jobs` value whose checkpoint `--resume` refuses.
    // The last ten used to be raised to 1 at 0 (`synth --frame-events 0`
    // wrote one page-padded segment per event) or, at 2^40, to abort the
    // process (`synth --frame-events`) or the whole server at its first
    // tenant (`serve --queue-frames`); a frame above 2^24 events was
    // written but refused by every reader.
    let max = "18446744073709551615";
    let big = "1099511627776";
    let cases: [(&str, &[&str], &str); 20] = [
        (
            "--slots",
            &["analyze", "x", "--slots", "0"],
            "1..=1073741824",
        ),
        (
            "--slots",
            &["profile", "radix", "--size", "simdev", "--slots", "0"],
            "1..=1073741824",
        ),
        (
            "--slots",
            &["analyze", "x", "--slots", max],
            "1..=1073741824",
        ),
        (
            "--loop-capacity",
            &["analyze", "x", "--loop-capacity", "0"],
            "1..=16777216",
        ),
        (
            "--loop-capacity",
            &["analyze", "x", "--coherence", "--loop-capacity", "0"],
            "1..=16777216",
        ),
        (
            "--loop-capacity",
            &["analyze", "x", "--loop-capacity", max],
            "1..=16777216",
        ),
        (
            "--loop-capacity",
            &["analyze", "x", "--loop-capacity", "1099511627776"],
            "1..=16777216",
        ),
        (
            "--window",
            &["phases", "radix", "--size", "simdev", "--window", "0"],
            "1..",
        ),
        ("--jobs", &["analyze", "x", "--jobs", "65537"], "1..=65536"),
        (
            "--jobs",
            &["analyze", "x", "--jobs", "65537", "--checkpoint", "cp"],
            "1..=65536",
        ),
        (
            "--frame-events",
            &["analyze", "x", "--frame-events", "0"],
            "1..=16777216",
        ),
        (
            "--frame-events",
            &["analyze", "x", "--frame-events", "16777217"],
            "1..=16777216",
        ),
        (
            "--frame-events",
            &["analyze", "x", "--frame-events", big],
            "1..=16777216",
        ),
        (
            "--queue-frames",
            &["analyze", "x", "--queue-frames", "0"],
            "1..=65536",
        ),
        (
            "--queue-frames",
            &["analyze", "x", "--queue-frames", big],
            "1..=65536",
        ),
        (
            "--max-conns",
            &["analyze", "x", "--max-conns", "0"],
            "1..=4096",
        ),
        (
            "--max-conns",
            &["analyze", "x", "--max-conns", big],
            "1..=4096",
        ),
        (
            "--max-tenants",
            &["analyze", "x", "--max-tenants", "0"],
            "1..=1024",
        ),
        (
            "--max-tenants",
            &["analyze", "x", "--max-tenants", big],
            "1..=1024",
        ),
        ("--every", &["analyze", "x", "--every", "0"], "1.."),
    ];
    for (flag, args, range) in cases {
        let o = loopcomm(args);
        let err = stderr_of(&o);
        assert_eq!(o.status.code(), Some(2), "{args:?}: {err}");
        assert!(!err.contains("panicked at"), "{args:?} panicked: {err}");
        assert!(
            err.contains(&format!("{flag} must be in {range} (got ")),
            "{args:?}: error must name the flag and its range, got: {err}"
        );
        assert_eq!(err.lines().count(), 1, "{args:?}: one line, got: {err}");
        assert!(o.stdout.is_empty(), "{args:?}: nothing ran");
    }
}

#[test]
fn sizing_flags_at_their_bounds_are_accepted() {
    let dir = scratch_dir("sizing_bounds");
    let trace = dir.join("t.lctrace");
    std::fs::write(&trace, v1_two_thread_trace(0, 1)).unwrap();
    let trace = trace.to_str().unwrap();
    let report = |name: &str, flags: &[&str]| {
        let path = dir.join(name);
        let mut args = vec!["analyze", trace, "--report-out", path.to_str().unwrap()];
        args.extend_from_slice(flags);
        let o = loopcomm(&args);
        assert!(o.status.success(), "{flags:?}: {}", stderr_of(&o));
        std::fs::read(path).unwrap()
    };
    let base = report("base.txt", &[]);
    let low = report(
        "low.txt",
        &["--slots", "1", "--loop-capacity", "1", "--jobs", "1"],
    );
    assert_eq!(base, low, "one slot and one loop still see both RAWs");
    let o = loopcomm(&[
        "phases",
        "radix",
        "--size",
        "simdev",
        "--threads",
        "2",
        "--window",
        "1",
    ]);
    assert!(o.status.success(), "--window 1: {}", stderr_of(&o));
    std::fs::remove_dir_all(&dir).ok();
}

/// A v1 trace built byte-by-byte (`LCTR`, version 1, count, 41-byte
/// records): thread `writer` stores one word, thread `reader` loads it.
fn v1_two_thread_trace(writer: u32, reader: u32) -> Vec<u8> {
    let mut f = Vec::new();
    f.extend_from_slice(b"LCTR");
    f.extend_from_slice(&1u32.to_le_bytes());
    f.extend_from_slice(&4u64.to_le_bytes());
    for (seq, (tid, kind)) in [(writer, 1u8), (reader, 0), (writer, 1), (reader, 0)]
        .into_iter()
        .enumerate()
    {
        f.extend_from_slice(&(seq as u64).to_le_bytes());
        f.extend_from_slice(&tid.to_le_bytes());
        f.extend_from_slice(&0x1000u64.to_le_bytes()); // addr
        f.extend_from_slice(&8u32.to_le_bytes()); // size
        f.push(kind);
        f.extend_from_slice(&1u32.to_le_bytes()); // loop
        f.extend_from_slice(&0u32.to_le_bytes()); // parent loop
        f.extend_from_slice(&0u32.to_le_bytes()); // func
        f.extend_from_slice(&0u32.to_le_bytes()); // site
    }
    assert_eq!(f.len(), 16 + 4 * 41);
    f
}

fn scratch_dir(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lc_cli_args_{}_{test}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn sparse_thread_ids_size_matrices_by_max_tid_not_by_count() {
    // tids {0, 5} are two *distinct* ids but index a 6x6 matrix; sizing
    // from the count used to panic in `CommMatrix::add`.
    let dir = scratch_dir("sparse_tids");
    let trace = dir.join("sparse.lctrace");
    std::fs::write(&trace, v1_two_thread_trace(0, 5)).unwrap();
    let trace = trace.to_str().unwrap();

    let plain = dir.join("plain.txt");
    let out = loopcomm(&["analyze", trace, "--report-out", plain.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}\n{}", stderr_of(&out));
    assert!(stdout.contains("6 thread(s)"), "{stdout}");
    assert!(stdout.contains("consumers 0..5"), "{stdout}");
    assert!(stdout.contains("RAW dependencies: 2"), "{stdout}");

    let cp = dir.join("cp");
    let checkpointed = dir.join("cp.txt");
    let out = loopcomm(&[
        "analyze",
        trace,
        "--checkpoint",
        cp.to_str().unwrap(),
        "--report-out",
        checkpointed.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert_eq!(
        std::fs::read(&plain).unwrap(),
        std::fs::read(&checkpointed).unwrap(),
        "--checkpoint must not change the report"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wild_thread_id_is_refused_before_anything_is_allocated() {
    // max tid + 1 = 3 000 001 would be a 72 TB dense matrix.
    let dir = scratch_dir("wild_tid");
    let trace = dir.join("wild.lctrace");
    std::fs::write(&trace, v1_two_thread_trace(0, 3_000_000)).unwrap();
    let out = loopcomm(&["analyze", trace.to_str().unwrap()]);
    let err = stderr_of(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains("thread id 3000000") && err.contains("below 1024"),
        "message must name the offending tid and the bound, got: {err}"
    );
    assert!(!err.contains("panicked"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// 2^30 slots at 1024 threads ask for 256 GiB of signature table. Where the
/// host will not hand that out, `analyze` exits 1 naming `--slots`; where
/// it will (it commits no page it does not touch), the run completes. It
/// never dies in the allocator.
#[test]
fn a_signature_table_past_host_memory_exits_1_naming_slots() {
    let dir = scratch_dir("huge_table");
    let trace = dir.join("t.lctrace");
    std::fs::write(&trace, v1_two_thread_trace(0, 1023)).unwrap();
    let out = loopcomm(&["analyze", trace.to_str().unwrap(), "--slots", "1073741824"]);
    let err = stderr_of(&out);
    match out.status.code() {
        Some(0) => {}
        Some(1) => {
            assert!(err.contains("--slots"), "{err}");
            assert_eq!(err.lines().count(), 1, "{err}");
        }
        code => panic!("exit {code:?}, want 0 or 1: {err}"),
    }
    assert!(!err.contains("panicked"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn closed_stdout_pipe_ends_quietly_not_with_a_panic() {
    // `loopcomm profile … | head -3`: the reader leaves before the report
    // is printed. The process must end without a panic message or the
    // panic exit code 101 (it is killed by SIGPIPE, as `cat` would be).
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_loopcomm"))
        .args(["profile", "radix", "--size", "simdev", "--threads", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn loopcomm");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for loopcomm");
    let err = stderr_of(&out);
    assert!(!err.contains("panicked"), "{err}");
    assert_ne!(out.status.code(), Some(101), "{err}");
}
