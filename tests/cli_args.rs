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

#[test]
fn batch_zero_is_rejected_with_documented_range() {
    // `--batch 0` would mean "blocks of nothing" — the replay loop used to
    // clamp it silently; now it is a parse-time error stating the range.
    let out = loopcomm(&["analyze", "whatever.lctrace", "--batch", "0"]);
    assert!(!out.status.success(), "--batch 0 must fail");
    assert_eq!(out.status.code(), Some(2), "usage errors exit with 2");
    let err = stderr_of(&out);
    assert!(
        err.contains("--batch must be in 1..="),
        "error must state the valid range, got: {err}"
    );
    assert!(
        err.contains("the default is"),
        "error must point at the default, got: {err}"
    );
}

#[test]
fn absurd_batch_is_rejected_not_clamped() {
    // Past 2^24 a "batch" is a whole-trace materialization, which defeats
    // the cache-tiling purpose of the knob; reject rather than clamp.
    let out = loopcomm(&["analyze", "whatever.lctrace", "--batch", "999999999"]);
    assert!(!out.status.success(), "absurd --batch must fail");
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(
        err.contains("--batch must be in 1..=") && err.contains("got 999999999"),
        "error must echo the rejected value, got: {err}"
    );
}

#[test]
fn non_integer_batch_is_rejected() {
    let out = loopcomm(&["analyze", "whatever.lctrace", "--batch", "lots"]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(
        err.contains("--batch expects an integer"),
        "non-integer must name the flag, got: {err}"
    );
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
