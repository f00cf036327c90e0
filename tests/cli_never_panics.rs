//! The command line refuses what it would ignore, and never panics.
//!
//! The binary renders a `read by:` line under every option of its usage
//! text from its one flag table, so these tests read the table back from
//! there and follow it: every (command, flag) pair it does not accept
//! must exit 2 with one line naming the readers, and every flag a command
//! reads is swept over valid, boundary, one-past-boundary, non-numeric,
//! missing and duplicated values, and over inputs a user can hand over
//! (an empty file, a v3 spool cut at every page, a directory, `/dev/null`
//! and a missing path), with an exit code in {0, 1, 2} and no panic.
//!
//! Live runs use `--size simdev` and at most 4 workload threads; thread
//! counts past that appear only where they fail at parse time. `serve`
//! is only given argument lists that fail before it binds.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Run `loopcomm args` with its output in files under `dir`, killed if it
/// has not ended within a minute.
fn loopcomm<S: AsRef<std::ffi::OsStr>>(dir: &Path, args: &[S]) -> Output {
    static RUN: AtomicUsize = AtomicUsize::new(0);
    let n = RUN.fetch_add(1, Ordering::Relaxed);
    let (out, err) = (
        dir.join(format!("{n}.stdout")),
        dir.join(format!("{n}.stderr")),
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_loopcomm"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(std::fs::File::create(&out).expect("stdout file"))
        .stderr(std::fs::File::create(&err).expect("stderr file"))
        .spawn()
        .expect("spawn loopcomm");
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait for loopcomm") {
            break status;
        }
        if start.elapsed() > Duration::from_secs(60) {
            child.kill().ok();
            child.wait().ok();
            let args: Vec<_> = args.iter().map(|a| a.as_ref().to_string_lossy()).collect();
            panic!("`loopcomm {}` ran for over a minute", args.join(" "));
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    let read = |p: &Path| {
        let bytes = std::fs::read(p).expect("read output");
        std::fs::remove_file(p).ok();
        bytes
    };
    Output {
        status,
        stdout: read(&out),
        stderr: read(&err),
    }
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lc_never_panics_{}_{test}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// One option as the usage text shows it.
struct Flag {
    name: String,
    takes_value: bool,
    /// Each reader, with the flag it needs there (`without` rules read as
    /// no need).
    readers: Vec<(String, Option<String>)>,
}

impl Flag {
    /// `Some(need)` when `cmd` reads the flag (`need` the flag it needs
    /// there, if any), `None` when `cmd` never reads it.
    fn read_by(&self, cmd: &str) -> Option<Option<&str>> {
        (self.readers.iter())
            .find(|(c, _)| c == cmd)
            .map(|(_, need)| need.as_deref())
    }
}

fn usage_text() -> String {
    let out = (Command::new(env!("CARGO_BIN_EXE_loopcomm")).output()).expect("spawn loopcomm");
    assert_eq!(out.status.code(), Some(2));
    stderr_of(&out)
}

/// The commands and the options of the usage text.
fn table() -> (Vec<String>, Vec<Flag>) {
    let text = usage_text();
    let (mut commands, mut flags) = (Vec::new(), Vec::<Flag>::new());
    let (mut section, mut readers) = ("", None::<String>);
    let finish = |flags: &mut Vec<Flag>, readers: &mut Option<String>| {
        if let (Some(f), Some(r)) = (flags.last_mut(), readers.take()) {
            let r = r.replace(" (repeatable)", "").replace(" and ", ", ");
            // A `without --flag` reader reads the flag as long as the
            // other is not given, which no sweep here gives it.
            f.readers = (r.split(", "))
                .map(|item| match item.split_once(' ') {
                    Some((c, need)) if need.starts_with("without ") => (c.to_string(), None),
                    Some((c, need)) => (c.to_string(), Some(need.to_string())),
                    None => (item.to_string(), None),
                })
                .collect();
        }
    };
    for line in text.lines() {
        if matches!(line, "commands:" | "options:") {
            section = line;
        } else if section == "commands:" && line.starts_with("  ") && !line.starts_with("   ") {
            commands.push(line.split_whitespace().next().unwrap().to_string());
        } else if section == "options:" && line.starts_with("  --") {
            finish(&mut flags, &mut readers);
            let mut words = line.split_whitespace();
            let name = words.next().unwrap().to_string();
            let value = words.next().unwrap_or("");
            flags.push(Flag {
                name,
                takes_value: value.chars().all(|c| c.is_ascii_uppercase()) || value == "N|none",
                readers: Vec::new(),
            });
        } else if let Some(r) = line.trim_start().strip_prefix("read by: ") {
            readers = Some(r.to_string());
        } else if let Some(r) = readers
            .as_mut()
            .filter(|_| line.starts_with(&" ".repeat(28)))
        {
            *r += " ";
            *r += line.trim_start();
        }
    }
    finish(&mut flags, &mut readers);
    (commands, flags)
}

/// `text` without its reader annotations: the hand-written `(analyze) `
/// that opened an option's help before the table, and the `read by:`
/// lines rendered from it now.
fn without_readers(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_readers = false;
    for line in text.lines() {
        if line.trim_start().starts_with("read by: ") {
            in_readers = true;
            continue;
        }
        if in_readers && line.starts_with(&" ".repeat(28)) {
            continue;
        }
        in_readers = false;
        let open = line
            .find(" (")
            .filter(|&i| line.starts_with("  --") && line[..i].split_whitespace().count() <= 2);
        match open.and_then(|i| line[i..].find(") ").map(|j| (i, i + j + 2))) {
            Some((i, j)) => out.push(format!("{}{}", &line[..=i], &line[j..])),
            None => out.push(line.to_string()),
        }
    }
    out
}

#[test]
fn usage_differs_from_its_golden_only_in_the_reader_annotations() {
    let now = usage_text();
    let golden = include_str!("usage_golden.txt");
    assert_eq!(without_readers(golden), without_readers(&now));
    let options = now.lines().filter(|l| l.starts_with("  --")).count();
    let annotated = (now.lines())
        .filter(|l| l.trim_start().starts_with("read by: "))
        .count();
    assert_eq!(options, annotated, "every option names its readers");
    assert!(options >= 38, "{options} options");
}

#[test]
fn every_reader_is_a_command_and_every_need_an_option() {
    let (commands, flags) = table();
    assert!(commands.len() >= 17, "{commands:?}");
    for f in &flags {
        assert!(!f.readers.is_empty(), "{} has no reader", f.name);
        for (cmd, need) in &f.readers {
            assert!(commands.contains(cmd), "{}: `{cmd}` is no command", f.name);
            if let Some(need) = need {
                let needed = flags.iter().find(|g| &g.name == need);
                assert!(needed.is_some(), "{}: `{need}` is no option", f.name);
                assert!(
                    needed.unwrap().read_by(cmd).is_some(),
                    "{cmd} ignores {need}"
                );
            }
        }
    }
}

/// Every path a sample value or a positional argument may name, fresh per
/// run: a test asserts none of them is created by a refused command.
struct Paths {
    dir: PathBuf,
    n: AtomicUsize,
}

impl Paths {
    fn fresh(&self, ext: &str) -> String {
        let n = self.n.fetch_add(1, Ordering::Relaxed);
        self.dir
            .join(format!("out{n}.{ext}"))
            .to_string_lossy()
            .into_owned()
    }
}

/// The flags whose value names a file or directory the run may create.
const PATH_FLAGS: [&str; 7] = [
    "--metrics",
    "--coherence-out",
    "--report-out",
    "--checkpoint",
    "--resume",
    "--durable-dir",
    "--trace-out",
];

/// A value of `flag` that parses: the run it is given to then starts.
fn valid(flag: &str, paths: &Paths) -> String {
    if PATH_FLAGS.contains(&flag) {
        return paths.fresh("out");
    }
    let v = match flag {
        "--threads" => "2",
        "--size" => "simdev",
        "--slots" => "4096",
        "--window" => "100",
        "--seed" => "7",
        "--loop-capacity" => "64",
        "--jobs" => "2",
        "--line-size" => "64",
        "--cache-kib" => "16",
        "--assoc" => "4",
        "--every" => "64",
        "--events" => "300",
        "--addr-reuse" => "0.5",
        "--working-set" => "100",
        "--tenant-idle-secs" => "5",
        "--tenant-max-bytes" => "4096",
        "--listen" | "--http" => "127.0.0.1:0",
        "--queue-frames" | "--max-conns" | "--max-tenants" => "4",
        // Nothing listens on port 1: a client fails fast.
        "--connect" => "127.0.0.1:1",
        "--tenant" => "t",
        "--frame-events" => "64",
        "--explore" => "1",
        "--max-preemptions" => "none",
        "--max-schedules" => "20",
        "--mutant" => "bitvec-lost-update",
        other => panic!("no sample value for {other}: add one"),
    };
    v.to_string()
}

/// Values of `flag` around its bounds and past them, and values that are
/// no number: each paired with whether it parses. A bound whose run
/// would start more than 4 threads, allocate a table sized for it or run
/// without end is left out (see each arm).
fn edges(flag: &str) -> Vec<(&'static str, bool)> {
    let max = "18446744073709551615";
    let past = "18446744073709551616";
    let mut v = match flag {
        // 1025 fails at parse time; 1024 would start that many threads.
        "--threads" => vec![("1", true), ("4", true), ("0", false), ("1025", false)],
        "--size" => vec![("huge", false), ("", false)],
        // 2^30 is swept through `analyze` only, on a four-event trace.
        "--slots" => vec![("1", true), ("0", false), ("1073741825", false)],
        "--window" | "--working-set" => vec![("1", true), (max, true), ("0", false)],
        "--seed" | "--tenant-idle-secs" | "--tenant-max-bytes" => {
            vec![("0", true), (max, true), ("-1", false), (past, false)]
        }
        // 2^24 would allocate every registry cell up front.
        "--loop-capacity" => vec![("1", true), ("0", false), ("16777217", false)],
        // 65536 workers would each hold a signature shard.
        "--jobs" => vec![("1", true), ("0", false), ("65537", false)],
        "--line-size" => vec![("16", true), ("512", true), ("48", true), ("1024", true)],
        "--cache-kib" => vec![("1", true), ("3", true), ("131072", true)],
        "--assoc" => vec![("1", true), ("64", true), ("3", true), ("128", true)],
        "--every" => vec![("1", true), (max, true), ("0", false)],
        // u64::MAX events would never end.
        "--events" => vec![("0", true), ("1", true), ("-1", false)],
        "--addr-reuse" => vec![
            ("0.0", true),
            ("1.0", true),
            ("1.5", false),
            ("-0.1", false),
            ("nan", false),
        ],
        "--queue-frames" => vec![("0", false), ("65537", false)],
        "--max-conns" => vec![("0", false), ("4097", false)],
        "--max-tenants" => vec![("0", false), ("1025", false)],
        "--connect" => vec![
            ("not-an-address", true),
            ("unix:/nonexistent/lc.sock", true),
        ],
        "--tenant" => vec![("", true)],
        // 2^24 would allocate a 2^24-event frame buffer.
        "--frame-events" => vec![("1", true), ("0", false), ("16777217", false)],
        // u64::MAX schedules would never end.
        "--explore" => vec![("0", true), ("2", true), ("-1", false)],
        "--max-preemptions" => vec![("0", true), ("3", true), ("-1", false)],
        "--max-schedules" => vec![("0", true), ("1", true), ("-1", false)],
        "--mutant" => vec![("no-such-mutant", true)],
        _ => Vec::new(),
    };
    let text = matches!(
        flag,
        "--listen" | "--http" | "--connect" | "--tenant" | "--mutant"
    );
    if !text && !PATH_FLAGS.contains(&flag) {
        v.push(("abc", false));
    }
    v
}

/// A command with its positional arguments and the flags every sweep of
/// it starts from (only ones it reads).
fn base(cmd: &str, spool: &str, paths: &Paths) -> Vec<String> {
    let live = ["--size", "simdev", "--threads", "2"];
    let mut args: Vec<String> = vec![cmd.to_string()];
    args.extend(match cmd {
        "list" | "serve" => vec![],
        "record" => vec!["fs_padded".into(), paths.fresh("lcv3")],
        "report" => vec!["fs_padded".into(), paths.fresh("html")],
        "synth" => vec![paths.fresh("lcv3"), "--events".into(), "300".into()],
        "analyze" => vec![spool.into(), "--slots".into(), "4096".into()],
        "stream" => vec![spool.into(), "--connect".into(), "127.0.0.1:1".into()],
        "simtest" => vec!["read-sig".into(), "--max-schedules".into(), "20".into()],
        _ => vec!["fs_padded".into()],
    });
    if matches!(
        cmd,
        "profile" | "nested" | "load" | "classify" | "map" | "phases" | "report"
    ) {
        args.extend(["--slots".into(), "4096".into()]);
    }
    if !matches!(
        cmd,
        "list" | "serve" | "synth" | "analyze" | "stream" | "simtest"
    ) {
        args.extend(live.map(String::from));
    }
    args
}

/// A small v3 spool: 300 events in 64-event segments.
fn small_spool(dir: &Path, name: &str, extra: &[&str]) -> String {
    let spool = dir.join(name).to_string_lossy().into_owned();
    let mut args = vec!["synth", &spool, "--events", "300", "--frame-events", "64"];
    args.extend_from_slice(extra);
    let out = loopcomm(dir, &args);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    spool
}

/// The run ended with exit 0, 1 or 2 and printed no panic. An armed
/// `simtest --mutant` makes the simulated program panic, which the model
/// checker reports as a violation (exit 1); there the exit code alone
/// tells a panic of the command itself (101) apart.
fn assert_no_panic(args: &[String], out: &Output) {
    let err = stderr_of(out);
    assert!(
        matches!(out.status.code(), Some(0..=2)),
        "`loopcomm {}` exited {:?}: {err}",
        args.join(" "),
        out.status.code()
    );
    if !args.iter().any(|a| a == "--mutant") {
        assert!(
            !err.contains("panicked at"),
            "`loopcomm {}`: {err}",
            args.join(" ")
        );
    }
}

#[test]
fn every_pair_the_table_does_not_accept_exits_2_naming_the_readers() {
    let (commands, flags) = table();
    let dir = scratch_dir("matrix");
    let spool = small_spool(&dir, "s.lcv3", &[]);
    let paths = Paths {
        dir: dir.join("out"),
        n: AtomicUsize::new(0),
    };
    std::fs::create_dir_all(&paths.dir).unwrap();
    let mut refused = 0;
    for cmd in &commands {
        for f in &flags {
            // A reader with no need, or a need `base` gives, accepts it.
            match f.read_by(cmd) {
                Some(None) => continue,
                Some(Some(need)) if base(cmd, &spool, &paths).iter().any(|a| a == need) => continue,
                _ => {}
            }
            let mut args = base(cmd, &spool, &paths);
            args.push(f.name.clone());
            if f.takes_value {
                args.push(valid(&f.name, &paths));
            }
            let out = loopcomm(&dir, &args);
            let err = stderr_of(&out);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
            assert!(
                err.contains(&format!("error: {} is read only by ", f.name))
                    && err.contains(&format!(", not `{cmd}`")),
                "{args:?}: must name the readers, got: {err}"
            );
            assert_eq!(err.lines().count(), 1, "{args:?}: one line, got: {err}");
            assert!(out.stdout.is_empty(), "{args:?}: nothing ran");
            refused += 1;
        }
    }
    let written: Vec<_> = std::fs::read_dir(&paths.dir).unwrap().collect();
    assert!(written.is_empty(), "refused commands wrote {written:?}");
    assert!(refused > 400, "only {refused} refused pairs");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flags_that_used_to_be_ignored_exit_2_and_write_nothing() {
    let dir = scratch_dir("ignored");
    let spool = small_spool(&dir, "s.lcv3", &[]);
    let (m, x, y) = (dir.join("m.prom"), dir.join("x"), dir.join("y"));
    let (m, x, y) = (
        m.to_str().unwrap(),
        x.to_str().unwrap(),
        y.to_str().unwrap(),
    );
    let cases: [(&str, &[&str]); 7] = [
        (
            "--threads",
            &["analyze", &spool, "--threads", "4", "--seed", "9"],
        ),
        (
            "--size",
            &["analyze", &spool, "--size", "simlarge", "--window", "5"],
        ),
        (
            "--metrics",
            &["nested", "radix", "--size", "simdev", "--metrics", m],
        ),
        (
            "--checkpoint",
            &["serve", "--checkpoint", x, "--report-out", y],
        ),
        ("--tenant-idle-secs", &["serve", "--tenant-idle-secs", "5"]),
        ("--every", &["analyze", &spool, "--every", "5"]),
        ("--tenant", &["record", "radix", x, "--tenant", "t"]),
    ];
    for (flag, args) in cases {
        let out = loopcomm(&dir, args);
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(&format!("{flag} is read only by")), "{err}");
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing ran");
    }
    for path in [m, x, y] {
        assert!(!Path::new(path).exists(), "{path} written");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unwritable_outputs_exit_1_with_one_line() {
    let dir = scratch_dir("unwritable");
    let spool = small_spool(&dir, "s.lcv3", &["--threads", "4"]);
    let report = dir.join("r.txt").to_string_lossy().into_owned();
    let cases: [(&[&str], &str); 3] = [
        (
            &[
                "report",
                "fs_padded",
                "/nonexistent/x.html",
                "--size",
                "simdev",
                "--threads",
                "2",
            ],
            "cannot write report to `/nonexistent/x.html`",
        ),
        (
            &[
                "simtest",
                "read-sig",
                "--mutant",
                "bitvec-lost-update",
                "--trace-out",
                "/nonexistent/t",
            ],
            "cannot write trace file `/nonexistent/t`",
        ),
        // `--report-out` is written before `--coherence-out` is tried.
        (
            &[
                "analyze",
                &spool,
                "--coherence",
                "--coherence-out",
                "/nonexistent/c.txt",
                "--report-out",
                &report,
            ],
            "cannot write coherence report to `/nonexistent/c.txt`",
        ),
    ];
    for (args, want) in cases {
        let out = loopcomm(&dir, args);
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert_eq!(err.lines().filter(|l| l.contains(want)).count(), 1, "{err}");
        if args[0] != "simtest" {
            assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        }
    }
    let written = std::fs::read_to_string(&report).expect("--report-out written first");
    assert!(written.starts_with("loopcomm-report"), "{written}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Sweep every flag each of `commands` reads; see the module docs.
fn sweep(test: &str, commands: &[&str]) {
    let (_, flags) = table();
    let dir = scratch_dir(test);
    let spool = small_spool(&dir, "s.lcv3", &["--threads", "4"]);
    let paths = Paths {
        dir: dir.join("out"),
        n: AtomicUsize::new(0),
    };
    std::fs::create_dir_all(&paths.dir).unwrap();
    let empty = dir.join("empty");
    std::fs::write(&empty, "").unwrap();
    // A path no run can create: its parent is a file (a checkpoint
    // directory is created if missing).
    let missing = empty.join("x");
    let (empty, missing) = (empty.to_str().unwrap(), missing.to_str().unwrap());
    let d = dir.to_str().unwrap();
    for &cmd in commands {
        for f in flags.iter() {
            let Some(need) = f.read_by(cmd) else { continue };
            let name = f.name.as_str();
            let mut cases: Vec<(Vec<String>, bool)> = Vec::new();
            let one = |v: &str| vec![name.to_string(), v.to_string()];
            if !f.takes_value {
                cases.push((vec![name.into()], true));
                cases.push((vec![name.into(), name.into()], true));
            } else {
                cases.push((vec![name.into()], false));
                let (a, b) = (valid(name, &paths), valid(name, &paths));
                cases.push((one(&a), true));
                cases.push((vec![name.into(), a, name.into(), b], true));
                for (v, parses) in edges(name) {
                    cases.push((one(v), parses));
                }
                if PATH_FLAGS.contains(&name) {
                    for v in [d, empty, "/dev/null", missing] {
                        cases.push((one(v), true));
                    }
                }
            }
            for (case, parses) in cases {
                // A `serve` that parses would bind and run until killed.
                if cmd == "serve" && parses {
                    continue;
                }
                let mut args = base(cmd, &spool, &paths);
                if cmd == "record" && (name == "--connect" || need == Some("--connect")) {
                    args.remove(2); // `record --connect` writes no file.
                }
                if let Some(need) = need.filter(|n| !args.iter().any(|a| a == n)) {
                    args.push(need.to_string());
                    if flags.iter().any(|g| g.name == need && g.takes_value) {
                        args.push(valid(need, &paths));
                    }
                }
                args.extend(case);
                let out = loopcomm(&dir, &args);
                assert_no_panic(&args, &out);
                if !parses {
                    assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr_of(&out));
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn workload_commands_never_panic() {
    sweep(
        "workload",
        &[
            "list", "profile", "nested", "load", "classify", "map", "phases", "report",
        ],
    );
}

#[test]
fn simulate_record_synth_and_stream_never_panic() {
    sweep(
        "capture",
        &["simulate", "hotsites", "deps", "record", "synth", "stream"],
    );
}

#[test]
fn analyze_serve_and_simtest_never_panic() {
    sweep("analyze", &["analyze", "serve", "simtest"]);
}

/// What a user can hand `analyze` and `stream` in place of a trace: an
/// empty file, `/dev/null`, a directory, a missing path, and a v3 spool
/// cut at every page (so at every segment boundary), with and without
/// its side-car index; and a table sized for the largest `--slots`.
#[test]
fn unreadable_inputs_never_panic() {
    let dir = scratch_dir("inputs");
    let spool = small_spool(&dir, "s.lcv3", &["--threads", "4"]);
    let bytes = std::fs::read(&spool).unwrap();
    let index = std::fs::read(format!("{spool}.idx")).unwrap();
    let empty = dir.join("empty").to_string_lossy().into_owned();
    std::fs::write(&empty, "").unwrap();
    let d = dir.to_string_lossy().into_owned();
    let mut inputs = vec![empty, "/dev/null".into(), d, "/nonexistent/t.lcv3".into()];
    for (i, cut) in (0..=bytes.len()).step_by(4096).enumerate() {
        for with_index in [true, false] {
            let path = dir.join(format!("cut{i}_{with_index}.lcv3"));
            std::fs::write(&path, &bytes[..cut]).unwrap();
            if with_index {
                std::fs::write(format!("{}.idx", path.display()), &index).unwrap();
            }
            inputs.push(path.to_string_lossy().into_owned());
        }
    }
    for input in &inputs {
        for extra in [&[][..], &["--salvage"], &["--coherence", "--jobs", "2"]] {
            let mut args: Vec<String> = ["analyze", input, "--slots", "4096"]
                .map(String::from)
                .into();
            args.extend(extra.iter().map(|s| s.to_string()));
            assert_no_panic(&args, &loopcomm(&dir, &args));
        }
        for extra in [&[][..], &["--salvage"]] {
            let mut args: Vec<String> = ["stream", input, "--connect", "127.0.0.1:1"]
                .map(String::from)
                .into();
            args.extend(extra.iter().map(|s| s.to_string()));
            assert_no_panic(&args, &loopcomm(&dir, &args));
        }
    }
    // 2^30 slots on a trace with a thread id near 1024 asks for about
    // 256 GiB: the host refuses it (exit 1) or commits only what the four
    // events touch (exit 0).
    let wide = small_spool(&dir, "wide.lcv3", &["--events", "4", "--threads", "1024"]);
    let args: Vec<String> = ["analyze", &wide, "--slots", "1073741824"]
        .map(String::from)
        .into();
    assert_no_panic(&args, &loopcomm(&dir, &args));
    std::fs::remove_dir_all(&dir).ok();
}
