//! `lcbench` — end-to-end benchmark of the shipped `loopcomm` binary with an
//! outside-in per-layer cost ledger. See `benchmark/README.md`.
//!
//! ```text
//! lcbench [--workload W]... [--seed S] [--seconds N] [--trace 0|1]
//!         [--out F] [--smoke] [--keep]
//! lcbench --compare A.json B.json
//! ```
//!
//! Run from the repository root. Without `--trace` every selected workload
//! runs both halves — untraced child-process trials, then the traced
//! in-process run — and every metric is printed by name with its unit.
//! With `--trace 0|1` and one `--workload`, only that half runs and the
//! last line of stdout is the one-object summary a driver parses.

mod compare;
mod gen;
mod json;
mod layers;
mod metrics;
mod span;
mod stats;
mod sut;
mod workloads;

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Json;
use layers::Values;
use metrics::{END_TO_END, LAYERS};
use stats::{summarize, Summary};
use sut::Launcher;
use workloads::{prepare, trial, Ctx, Prepared, Trial, Workload, WORKLOADS};

/// Seed when none is given.
const DEFAULT_SEED: u64 = 42;
/// Timed phase of one workload, seconds: five trials of about two seconds.
const DEFAULT_SECONDS: f64 = 10.0;
/// Fewest timed trials, however long each one takes.
const MIN_TRIALS: usize = 3;
/// Set-up is repeated this often and `setup_s` takes the median, so one
/// slow page-cache flush does not read as a set-up regression.
const SETUP_REPEATS: usize = 3;

/// Which halves of the benchmark to run.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Half {
    /// `--trace 0`: end-to-end metrics only.
    EndToEnd,
    /// `--trace 1`: per-layer metrics only.
    Traced,
    Both,
}

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    half: Half,
    out: Option<PathBuf>,
    smoke: bool,
    keep: bool,
}

fn usage() -> String {
    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: lcbench [--workload W]... [--seed S] [--seconds N] [--trace 0|1] \
         [--out F] [--smoke] [--keep]\n       lcbench --compare A.json B.json\n\
         workloads: {}",
        names.join(", ")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        half: Half::Both,
        out: None,
        smoke: false,
        keep: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("missing value for {flag}\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = workloads::workload(name)
                    .ok_or_else(|| format!("unknown workload `{name}`\n{}", usage()))?;
                a.workloads.push(w);
            }
            "--seed" => {
                let v = value()?;
                a.seed = v
                    .parse()
                    .map_err(|_| format!("--seed expects an integer, got `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds expects a number >= 0, got `{v}`"))?;
            }
            "--trace" => {
                a.half = match value()?.as_str() {
                    "0" => Half::EndToEnd,
                    "1" => Half::Traced,
                    v => return Err(format!("--trace expects 0 or 1, got `{v}`")),
                };
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--smoke" => a.smoke = true,
            "--keep" => a.keep = true,
            other => return Err(format!("unknown option `{other}`\n{}", usage())),
        }
    }
    if a.half != Half::Both && a.workloads.len() != 1 {
        return Err("--trace needs exactly one --workload".into());
    }
    if a.workloads.is_empty() {
        a.workloads = WORKLOADS.iter().collect();
    }
    if a.smoke {
        a.seconds = 0.0;
    }
    Ok(a)
}

/// `benchmark/out/`, emptied on entry and removed on exit (panics
/// included) unless `--keep`.
struct OutDir {
    path: PathBuf,
    keep: bool,
}

impl OutDir {
    fn create(path: PathBuf, keep: bool) -> std::io::Result<OutDir> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(OutDir { path, keep })
    }
}

impl Drop for OutDir {
    fn drop(&mut self) {
        if !self.keep {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

/// Build the shipped binary from the checkout this process runs in, into
/// the target directory this process was itself built into, and return
/// its path. A fresh build is a no-op; a stale one is never measured.
fn build_sut(root: &Path) -> Result<PathBuf, String> {
    if !root.join("Cargo.toml").is_file() || !root.join("src/bin/loopcomm.rs").is_file() {
        return Err(format!(
            "{} is not the loopcomm repository root: run lcbench from there, \
             it builds and measures target/release/loopcomm",
            root.display()
        ));
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate lcbench: {e}"))?;
    // <target>/release/lcbench → <target>
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("lcbench is not inside a cargo target directory")?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "loopcomm",
        ])
        .arg("--target-dir")
        .arg(target)
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    let bin = target.join("release/loopcomm");
    if !status.success() || !bin.is_file() {
        return Err(format!(
            "`cargo build --release --bin loopcomm` did not produce {}",
            bin.display()
        ));
    }
    Ok(bin)
}

/// Everything measured for one workload.
struct Outcome {
    workload: &'static Workload,
    /// Events one trial analyses.
    events: u64,
    fingerprint: u64,
    /// One summary per row of [`END_TO_END`], in its order.
    end_to_end: [Summary; END_TO_END.len()],
    per_layer: Option<Values>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }
}

fn run_workload(
    w: &'static Workload,
    ctx: &Ctx,
    half: Half,
    seconds: f64,
) -> std::io::Result<Outcome> {
    // Set-up: input generation + reference computation, repeated when
    // `setup_s` is wanted; then one untimed warm-up trial, so the input is
    // in page cache and what is measured is the program, not the disk.
    let repeats = if half == Half::Traced || ctx.smoke {
        1
    } else {
        SETUP_REPEATS
    };
    let mut setups = Vec::with_capacity(repeats);
    let mut prepared: Option<Prepared> = None;
    for _ in 0..repeats {
        // Free the previous input first: serve_ring's is half a gigabyte.
        drop(prepared.take());
        let p = prepare(w, ctx)?;
        setups.push(p.times.total_s);
        prepared = Some(p);
    }
    let p = prepared.expect("at least one set-up");
    let mut failures = Vec::new();
    let t = Instant::now();
    let warm = trial(w, ctx, &p)?;
    let warmup_s = t.elapsed().as_secs_f64();
    failures.extend(warm.failure.map(|f| format!("warm-up: {f}")));

    // Timed trials, each a fresh SUT process, until the clock runs out.
    // The traced half only needs an end-to-end figure to compare with.
    let mut trials: Vec<Trial> = Vec::new();
    let start = Instant::now();
    while trials.len() < MIN_TRIALS
        || (half != Half::Traced && start.elapsed().as_secs_f64() < seconds)
    {
        let t = trial(w, ctx, &p)?;
        failures.extend(
            t.failure
                .iter()
                .map(|f| format!("trial {}: {f}", trials.len())),
        );
        trials.push(t);
    }

    let per = |f: &dyn Fn(&Trial) -> f64| summarize(&trials.iter().map(f).collect::<Vec<_>>());
    let throughput = per(&|t| t.attempted as f64 / t.wall_s / 1e6);
    // In END_TO_END's order: throughput, CPU, RSS, set-up.
    let end_to_end = [
        throughput,
        per(&|t| t.cpu_s * 1e9 / t.attempted as f64),
        per(&|t| t.peak_rss_mb),
        // Each repetition's generation + reference time, plus the one
        // warm-up trial every run pays before its first timed trial.
        summarize(&setups.iter().map(|s| s + warmup_s).collect::<Vec<_>>()),
    ];

    let per_layer = if half == Half::EndToEnd {
        None
    } else {
        let run = layers::traced(w, ctx, &p, 1e3 / throughput.median)?;
        failures.extend(run.failure.map(|f| format!("traced run: {f}")));
        std::fs::write(
            ctx.out.join(format!("trace-{}.json", w.name)),
            run.tracer.to_json().emit(),
        )?;
        Some(run.values)
    };

    Ok(Outcome {
        workload: w,
        events: p.events,
        fingerprint: p.fingerprint,
        end_to_end,
        per_layer,
        attempted: trials.iter().map(|t| t.attempted).sum(),
        failed: trials.iter().map(|t| t.failed).sum(),
        failures,
    })
}

fn print_outcome(o: &Outcome, half: Half) {
    let name = o.workload.name;
    println!(
        "== {name}: {} events/trial, input {} fingerprint {:#018x}",
        o.events,
        o.workload.pattern.map_or("kernels", |p| p.name()),
        o.fingerprint
    );
    if half != Half::Traced {
        for (m, s) in END_TO_END.iter().zip(&o.end_to_end) {
            println!(
                "{name:<12} {:<38} {:>14.4} {:<7} (min {:.4}, max {:.4}, n {})",
                m.name, s.median, m.unit, s.min, s.max, s.n
            );
        }
        println!(
            "{name:<12} {:<38} {:>14.4} ratio",
            "failed_share",
            o.failed as f64 / o.attempted as f64
        );
    }
    if let Some(values) = &o.per_layer {
        for m in &LAYERS {
            // Layers the route does not run are not printed; the summary
            // line and the result file carry them as 0.
            if let Some(v) = values.get(m.name) {
                println!("{name:<12} {:<38} {v:>14.4} {}", m.name, m.unit);
            }
        }
    }
    for f in &o.failures {
        println!("{name:<12} FAILED: {f}");
    }
}

fn outcome_json(o: &Outcome) -> Json {
    let mut pairs = vec![
        ("why", Json::Str(o.workload.why.into())),
        ("events", Json::Num(o.events as f64)),
        (
            "input",
            Json::Str(o.workload.pattern.map_or("kernels", |p| p.name()).into()),
        ),
        // A string: 64 bits do not fit a JSON number.
        ("fingerprint", Json::Str(format!("{:#018x}", o.fingerprint))),
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        (
            "failed_share",
            Json::Num(o.failed as f64 / o.attempted as f64),
        ),
        (
            "failures",
            Json::Arr(o.failures.iter().map(|f| Json::Str(f.clone())).collect()),
        ),
        (
            "end_to_end",
            Json::obj(
                END_TO_END
                    .iter()
                    .zip(&o.end_to_end)
                    .map(|(m, s)| (m.name, s.to_json(m.unit, better(m.higher_is_better)))),
            ),
        ),
    ];
    if let Some(values) = &o.per_layer {
        pairs.push(("per_layer", layer_json(values)));
    }
    Json::obj(pairs)
}

/// Every per-layer metric, in table order; a layer the workload's route
/// does not run reads 0.
fn layer_json(values: &Values) -> Json {
    Json::obj(LAYERS.iter().map(|m| {
        let entry = Json::obj([
            ("value", Json::Num(layer_value(values, m.name))),
            ("unit", Json::Str(m.unit.into())),
            ("better", Json::Str(better(m.higher_is_better).into())),
        ]);
        (m.name, entry)
    }))
}

fn layer_value(values: &Values, name: &str) -> f64 {
    values.get(name).copied().unwrap_or(0.0)
}

fn value_json(value: f64, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.into())),
    ])
}

fn better(higher_is_better: bool) -> &'static str {
    if higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// The one-line summary a driver reads off the end of stdout.
fn summary_line(o: &Outcome, half: Half) -> String {
    let metrics = match (&o.per_layer, half) {
        (Some(values), Half::Traced) => Json::obj(
            LAYERS
                .iter()
                .map(|m| (m.name, value_json(layer_value(values, m.name), m.unit))),
        ),
        _ => Json::obj(
            END_TO_END
                .iter()
                .zip(&o.end_to_end)
                .map(|(m, s)| (m.name, value_json(s.median, m.unit))),
        ),
    };
    Json::obj([
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        ("metrics", metrics),
    ])
    .emit()
}

/// First line of `cmd args…`'s stdout, or "unknown".
fn tool_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn result_file(args: &Args, root: &Path, outcomes: &[Outcome]) -> Json {
    Json::obj([
        ("benchmark", Json::Str("lcbench".into())),
        // This benchmark claims no gain; it defines what later claims
        // are measured with.
        ("claim", Json::Null),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
        (
            "host_cores",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "commit",
            Json::Str(if root.join(".git").exists() {
                tool_line("git", &["rev-parse", "HEAD"])
            } else {
                "unknown".into()
            }),
        ),
        ("rustc", Json::Str(tool_line("rustc", &["--version"]))),
        // Both the binary and the in-process layers are built with the
        // root package's default features.
        ("features", Json::Str("default".into())),
        (
            "workloads",
            Json::obj(outcomes.iter().map(|o| (o.workload.name, outcome_json(o)))),
        ),
    ])
}

fn run(args: &Args) -> Result<bool, String> {
    if cfg!(debug_assertions) {
        return Err("lcbench was built without optimisation; build it with --release".into());
    }
    // First, while this process is still small: see `sut`.
    let launcher = Launcher::start().map_err(|e| format!("cannot start the launcher: {e}"))?;
    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    let bin = build_sut(&root)?;
    let out = OutDir::create(root.join("benchmark/out"), args.keep)
        .map_err(|e| format!("cannot create benchmark/out: {e}"))?;
    let ctx = Ctx {
        bin,
        launcher: RefCell::new(launcher),
        out: out.path.clone(),
        seed: args.seed,
        smoke: args.smoke,
    };

    let mut outcomes = Vec::new();
    for w in &args.workloads {
        let o = run_workload(w, &ctx, args.half, args.seconds)
            .map_err(|e| format!("{}: {e}", w.name))?;
        print_outcome(&o, args.half);
        outcomes.push(o);
    }
    if let Some(path) = &args.out {
        std::fs::write(path, result_file(args, &root, &outcomes).emit_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    if args.half != Half::Both {
        println!("{}", summary_line(&outcomes[0], args.half));
    }
    Ok(outcomes.iter().all(Outcome::correct))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--launcher"] {
        return sut::launcher_main();
    }
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv.as_slice() {
            [_, a, b] => compare::main(Path::new(a), Path::new(b)),
            _ => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("lcbench: an output check failed (see FAILED lines)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("lcbench: {e}");
            ExitCode::FAILURE
        }
    }
}
