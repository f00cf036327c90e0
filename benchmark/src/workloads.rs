//! The five workloads: what each feeds the `loopcomm` binary, how one
//! trial is run and timed, and how its output is checked.
//!
//! Every trial is a fresh `loopcomm` process. Outputs are checked against
//! references the harness computes in-process with `IncrementalAnalyzer`
//! (jobs 1) and `CoherenceBackend` — the repository's one invariant, the
//! byte-identical canonical report, checked across process and route
//! boundaries.

use std::cell::RefCell;
use std::io::{self, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use loopcomm::lc_cachesim::{canonical_coherence_report, CoherenceBackend, CoherenceConfig};
use loopcomm::lc_profiler::{
    canonical_report, AccumConfig, AsymmetricDetector, AsymmetricProfiler, DetectorKind,
    IncrementalAnalyzer, ProfilerConfig,
};
use loopcomm::lc_sigmem::SignatureConfig;
use loopcomm::lc_trace::{
    encode_hello, AccessSink, CountingSink, SpoolV3Writer, SpoolWriter, StampedEvent, TraceCtx,
};
use loopcomm::lc_workloads::{by_name, InputSize, RunConfig};

use crate::gen::{EventGen, Pattern, FRAME_EVENTS, THREADS};
use crate::json::Json;
use crate::sut::{http_get, wait_for_serve_addrs, Launcher, ServeAddrs, Sut};

/// `--slots` default of the CLI; the references must use it too.
pub const CLI_SLOTS: usize = 1 << 20;

/// Tenant the serve workload streams as.
pub const TENANT: &str = "t0";

/// The generator writes the wire stream in chunks of this size.
const SEND_CHUNK: usize = 1 << 20;

/// Kernels of `live_splash`: the statically partitioned SPLASH-style
/// kernels, whose access counts do not depend on thread interleaving.
pub const KERNELS: [&str; 5] = ["radix", "lu_cb", "ocean_cp", "water_nsq", "fft"];

/// Threads of `live_splash` (this host has two cores).
pub const LIVE_THREADS: usize = 2;

/// How a workload drives the binary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// `analyze <spool> --mmap`, optionally with `--coherence`.
    Mmap { coherence: bool },
    /// `analyze <spool>`: the CLI's default in-RAM route.
    Ram,
    /// `serve`, fed over TCP, read back over HTTP.
    Serve,
    /// `profile <kernel>` on live threads.
    Live,
}

/// One benchmark workload. Names are fixed: later issues cite them.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One sentence: why the workload exists. Mirrored in BENCHMARK.json.
    pub why: &'static str,
    pub route: Route,
    pub pattern: Option<Pattern>,
    /// Events per trial at full size (0 for `live_splash`: the kernels
    /// decide). Sized so one trial takes a little over 2 s on the 2-core
    /// host the benchmark was defined on.
    pub events: u64,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "ooc_ring",
        why: "out-of-core mmap replay with cheap detection: v3 decode/CRC owns the time, detector ~30 %",
        route: Route::Mmap { coherence: false },
        pattern: Some(Pattern::Ring),
        events: 15_000_000,
    },
    Workload {
        name: "ram_uniform",
        why: "the CLI's default in-RAM analyze on cache-missy input: load, stats pre-pass, coalescing, detection-bound",
        route: Route::Ram,
        pattern: Some(Pattern::Uniform),
        events: 4_000_000,
    },
    Workload {
        name: "coh_uniform",
        why: "mmap replay with --coherence: the MESI backend owns ~65 % of the route, decode ~5 %",
        route: Route::Mmap { coherence: true },
        pattern: Some(Pattern::Uniform),
        events: 1_100_000,
    },
    Workload {
        name: "serve_ring",
        why: "ooc_ring's events through socket, frame decoder, bounded queue and drain thread: the serve layer",
        route: Route::Serve,
        pattern: Some(Pattern::Ring),
        events: 15_000_000,
    },
    Workload {
        name: "live_splash",
        why: "five kernels profiled live on 2 threads: concurrent on_access through shards and atomics, no decode",
        route: Route::Live,
        pattern: None,
        events: 0,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Where the benchmark runs and at what size.
pub struct Ctx {
    /// The shipped `loopcomm` binary.
    pub bin: PathBuf,
    /// The small process that spawns it (see [`crate::sut`]).
    pub launcher: RefCell<Launcher>,
    /// `benchmark/out/`: inputs, SUT outputs, span dumps.
    pub out: PathBuf,
    pub seed: u64,
    /// 1/20 size: every path exercised, no number worth quoting.
    pub smoke: bool,
}

impl Ctx {
    fn events(&self, w: &Workload) -> u64 {
        if self.smoke {
            w.events / 20
        } else {
            w.events
        }
    }

    fn live_size(&self) -> InputSize {
        if self.smoke {
            InputSize::SimDev
        } else {
            InputSize::SimLarge
        }
    }

    /// Passes over the kernel list per `live_splash` trial.
    fn live_passes(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    fn path(&self, file: &str) -> PathBuf {
        self.out.join(file)
    }

    /// Start `loopcomm args…`; its output goes to `out/sut.stdout` and
    /// `out/sut.stderr`.
    fn spawn(&self, args: &[&str]) -> io::Result<Sut<'_>> {
        Sut::spawn(
            &self.launcher,
            &self.bin,
            args,
            &self.path("sut.stdout"),
            &self.path("sut.stderr"),
        )
    }
}

/// The analyzer `analyze --mmap` and `serve` build from CLI defaults.
pub fn cli_analyzer(jobs: usize) -> IncrementalAnalyzer {
    IncrementalAnalyzer::new(
        DetectorKind::Asymmetric,
        SignatureConfig::paper_default(CLI_SLOTS, THREADS as usize),
        ProfilerConfig::nested(THREADS as usize),
        AccumConfig::default(),
        jobs,
    )
}

/// The coherence backend `analyze --coherence` builds from CLI defaults.
pub fn cli_coherence() -> CoherenceBackend {
    CoherenceBackend::new(CoherenceConfig::default(), THREADS as usize)
}

/// The profiler `profile <kernel> --threads 2` builds from CLI defaults.
pub fn cli_live_profiler() -> AsymmetricProfiler {
    AsymmetricProfiler::from_detector_with(
        AsymmetricDetector::asymmetric(SignatureConfig::paper_default(CLI_SLOTS, LIVE_THREADS)),
        ProfilerConfig::nested(LIVE_THREADS),
        AccumConfig::default(),
    )
}

/// Run one kernel in-process at `live_splash`'s settings.
pub fn run_kernel(name: &str, sink: Arc<dyn AccessSink>, ctx: &Ctx) {
    let kernel = by_name(name).expect("KERNELS names registered workloads");
    let tctx = TraceCtx::new(sink, LIVE_THREADS);
    kernel.run(
        &tctx,
        &RunConfig::new(LIVE_THREADS, ctx.live_size(), ctx.seed),
    );
}

/// What a workload's set-up produced.
pub enum Input {
    /// A v3 spool plus the reports the binary must reproduce.
    Spool {
        path: PathBuf,
        bytes: u64,
        report: String,
        coherence: Option<String>,
    },
    /// Hello + v2 wire frames, ready to send, plus the expected report.
    Wire { bytes: Vec<u8>, report: String },
    /// Accesses each kernel of [`KERNELS`] makes (constant per size/seed).
    Kernels { accesses: Vec<u64> },
}

/// How long one set-up took.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Inside `SpoolV3Writer`/`SpoolWriter` (`append_frame` + `finish`).
    pub encode_s: f64,
    /// The whole set-up, wall clock.
    pub total_s: f64,
}

pub struct Prepared {
    /// Events one trial analyses.
    pub events: u64,
    /// FNV-1a fingerprint of the generated stream (0 for `live_splash`).
    pub fingerprint: u64,
    pub input: Input,
    pub times: SetupTimes,
}

/// Generate a workload's input and compute its references.
pub fn prepare(w: &Workload, ctx: &Ctx) -> io::Result<Prepared> {
    let start = Instant::now();
    let mut times = SetupTimes::default();
    let Some(pattern) = w.pattern else {
        // live_splash: the kernels generate the accesses; set-up measures
        // how many each makes, which every trial must then report.
        let accesses = KERNELS
            .iter()
            .map(|k| {
                let sink = Arc::new(CountingSink::new());
                run_kernel(k, sink.clone(), ctx);
                sink.total()
            })
            .collect::<Vec<_>>();
        times.total_s = start.elapsed().as_secs_f64();
        return Ok(Prepared {
            events: accesses.iter().sum::<u64>() * ctx.live_passes() as u64,
            fingerprint: 0,
            input: Input::Kernels { accesses },
            times,
        });
    };

    let events = ctx.events(w);
    let mut gen = EventGen::new(pattern, ctx.seed, events);
    let mut analyzer = cli_analyzer(1);
    let mut coherence = matches!(w.route, Route::Mmap { coherence: true }).then(cli_coherence);
    let mut frame = Vec::with_capacity(FRAME_EVENTS);
    // One pass: each generated frame goes to the encoder and to the
    // reference analysis, so no set-up holds the whole stream in memory.
    let mut pump = |append: &mut dyn FnMut(&[StampedEvent]) -> io::Result<()>,
                    times: &mut SetupTimes|
     -> io::Result<()> {
        while gen.next_frame(&mut frame) {
            let t = Instant::now();
            append(&frame)?;
            times.encode_s += t.elapsed().as_secs_f64();
            analyzer.on_frame(&frame);
            if let Some(c) = &mut coherence {
                c.on_block(&frame);
            }
        }
        Ok(())
    };

    let input = if w.route == Route::Serve {
        let mut bytes = encode_hello(TENANT);
        let frames = events.div_ceil(FRAME_EVENTS as u64) as usize;
        bytes.reserve(8 + frames * 12 + events as usize * 41);
        let mut writer = SpoolWriter::new(&mut bytes, FRAME_EVENTS)?;
        pump(&mut |f| writer.append_frame(f), &mut times)?;
        let t = Instant::now();
        writer.finish()?;
        times.encode_s += t.elapsed().as_secs_f64();
        Input::Wire {
            bytes,
            report: canonical_report(&analyzer.report(), analyzer.events()),
        }
    } else {
        let path = ctx.path(&format!("{}.lcv3", w.name));
        let mut writer = SpoolV3Writer::create(&path)?;
        pump(&mut |f| writer.append_frame(f), &mut times)?;
        let t = Instant::now();
        let stats = writer.finish()?;
        times.encode_s += t.elapsed().as_secs_f64();
        Input::Spool {
            path,
            bytes: stats.bytes,
            report: canonical_report(&analyzer.report(), analyzer.events()),
            coherence: coherence.map(|c| canonical_coherence_report(&c.report())),
        }
    };
    times.total_s = start.elapsed().as_secs_f64();
    Ok(Prepared {
        events,
        fingerprint: gen.fingerprint(),
        input,
        times,
    })
}

/// One timed trial of the SUT.
#[derive(Clone, Debug)]
pub struct Trial {
    /// SUT spawn → canonical report in hand (for `serve_ring`: first byte
    /// sent → HTTP body received; for `live_splash`: Σ child wall).
    pub wall_s: f64,
    /// `ru_utime + ru_stime` over the trial's SUT processes.
    pub cpu_s: f64,
    /// Largest `ru_maxrss` over the trial's SUT processes.
    pub peak_rss_mb: f64,
    /// Events the trial asked the SUT to analyse.
    pub attempted: u64,
    /// Events not analysed, or all of them when an output check failed.
    pub failed: u64,
    /// Why the trial failed its check, if it did.
    pub failure: Option<String>,
}

impl Trial {
    fn checked(
        wall_s: f64,
        cpu_s: f64,
        peak_rss_mb: f64,
        attempted: u64,
        check: Result<(), String>,
    ) -> Trial {
        Trial {
            wall_s,
            cpu_s,
            peak_rss_mb,
            attempted,
            failed: if check.is_ok() { 0 } else { attempted },
            failure: check.err(),
        }
    }
}

/// Run one trial of `w` against its prepared input.
pub fn trial(w: &Workload, ctx: &Ctx, p: &Prepared) -> io::Result<Trial> {
    match (&p.input, w.route) {
        (
            Input::Spool {
                path,
                report,
                coherence,
                ..
            },
            Route::Mmap { .. } | Route::Ram,
        ) => {
            let mmap = w.route != Route::Ram;
            analyze_trial(ctx, p.events, path, mmap, report, coherence.as_deref())
        }
        (Input::Wire { bytes, report }, Route::Serve) => serve_trial(ctx, p.events, bytes, report),
        (Input::Kernels { accesses }, Route::Live) => live_trial(ctx, accesses),
        _ => unreachable!("prepare() builds the input its route takes"),
    }
}

/// `analyze <spool> [--mmap] [--coherence …]`; the coherence backend runs
/// exactly when there is a coherence reference to compare with.
fn analyze_trial(
    ctx: &Ctx,
    events: u64,
    spool: &Path,
    mmap: bool,
    want_report: &str,
    want_coherence: Option<&str>,
) -> io::Result<Trial> {
    let report_out = ctx.path("report.txt");
    let coherence_out = ctx.path("coherence.txt");
    // A stale file from the previous trial must never pass the check.
    let _ = std::fs::remove_file(&report_out);
    let _ = std::fs::remove_file(&coherence_out);
    let spool = spool.to_str().expect("out dir is UTF-8");
    let report_arg = report_out.to_str().expect("out dir is UTF-8");
    let coherence_arg = coherence_out.to_str().expect("out dir is UTF-8");
    let mut args = vec!["analyze", spool];
    if mmap {
        args.push("--mmap");
    }
    if want_coherence.is_some() {
        args.extend(["--coherence", "--coherence-out", coherence_arg]);
    }
    args.extend(["--report-out", report_arg]);

    let start = Instant::now();
    let usage = ctx.spawn(&args)?.wait()?;
    let got_report = std::fs::read_to_string(&report_out);
    let wall_s = start.elapsed().as_secs_f64();

    let check = (|| {
        if !usage.success {
            return Err(format!(
                "`loopcomm {}` failed: {}",
                args.join(" "),
                read_tail(&ctx.path("sut.stderr"))
            ));
        }
        if got_report.as_deref().ok() != Some(want_report) {
            return Err("--report-out differs from the in-process reference".into());
        }
        if let Some(want) = want_coherence {
            let got = std::fs::read_to_string(&coherence_out);
            if got.as_deref().ok() != Some(want) {
                return Err("--coherence-out differs from the in-process reference".into());
            }
        }
        Ok(())
    })();
    Ok(Trial::checked(
        wall_s,
        usage.cpu_s,
        usage.peak_rss_mb,
        events,
        check,
    ))
}

/// What the load generator saw while streaming to a server.
pub struct ClientRun {
    /// First byte sent → last byte accepted by the kernel.
    pub send_s: f64,
    /// First byte sent → report body received.
    pub total_s: f64,
    /// Time inside `write_all`.
    pub in_write_s: f64,
    pub report: String,
}

/// The closed-loop client: one connection, blocking writes, then one
/// `GET …/report?wait=1`. Shared by the end-to-end trial (child server)
/// and the traced run (in-process server).
pub fn stream_and_report(addrs: &ServeAddrs, wire: &[u8]) -> io::Result<ClientRun> {
    let mut sock = TcpStream::connect(&addrs.ingest)?;
    let start = Instant::now();
    let mut in_write = Duration::ZERO;
    for chunk in wire.chunks(SEND_CHUNK) {
        let t = Instant::now();
        sock.write_all(chunk)?;
        in_write += t.elapsed();
    }
    // Closing is what lets `?wait=1` see the tenant quiesce.
    drop(sock);
    let send_s = start.elapsed().as_secs_f64();
    let report = http_get(&addrs.http, &format!("/tenants/{TENANT}/report?wait=1"))?;
    Ok(ClientRun {
        send_s,
        total_s: start.elapsed().as_secs_f64(),
        in_write_s: in_write.as_secs_f64(),
        report,
    })
}

/// The ingest ledger must balance: everything received was analysed.
pub fn check_serve_stats(stats_json: &str, events: u64) -> Result<(), String> {
    let stats = Json::parse(stats_json)?;
    let field = |name: &str| {
        stats
            .get(name)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("/stats has no `{name}`"))
    };
    for (name, want) in [
        ("events_received", events),
        ("events_analyzed", events),
        ("events_lost", 0),
        ("events_spilled", 0),
    ] {
        let got = field(name)?;
        if got != want as f64 {
            return Err(format!("/stats {name} = {got}, expected {want}"));
        }
    }
    Ok(())
}

fn serve_trial(ctx: &Ctx, events: u64, wire: &[u8], want_report: &str) -> io::Result<Trial> {
    let threads = THREADS.to_string();
    // Port 0 everywhere: the server picks free ports and prints them.
    let args = [
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--http",
        "127.0.0.1:0",
        "--threads",
        &threads,
    ];
    let sut = ctx.spawn(&args)?;
    let addrs = wait_for_serve_addrs(&ctx.path("sut.stdout"))?;

    let run = stream_and_report(&addrs, wire)?;
    let stats = http_get(&addrs.http, &format!("/tenants/{TENANT}/stats"))?;
    let usage = sut.kill()?;

    let check = if run.report != want_report {
        Err("served report differs from the in-process reference".into())
    } else {
        check_serve_stats(&stats, events)
    };
    Ok(Trial::checked(
        run.total_s,
        usage.cpu_s,
        usage.peak_rss_mb,
        events,
        check,
    ))
}

/// `accesses            : N` from `loopcomm profile`'s stdout.
pub fn parse_accesses(stdout: &str) -> Option<u64> {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("accesses"))
        .and_then(|rest| rest.trim_start().strip_prefix(':'))
        .and_then(|n| n.trim().parse().ok())
}

fn live_trial(ctx: &Ctx, accesses: &[u64]) -> io::Result<Trial> {
    let threads = LIVE_THREADS.to_string();
    let seed = ctx.seed.to_string();
    let size = ctx.live_size().name();
    let (stdout, stderr) = (ctx.path("sut.stdout"), ctx.path("sut.stderr"));
    let (mut wall_s, mut cpu_s, mut peak_rss_mb) = (0.0, 0.0, 0.0f64);
    let (mut attempted, mut failed, mut failure) = (0, 0, None);
    for _ in 0..ctx.live_passes() {
        for (kernel, &want) in KERNELS.iter().zip(accesses) {
            let args = [
                "profile",
                kernel,
                "--threads",
                &threads,
                "--size",
                size,
                "--seed",
                &seed,
            ];
            let start = Instant::now();
            let usage = ctx.spawn(&args)?.wait()?;
            wall_s += start.elapsed().as_secs_f64();
            cpu_s += usage.cpu_s;
            peak_rss_mb = peak_rss_mb.max(usage.peak_rss_mb);
            attempted += want;
            let got = parse_accesses(&std::fs::read_to_string(&stdout)?);
            let check = if !usage.success {
                Err(format!("`profile {kernel}` failed: {}", read_tail(&stderr)))
            } else if std::fs::read_to_string(&stderr)?.contains("degraded run") {
                Err(format!("`profile {kernel}` reported a degraded run"))
            } else if got != Some(want) {
                Err(format!(
                    "`profile {kernel}` saw {got:?} accesses, expected {want}"
                ))
            } else {
                Ok(())
            };
            if let Err(e) = check {
                failed += want;
                failure.get_or_insert(e);
            }
        }
    }
    Ok(Trial {
        wall_s,
        cpu_s,
        peak_rss_mb,
        attempted,
        failed,
        failure,
    })
}

/// Last line of a child's stderr, for failure messages.
fn read_tail(path: &Path) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.lines().last().map(str::to_string))
        .unwrap_or_else(|| "(no stderr)".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_the_fixed_five() {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            [
                "ooc_ring",
                "ram_uniform",
                "coh_uniform",
                "serve_ring",
                "live_splash"
            ]
        );
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert_eq!(workload(w.name).map(|x| x.name), Some(w.name));
        }
        // serve_ring replays ooc_ring's events: same pattern, same count.
        assert_eq!(WORKLOADS[0].events, WORKLOADS[3].events);
        assert_eq!(WORKLOADS[0].pattern, WORKLOADS[3].pattern);
    }

    #[test]
    fn profile_stdout_yields_the_access_count() {
        let out = "workload            : radix\nthreads             : 2\n\
                   accesses            : 1843248\nRAW dependencies    : 101034\n";
        assert_eq!(parse_accesses(out), Some(1_843_248));
        assert_eq!(parse_accesses("accesses : x\n"), None);
        assert_eq!(parse_accesses(""), None);
    }

    #[test]
    fn serve_ledger_must_balance() {
        let ok = "{\"tenant\":\"t0\",\"events_received\":8192,\"events_analyzed\":8192,\
                  \"events_lost\":0,\"events_spilled\":0}\n";
        assert_eq!(check_serve_stats(ok, 8192), Ok(()));
        assert!(check_serve_stats(ok, 8193).is_err());
        let lossy = ok.replace("\"events_lost\":0", "\"events_lost\":4096");
        assert!(check_serve_stats(&lossy, 8192)
            .unwrap_err()
            .contains("events_lost"));
        assert!(check_serve_stats("{}", 1).is_err());
        assert!(check_serve_stats("not json", 1).is_err());
    }
}
