//! `loopcomm` — command-line front end to the profiler.
//!
//! Run it with no arguments for the usage text: every command, and every
//! option with the commands that read it. Each option is declared once, in
//! the `FLAGS` table below, with its value's range, its help and its
//! readers. A value that does not parse or lies out of range, and an
//! option the command does not read, is a one-line usage error (exit 2)
//! raised before any input is opened; a run that fails on its input,
//! output or host exits 1.

use std::sync::Arc;

use lc_cachesim::CoherenceConfig;
use lc_profiler::classify::{
    extract_extended, synthetic_dataset, synthetic_ext_dataset, CoherenceFeatures,
    ExtNearestCentroid, NearestCentroid,
};
use lc_profiler::{greedy_mapping, DetectorKind, MachineTopology, NestedReport, ThreadMapping};
use loopcomm::pipeline::PipelineError;
use loopcomm::prelude::*;

/// Upper bound for `--slots`: 2^30 slots is two orders of magnitude past
/// the paper's largest signature (10^7 slots).
const MAX_SLOTS: usize = 1 << 30;

/// Upper bound for `--loop-capacity`: the registry rounds it up to a power
/// of two and allocates that many cells up front.
const MAX_LOOP_CAPACITY: usize = 1 << 24;

/// Upper bound for `--queue-frames`: a tenant may hold that many frame
/// buffers at once.
const MAX_QUEUE_FRAMES: usize = 1 << 16;

/// Upper bound for `--max-conns`: each connection holds a thread.
const MAX_CONNS: usize = 4096;

/// Upper bound for `--max-tenants`: each tenant holds a signature table
/// and a drain thread.
const MAX_TENANTS: usize = 1024;

/// The commands that run a `<workload>`: the reader `workload` in `FLAGS`.
const WORKLOAD_CMDS: [&str; 11] = [
    "profile", "nested", "load", "classify", "map", "phases", "report", "record", "simulate",
    "hotsites", "deps",
];

/// The commands that take no `<workload>`.
const OTHER_CMDS: [&str; 6] = ["list", "synth", "analyze", "serve", "stream", "simtest"];

/// The readers of the cache-geometry flags.
const GEOMETRY: &str = "analyze --coherence, serve --coherence, classify --coherence, simulate";

/// How a flag's value is read and checked.
#[derive(Clone, Copy)]
enum Kind {
    /// No value.
    Switch,
    /// A path, an address or a name.
    Text,
    /// Text that may be given more than once; every value is kept.
    Many,
    /// An integer in `lo..=hi`, or in `lo..` when `hi` is `u64::MAX`.
    Int(u64, u64),
    /// A number in `lo..=hi`.
    Real(f64, f64),
    /// A cache-geometry integer; `CoherenceConfig::validate` checks the
    /// geometry as a whole once every flag is read.
    Geometry,
    /// `simdev`, `simsmall` or `simlarge`.
    Size,
    /// An integer, or `none`.
    IntOrNone,
}
use Kind::*;

/// A parsed value: a switch reads `Int(1)`, and `none` reads `Text`.
enum Val {
    Int(u64),
    Real(f64),
    Text(String),
    Size(InputSize),
}

/// One option. `spec` is its name and value as the usage text shows them;
/// `readers` lists the commands that read it, each followed by the flag
/// it needs there, if any (`analyze --coherence`), with `workload` for
/// every command in `WORKLOAD_CMDS`. An empty `help` keeps it out of the
/// usage text.
struct Flag {
    id: F,
    spec: &'static str,
    kind: Kind,
    readers: &'static str,
    help: &'static str,
}

macro_rules! flags {
    ($($id:ident $spec:literal $kind:expr, $readers:expr, $help:literal;)*) => {
        /// One variant per row of `FLAGS`.
        #[derive(Clone, Copy, PartialEq)]
        enum F { $($id),* }

        /// Every option, in the order the usage text lists them.
        const FLAGS: &[Flag] = &[$(Flag {
            id: F::$id, spec: $spec, kind: $kind, readers: $readers, help: $help,
        }),*];
    };
}

flags! {
    Threads "--threads N" Int(1, MAX_ANALYZE_THREADS), "workload, synth, serve",
        "worker threads, 1..=1024 (default 8)";
    Size "--size S" Size, "workload", "simdev | simsmall | simlarge (default simsmall)";
    Slots "--slots K" Int(1, MAX_SLOTS as u64),
        "profile, nested, load, classify, map, phases, report, analyze, serve",
        "signature slots (default 1048576)";
    Window "--window W" Int(1, u64::MAX), "phases, report",
        "phase window in dependencies (default 2000)";
    Seed "--seed S" Int(0, u64::MAX), "workload, synth, simtest", "workload RNG seed (default 42)";
    LoopCapacity "--loop-capacity K" Int(1, MAX_LOOP_CAPACITY as u64),
        "profile, nested, load, classify, map, phases, report, analyze, serve",
        "loop-matrix registry capacity (default 1024)";
    Metrics "--metrics PATH" Text, "profile, analyze",
        "write run metrics;\n\
         `.json` gets JSON, anything else Prometheus text";
    Salvage "--salvage" Switch, "analyze, stream",
        "recover the longest valid prefix of\n\
         a truncated or corrupted trace instead of failing";
    Jobs "--jobs N" Int(1, lc_profiler::MAX_JOBS as u64), "analyze, serve",
        "slot-sharded analyzer workers\n\
         (default 1; results identical; --coherence\n\
         shards by cache set over the host's cores\n\
         whatever --jobs says)";
    Perfect "--perfect" Switch, "analyze, serve",
        "exact perfect-signature\n\
         baseline detector instead of the asymmetric\n\
         signatures";
    Coherence "--coherence" Switch, "analyze, serve, classify",
        "also run the MESI\n\
         coherence backend: per-loop invalidation,\n\
         cache-to-cache transfer, and bus-traffic\n\
         matrices plus false-sharing detection";
    LineSize "--line-size N" Geometry, GEOMETRY,
        "cache-line bytes, a power\n\
         of two in 16..=512 (default 64)";
    CacheKib "--cache-kib N" Geometry, GEOMETRY,
        "per-core cache KiB, a\n\
         power of two in 1..=65536 (default 16)";
    Assoc "--assoc N" Geometry, GEOMETRY,
        "set associativity, a\n\
         power of two in 1..=64 (default 4)";
    CoherenceOut "--coherence-out P" Text, "analyze --coherence",
        "write the canonical\n\
         coherence report — byte-identical for any\n\
         --jobs value and core count";
    ReportOut "--report-out P" Text, "analyze",
        "also write the canonical plain-text\n\
         report — byte-identical to the server's\n\
         /tenants/<t>/report on the same events";
    Checkpoint "--checkpoint DIR" Text, "analyze",
        "write a crash-resumable snapshot\n\
         (signatures, matrices, replay cursor) to DIR\n\
         every --every events";
    Every "--every N" Int(1, u64::MAX), "analyze --checkpoint",
        "events between\n\
         checkpoints, at least 1 (default 1000000)";
    Resume "--resume DIR" Text, "analyze",
        "resume from DIR's checkpoint; the\n\
         final report is byte-identical to an\n\
         uninterrupted run";
    Mmap "--mmap" Switch, "analyze",
        "accepted, no effect: every analyze\n\
         streams, and a v3 spool is always read one\n\
         segment at a time (bounded RSS even for\n\
         spools larger than RAM)";
    Events "--events N" Int(0, u64::MAX), "synth", "events to generate (default 1000000)";
    AddrReuse "--addr-reuse P" Real(0.0, 1.0), "synth",
        "probability an event reuses a hot\n\
         address (64-entry hot set; default 0.0)";
    WorkingSet "--working-set N" Int(1, u64::MAX), "synth",
        "distinct 8-byte addresses in the\n\
         uniform working set (default 65536)";
    DurableDir "--durable-dir D" Text, "serve",
        "spill + checkpoint tenants under D;\n\
         restart and eviction resume from disk";
    TenantIdleSecs "--tenant-idle-secs S" Int(0, u64::MAX), "serve --durable-dir",
        "evict tenants idle >= S seconds\n\
         through the checkpoint path (0 = never)";
    TenantMaxBytes "--tenant-max-bytes B" Int(0, u64::MAX), "serve --durable-dir",
        "evict a tenant whose analyzer\n\
         exceeds B bytes (0 = uncapped)";
    Listen "--listen ADDR" Many, "serve",
        "ingest endpoint:\n\
         `host:port` or `unix:<path>`\n\
         (default 127.0.0.1:9009)";
    Http "--http ADDR" Text, "serve",
        "HTTP endpoint for live reports,\n\
         matrices, and Prometheus /metrics";
    QueueFrames "--queue-frames N" Int(1, MAX_QUEUE_FRAMES as u64), "serve",
        "frame buffers per tenant, sent and not\n\
         yet analysed, 1..=65536 (default 64)";
    MaxConns "--max-conns N" Int(1, MAX_CONNS as u64), "serve",
        "connection limit, 1..=4096 (default 64)";
    MaxTenants "--max-tenants N" Int(1, MAX_TENANTS as u64), "serve",
        "tenant limit, 1..=1024 (default 64)";
    Connect "--connect ADDR" Text, "record, stream",
        "stream to a server instead\n\
         of writing a file";
    Tenant "--tenant NAME" Text, "record --connect, stream",
        "tenant to stream as\n\
         (default `default`)";
    FrameEvents "--frame-events N" Int(1, lc_trace::MAX_FRAME_EVENTS as u64),
        "record, stream, synth",
        "events per spool\n\
         segment or wire frame, 1..=16777216\n\
         (default 4096)";
    Explore "--explore N" Int(0, u64::MAX), "simtest",
        "N seeded random schedules instead of\n\
         bounded-exhaustive DFS (seeded by --seed)";
    MaxPreemptions "--max-preemptions N|none" IntOrNone, "simtest", "preemption bound override";
    MaxSchedules "--max-schedules N" Int(0, u64::MAX), "simtest",
        "exhaustive-exploration safety valve";
    Mutant "--mutant NAME" Many, "simtest",
        "arm a seeded mutant; the\n\
         run then must FIND a violation (exit 1)";
    TraceOut "--trace-out PATH" Text, "simtest", "append failing decision traces here";
    // A test hook, left out of the usage text: a fault-plan file armed on
    // the trace writers, the network seams and the checkpoint writer (see
    // `lc_faults`), for the fault-matrix tests and for reproducing failures.
    FaultPlan "--fault-plan PATH" Text, "record, synth, stream, analyze, serve", "";
}

/// Flags whose paths were deleted, with what each says: a one-line usage
/// error raised where the flag stands, before any value it had is read.
#[rustfmt::skip]
const REMOVED: [(&str, &str); 5] = [
    ("--spool --v3", ": `record` and `synth` always stream a v3 spool"),
    ("--batch", ": RAM-loaded input is analysed in 1024-event blocks, with results that \
                 never depended on the size"),
    ("--no-coalesce", ": `analyze` never coalesces"),
    ("--fused --no-fused", ": `analyze` always runs the fused engine"),
    ("--no-skip-filter", " in PR 24: the fused engine no longer has a skip filter"),
];

impl Flag {
    fn name(&self) -> &'static str {
        self.spec.split(' ').next().unwrap_or(self.spec)
    }

    /// Each command that reads the flag, with the flag it needs there.
    fn readers(&self) -> Vec<(&'static str, Option<&'static str>)> {
        let mut out = Vec::new();
        for r in self.readers.split(", ") {
            let (cmd, need) = r.split_once(' ').map_or((r, None), |(c, n)| (c, Some(n)));
            if cmd == "workload" {
                out.extend(WORKLOAD_CMDS.iter().map(|c| (*c, need)));
            } else {
                out.push((cmd, need));
            }
        }
        out
    }

    /// The readers as a list, "`a`, `b` and `c`" with `tick` = "`".
    fn reader_list(&self, tick: &str) -> String {
        let names: Vec<String> = (self.readers().into_iter())
            .map(|(c, need)| {
                format!(
                    "{tick}{c}{}{tick}",
                    need.map_or(String::new(), |n| format!(" {n}"))
                )
            })
            .collect();
        match names.split_last() {
            Some((last, rest)) if !rest.is_empty() => format!("{} and {last}", rest.join(", ")),
            _ => names.concat(),
        }
    }
}

impl Kind {
    /// Read `raw` as the value of `flag`. A value that does not parse or
    /// lies out of range is a usage error naming the flag, never a panic
    /// deeper in.
    fn parse(self, flag: &str, raw: &str) -> Val {
        match self {
            Switch | Text | Many => Val::Text(raw.to_string()),
            IntOrNone if raw == "none" => Val::Text(raw.to_string()),
            IntOrNone => Val::Int(number(flag, raw)),
            Int(lo, hi) => {
                let v: u64 = number(flag, raw);
                if !(lo..=hi).contains(&v) {
                    let range = match hi {
                        u64::MAX => format!("{lo}.."),
                        _ => format!("{lo}..={hi}"),
                    };
                    refuse(format_args!("{flag} must be in {range} (got {v})"));
                }
                Val::Int(v)
            }
            Real(lo, hi) => {
                let v: f64 = number(flag, raw);
                if !(lo..=hi).contains(&v) {
                    refuse(format_args!("{flag} must be in {lo:?}..={hi:?} (got {v})"));
                }
                Val::Real(v)
            }
            Geometry => Val::Int(raw.parse().unwrap_or_else(|_| {
                refuse(format_args!("{flag} expects an integer, got `{raw}`"))
            })),
            Size => Val::Size(match raw {
                "simdev" => InputSize::SimDev,
                "simsmall" => InputSize::SimSmall,
                "simlarge" => InputSize::SimLarge,
                _ => refuse(format_args!("unknown size `{raw}`")),
            }),
        }
    }
}

/// Parse a number, or refuse it naming the flag and echoing the value.
fn number<T: std::str::FromStr>(flag: &str, raw: &str) -> T {
    (raw.parse()).unwrap_or_else(|_| refuse(format_args!("invalid value `{raw}` for {flag}")))
}

/// A usage error: one `error:` line on stderr, exit 2.
fn refuse(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn usage() -> ! {
    let mut text = String::from(
        "usage: loopcomm <command> [workload] [options]\n\
         \n\
         commands:\n\
         \x20 list                   list available workloads\n\
         \x20 profile  <workload>    global communication matrix + stats\n\
         \x20 nested   <workload>    per-loop nested pattern tree (Fig. 6/7)\n\
         \x20 load     <workload>    Eq. 1 thread-load bars (Fig. 8)\n\
         \x20 classify <workload>    dominant parallel-pattern class (§VI)\n\
         \x20 map      <workload>    communication-aware thread mapping\n\
         \x20 phases   <workload>    dynamic phase detection (§V-A4)\n\
         \x20 report   <workload> <out.html>  write a full HTML report\n\
         \x20 record   <workload> <file>  stream an access trace to disk as a\n\
         \x20                        v3 spool (or `--connect HOST:PORT` to\n\
         \x20                        stream it live to a `loopcomm serve`)\n\
         \x20 synth    <file>        stream a deterministic synthetic v3\n\
         \x20                        spool to disk\n\
         \x20 analyze  <file>        offline analysis of a recorded trace\n\
         \x20 serve                  streaming multi-tenant ingest service:\n\
         \x20                        accepts spool streams over TCP/Unix\n\
         \x20                        sockets, analyzes incrementally, and\n\
         \x20                        serves live reports + metrics over HTTP\n\
         \x20 stream   <file>        replay a recorded trace to a server\n\
         \x20                        (`--connect HOST:PORT [--tenant NAME]`)\n\
         \x20 simulate <workload>    one MESI simulation, its transfers\n\
         \x20                        priced under three thread mappings\n\
         \x20 hotsites <workload>    hottest source access sites\n\
         \x20 deps     <workload>    full RAW/WAR/WAW/RAR taxonomy\n\
         \x20 simtest  <scenario>    deterministic model checking of the\n\
         \x20                        concurrency core (`all` runs every\n\
         \x20                        scenario, `list` enumerates them);\n\
         \x20                        build with `--features sched`\n\
         \n\
         options:",
    );
    for f in FLAGS.iter().filter(|f| !f.help.is_empty()) {
        let gap = if f.spec.len() < 17 { "" } else { "  " };
        let mut help = f.help.lines();
        text += &format!("\n  {:<17}{gap}{}", f.spec, help.next().unwrap_or_default());
        for line in help {
            text += &format!("\n{:19}{line}", "");
        }
        // The readers, under the help, wrapped at 80 columns.
        let repeatable = matches!(f.kind, Many).then_some(" (repeatable)");
        let mut line = format!("{:19}read by: ", "");
        for item in (f.reader_list("") + repeatable.unwrap_or_default()).split_inclusive(", ") {
            if line.len() + item.trim_end().len() > 80 {
                text += &format!("\n{}", line.trim_end());
                line = " ".repeat(28);
            }
            line += item;
        }
        text += &format!("\n{line}");
    }
    eprintln!("{text}");
    std::process::exit(2);
}

/// The options given to one command, each checked against its row of
/// `FLAGS` and against the command (see `parse`).
struct Args(Vec<(&'static Flag, Val)>);

/// Parse the options of `cmd`. Each stage ends the process at its first
/// fault: every value is parsed and range-checked in order (a removed or
/// unknown flag stops it where it stands), the cache geometry is checked
/// as a whole, and then each flag must be one `cmd` reads, with the flag
/// it needs there given too.
fn parse(cmd: &str, args: &[String]) -> Args {
    let mut given = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some((_, why)) = REMOVED.iter().find(|(f, _)| f.split(' ').any(|f| f == a)) {
            refuse(format_args!("{a} was removed{why}"));
        }
        let Some(flag) = FLAGS.iter().find(|f| f.name() == a) else {
            eprintln!("unknown option `{a}`");
            usage()
        };
        let missing = || refuse(format_args!("missing value for {a}"));
        let val = match flag.kind {
            Switch => Val::Int(1),
            kind => kind.parse(a, it.next().unwrap_or_else(missing)),
        };
        given.push((flag, val));
    }
    let args = Args(given);
    if let Err(e) = args.geometry().validate() {
        refuse(e);
    }
    let has = |need: &str| args.0.iter().any(|(f, _)| f.name() == need);
    for (flag, _) in &args.0 {
        let read = (flag.readers().into_iter()).any(|(c, need)| c == cmd && need.is_none_or(has));
        if !read {
            let readers = flag.reader_list("`");
            refuse(format_args!(
                "{} is read only by {readers}, not `{cmd}`",
                flag.name()
            ));
        }
    }
    args
}

impl Args {
    /// The value of `id`, the last one given if it was given twice.
    fn get(&self, id: F) -> Option<&Val> {
        self.0
            .iter()
            .rev()
            .find(|(f, _)| f.id == id)
            .map(|(_, v)| v)
    }

    fn on(&self, id: F) -> bool {
        self.get(id).is_some()
    }

    fn int(&self, id: F, default: u64) -> u64 {
        match self.get(id) {
            Some(Val::Int(v)) => *v,
            _ => default,
        }
    }

    /// The last value given, as `get` reads it.
    fn text(&self, id: F) -> Option<String> {
        self.texts(id).pop()
    }

    /// Every value given, in order.
    fn texts(&self, id: F) -> Vec<String> {
        (self.0.iter().filter(|(f, _)| f.id == id))
            .filter_map(|(_, v)| match v {
                Val::Text(s) => Some(s.clone()),
                _ => None,
            })
            .collect()
    }

    /// `--threads/--size/--seed`: how a workload runs.
    fn run(&self) -> RunConfig {
        let size = match self.get(F::Size) {
            Some(Val::Size(s)) => *s,
            _ => InputSize::SimSmall,
        };
        let threads = self.int(F::Threads, 8) as usize;
        RunConfig::new(threads, size, self.int(F::Seed, 42))
    }

    /// `--line-size/--cache-kib/--assoc`: the MESI backend's geometry.
    fn geometry(&self) -> CoherenceConfig {
        CoherenceConfig {
            line_bytes: self.int(F::LineSize, 64),
            cache_kib: self.int(F::CacheKib, 16),
            assoc: self.int(F::Assoc, 4) as usize,
        }
    }

    /// `--coherence`: the geometry, when the MESI backend runs.
    fn coherence(&self) -> Option<CoherenceConfig> {
        self.on(F::Coherence).then(|| self.geometry())
    }

    /// The hidden `--fault-plan` file, armed. An unreadable or malformed
    /// plan is a usage error (exit 2), not a degraded run.
    fn faults(&self) -> Option<Arc<lc_faults::FaultInjector>> {
        self.text(F::FaultPlan).map(|path| {
            let plan = (std::fs::read_to_string(&path))
                .map_err(|e| format!("cannot read fault plan `{path}`: {e}"))
                .and_then(|text| lc_faults::FaultPlan::parse(&text).map_err(|e| e.to_string()))
                .unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
            Arc::new(lc_faults::FaultInjector::new(plan))
        })
    }
}

/// `--slots/--loop-capacity/--perfect/--jobs`: the RAW analyzer.
struct Sig {
    slots: usize,
    loop_capacity: usize,
    detector: DetectorKind,
    jobs: usize,
}

impl Sig {
    fn new(a: &Args) -> Self {
        Sig {
            slots: a.int(F::Slots, 1 << 20) as usize,
            loop_capacity: a.int(F::LoopCapacity, 1024) as usize,
            detector: if a.on(F::Perfect) {
                DetectorKind::Perfect
            } else {
                DetectorKind::Asymmetric
            },
            jobs: a.int(F::Jobs, 1) as usize,
        }
    }

    /// The analyzer's signature, profiler and accumulator configuration
    /// for `threads` thread ids.
    fn configs(
        &self,
        threads: usize,
    ) -> (
        SignatureConfig,
        lc_profiler::ProfilerConfig,
        lc_profiler::AccumConfig,
    ) {
        (
            SignatureConfig::paper_default(self.slots, threads),
            lc_profiler::ProfilerConfig {
                threads,
                track_nested: true,
                phase_window: None,
            },
            lc_profiler::AccumConfig {
                loop_capacity: self.loop_capacity,
            },
        )
    }
}

/// `--connect/--tenant/--frame-events`: where `record`, `stream` and
/// `synth` send events, and in what frames.
struct Target {
    /// A `loopcomm serve` endpoint, instead of a file.
    connect: Option<String>,
    tenant: String,
    frame_events: usize,
}

impl Target {
    fn new(a: &Args) -> Self {
        Target {
            connect: a.text(F::Connect),
            tenant: a.text(F::Tenant).unwrap_or_else(|| "default".to_string()),
            frame_events: a.int(F::FrameEvents, lc_trace::DEFAULT_FRAME_EVENTS as u64) as usize,
        }
    }
}

/// A run that failed on its input, its output or the host: `msg` on
/// stderr, exit 1.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// Look up workload `name` and check it can run on `threads`, so a
/// thread count the kernel cannot use is a usage error, not a panic.
fn workload(name: &str, threads: usize) -> Box<dyn Workload> {
    let w = by_name(name).unwrap_or_else(|| {
        refuse(format_args!(
            "unknown workload `{name}` — try `loopcomm list`"
        ))
    });
    if threads < w.min_threads() {
        refuse(format_args!(
            "`{name}` needs --threads {} or more (got {threads})",
            w.min_threads()
        ));
    }
    w
}

fn profile(
    name: &str,
    run: &RunConfig,
    sig: &Sig,
    phase_window: Option<u64>,
) -> (Arc<AsymmetricProfiler>, Arc<TraceCtx>) {
    let threads = run.threads;
    let workload = workload(name, threads);
    let (table, prof, accum) = sig.configs(threads);
    let table = (table.try_build()).unwrap_or_else(|e| pipeline_failed(&PipelineError::Table(e)));
    let profiler = Arc::new(AsymmetricProfiler::from_detector_with(
        lc_profiler::RawDetector::new(table),
        lc_profiler::ProfilerConfig {
            phase_window,
            ..prof
        },
        accum,
    ));
    let ctx = TraceCtx::new(profiler.clone(), threads);
    workload.run(&ctx, run);
    if let Some(e) = profiler.registry_overflow() {
        registry_full_error(e, sig.loop_capacity);
    }
    (profiler, ctx)
}

/// A pipeline (or profiler) the options cannot build: a signature table
/// the host will not allocate exits 1 naming `--slots` and the bytes
/// asked for; too many threads for `--coherence` is a usage error.
fn pipeline_failed(e: &PipelineError) -> ! {
    let (what, code) = match e {
        PipelineError::Table(t) => (format!("--slots {}: {e}", t.n_slots), 1),
        e => (e.to_string(), 2),
    };
    eprintln!("error: {what}");
    std::process::exit(code);
}

/// Report a loop-registry overflow as a clean actionable error. The
/// profiler degrades per-loop attribution rather than panicking mid-run
/// (a worker panic would strand sibling threads at their next barrier), so
/// by the time this runs the workload has completed and the latched error
/// is the only thing left to surface.
fn registry_full_error(e: lc_profiler::RegistryFull, current: usize) -> ! {
    eprintln!("error: {e}");
    eprintln!(
        "hint: rerun with --loop-capacity {} or higher (current {})",
        current.saturating_mul(4).min(MAX_LOOP_CAPACITY),
        current
    );
    std::process::exit(1);
}

/// Write `body` to the output file `path`; a path that cannot be written
/// ends the run with exit 1, naming `what` and the path.
fn write_out(what: &str, path: &str, body: impl AsRef<[u8]>) {
    (std::fs::write(path, body))
        .unwrap_or_else(|e| fail(format_args!("cannot write {what} to `{path}`: {e}")));
}

/// Write a metrics registry to `path`: `.json` selects the JSON exposition,
/// anything else the Prometheus text form.
fn write_metrics(path: &str, reg: &lc_profiler::MetricsRegistry) {
    let body = if path.ends_with(".json") {
        reg.to_json()
    } else {
        reg.to_prometheus()
    };
    write_out("metrics", path, body);
    println!("wrote metrics       : {path}");
}

/// `loopcomm simtest <scenario|all|list>` — deterministic model checking
/// of the concurrency core (see DESIGN.md §11). Exhaustive bounded DFS by
/// default, `--explore N` for seeded random schedules; prints per-scenario
/// schedule counts and, on a violation, the (minimized) decision trace.
/// Exits 1 if any scenario's oracle is violated.
#[cfg(feature = "sched")]
fn simtest_cmd(name: &str, a: &Args) {
    use loopcomm::simtest;

    let (seed, mutants, trace_out) = (a.int(F::Seed, 42), a.texts(F::Mutant), a.text(F::TraceOut));

    if name == "list" {
        println!("model-checking scenarios:");
        for s in simtest::scenarios() {
            println!("  {:<10} {}", s.name, s.about);
            if !s.catchable_mutants.is_empty() {
                println!(
                    "             catches mutants: {}",
                    s.catchable_mutants.join(", ")
                );
            }
        }
        return;
    }
    let scenarios: Vec<&simtest::Scenario> = if name == "all" {
        simtest::scenarios().iter().collect()
    } else {
        vec![simtest::find(name).unwrap_or_else(|| {
            refuse(format_args!(
                "unknown scenario `{name}` — try `loopcomm simtest list`"
            ))
        })]
    };

    let mut violated = false;
    for s in scenarios {
        let defaults = lc_sched::SimConfig::default();
        let cfg = lc_sched::SimConfig {
            max_preemptions: match a.get(F::MaxPreemptions) {
                Some(Val::Int(n)) => Some(*n as usize),
                Some(_) => None,
                None => s.default_preemption_bound,
            },
            max_schedules: a.int(F::MaxSchedules, defaults.max_schedules),
            mutants: mutants.clone(),
            ..defaults
        };
        let bound = match cfg.max_preemptions {
            Some(p) => format!("preemption bound {p}"),
            None => "unbounded".to_string(),
        };
        let explorer = lc_sched::Explorer::new(cfg);
        let (mode, report) = match a.on(F::Explore).then(|| a.int(F::Explore, 0)) {
            Some(n) => (
                format!("random x{n} (seed {seed})"),
                explorer.explore_random(seed, n, || s.run()),
            ),
            None => (
                "exhaustive".to_string(),
                explorer.explore_exhaustive(|| s.run()),
            ),
        };
        println!(
            "{:<10} {mode}, {bound}: {} schedule(s), <={} decision point(s), <={} step(s){}",
            s.name,
            report.schedules,
            report.max_decisions,
            report.max_steps_seen,
            if report.truncated {
                "  [TRUNCATED]"
            } else {
                ""
            },
        );
        if let Some(v) = &report.violation {
            violated = true;
            eprintln!(
                "VIOLATION in `{}` at schedule #{}: {:?}: {}",
                s.name, v.schedule_index, v.kind, v.message
            );
            eprintln!("  trace     : {}", v.trace.to_line());
            if let Some(m) = &v.minimized {
                eprintln!("  minimized : {}", m.to_line());
            }
            if let Some(path) = &trace_out {
                use std::io::Write as _;
                let repro = v.minimized.as_ref().unwrap_or(&v.trace);
                let line = format!("scenario={};kind={:?};{}", s.name, v.kind, repro.to_line());
                (std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path))
                .and_then(|mut f| writeln!(f, "{line}"))
                .unwrap_or_else(|e| fail(format_args!("cannot write trace file `{path}`: {e}")));
                println!("  wrote repro trace -> {path}");
            }
        }
    }
    if violated {
        std::process::exit(1);
    }
    if !mutants.is_empty() {
        // An armed mutant that no oracle catches is itself a harness
        // defect; make the run loudly distinguishable from a clean one.
        println!(
            "note: mutant(s) [{}] armed but no violation found",
            mutants.join(", ")
        );
    }
}

/// Load a recorded trace for `analyze`/`stream`, honoring `--salvage`.
fn load_or_salvage(name: &str, salvage: bool) -> lc_trace::Trace {
    if salvage {
        let (trace, rep) = lc_trace::salvage_trace(std::path::Path::new(name))
            .unwrap_or_else(|e| fail(format_args!("cannot salvage `{name}`: {e}")));
        println!(
            "salvage: format v{}, {} frame(s), {} event(s) recovered, {} byte(s) dropped",
            rep.version, rep.frames, rep.events, rep.bytes_dropped
        );
        trace
    } else {
        lc_trace::load_trace(std::path::Path::new(name)).unwrap_or_else(|e| {
            fail(format_args!(
                "cannot read `{name}`: {e}\nhint: `--salvage` recovers what is intact"
            ))
        })
    }
}

/// Largest `max tid + 1` that `analyze` accepts, and so the largest
/// `--threads` any command takes (a run with more would record a trace
/// `analyze` refuses). Every matrix is a dense `threads x threads` array
/// of `u64` (8 MiB at this bound), and thread ids come straight from the
/// input file, so a wild id must be refused before anything is sized
/// from it.
const MAX_ANALYZE_THREADS: u64 = 1024;

/// The matrix dimension for `analyze`: **max tid + 1**, never the count
/// of distinct ids (tids {0, 5} index a 6x6 matrix). A v3 spool's
/// side-car index records it as a replay hint; the full streaming pass is
/// the fallback for indexes that predate the hint or were rebuilt from
/// headers alone. The hint matters for crash recovery: a fresh
/// (un-resumed) run must reach its first checkpoint quickly, not spend
/// seconds pre-scanning a multi-gigabyte spool it will then replay anyway.
/// RAM-loaded input costs one pass over the tid field.
fn analyze_threads(source: &lc_trace::FileBlockSource) -> usize {
    let threads = match source {
        lc_trace::FileBlockSource::Spool(m) if m.index().threads > 0 => m.index().threads as u64,
        lc_trace::FileBlockSource::Spool(m) => {
            let mut threads = 1u64;
            m.stream_from(0, |frame| {
                for e in frame {
                    threads = threads.max(e.event.tid as u64 + 1);
                }
            })
            .unwrap_or_else(|e| {
                fail(format_args!(
                    "error: cannot scan spool for thread count: {e}"
                ))
            });
            threads
        }
        lc_trace::FileBlockSource::Ram(t) => t
            .access_events()
            .iter()
            .map(|e| e.tid as u64 + 1)
            .max()
            .unwrap_or(1),
    };
    if threads > MAX_ANALYZE_THREADS {
        fail(format_args!(
            "error: trace uses thread id {}; `analyze` supports thread ids below \
             {MAX_ANALYZE_THREADS} (matrices are dense in max tid + 1)",
            threads - 1
        ));
    }
    threads as usize
}

/// Resume must run with the configuration the checkpoint echoes —
/// anything else would silently change the analysis semantics mid-trace.
fn check_resume_config(cp: &lc_profiler::Checkpoint, sig: &Sig) {
    if cp.kind != sig.detector {
        refuse(format_args!(
            "checkpoint was taken with the {:?} detector; rerun {} --perfect",
            cp.kind,
            if sig.detector == DetectorKind::Perfect {
                "without"
            } else {
                "with"
            }
        ));
    }
    if cp.jobs != sig.jobs {
        refuse(format_args!(
            "checkpoint was taken with --jobs {}; resume with the same value",
            cp.jobs
        ));
    }
    if let Some(taken) = cp.sig.as_ref().filter(|t| t.n_slots != sig.slots) {
        refuse(format_args!(
            "checkpoint was taken with --slots {}; resume with the same value",
            taken.n_slots
        ));
    }
}

/// `loopcomm analyze <file>` — the one analysis route. Blocks borrowed
/// from a [`lc_trace::FileBlockSource`] feed the same
/// [`loopcomm::Pipeline`] every server tenant drives, so profiler
/// memory follows Eq. 2 (signatures + matrices) whatever the trace
/// length; `--checkpoint`/`--resume` make the run crash-resumable.
fn analyze(name: &str, a: &Args) {
    use lc_trace::{BlockSource, EventBlock, FileBlockSource};

    let (sig, coherence, faults) = (Sig::new(a), a.coherence(), a.faults());
    let jobs = sig.jobs;
    let mut source = if a.on(F::Salvage) {
        FileBlockSource::Ram(load_or_salvage(name, true))
    } else {
        FileBlockSource::open(std::path::Path::new(name)).unwrap_or_else(|e| {
            fail(format_args!(
                "cannot read `{name}`: {e}\nhint: `--salvage` recovers what is intact"
            ))
        })
    };
    let total = source.events();
    let threads = analyze_threads(&source);
    let format = match &source {
        FileBlockSource::Spool(m) => format!(
            "v3 spool: {} segment(s), index {}",
            m.segments(),
            if m.index_rebuilt() {
                "rebuilt from segment headers"
            } else {
                "loaded"
            }
        ),
        FileBlockSource::Ram(_) => "loaded into RAM".to_string(),
    };
    println!("trace: {total} event(s), {threads} thread(s), {format}");

    // One shard per core (a power of two); with one, no thread starts.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (table, prof, accum) = sig.configs(threads);
    let cfg = loopcomm::PipelineConfig {
        detector: sig.detector,
        sig: table,
        prof,
        accum,
        jobs,
        coherence,
        coherence_shards: lc_cachesim::ShardedCoherence::shard_count(a.geometry(), cores),
    };

    // Resume, if a usable checkpoint exists. A missing or corrupt
    // checkpoint degrades to a from-scratch run (with a warning), never a
    // wrong one — the CRC rules out trusting torn state. A checkpoint of
    // another format version is an error (exit 1).
    let mut restored = None;
    if let Some(dir) = &a.text(F::Resume) {
        let cp_file = lc_profiler::checkpoint_path(std::path::Path::new(dir));
        match lc_profiler::Checkpoint::load(&cp_file) {
            Ok(cp) => {
                check_resume_config(&cp, &sig);
                match loopcomm::Pipeline::restore(&cp, &cfg) {
                    Ok(p) => {
                        let a = p.analyzer();
                        println!(
                            "resume: checkpoint at event {} / {total} ({} frame(s) analyzed)",
                            a.events(),
                            a.frames()
                        );
                        restored = Some(p);
                    }
                    Err(PipelineError::Restore(e)) => {
                        eprintln!("warning: cannot restore checkpoint ({e}); starting from scratch")
                    }
                    Err(e) => pipeline_failed(&e),
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                println!("resume: no checkpoint in `{dir}` yet; starting from scratch");
            }
            // A readable checkpoint of another format version: its state
            // cannot be carried over, and silently starting over would
            // hide that.
            Err(e) if e.kind() == std::io::ErrorKind::Unsupported => {
                fail(format_args!("error: {e} in `{dir}`"))
            }
            Err(e) => {
                eprintln!("warning: unusable checkpoint in `{dir}` ({e}); starting from scratch")
            }
        }
    }
    let mut pipe = restored
        .unwrap_or_else(|| loopcomm::Pipeline::new(&cfg).unwrap_or_else(|e| pipeline_failed(&e)));

    // `--checkpoint`: a snapshot every `--every` events, and at the end.
    let (cp_dir, every) = (a.text(F::Checkpoint), a.int(F::Every, 1_000_000));
    let cp_dir = cp_dir.as_deref().map(std::path::Path::new);
    // Capture and atomically publish a checkpoint. Failure degrades
    // durability (warn and continue), never the analysis: an injected
    // `io_error`/`short_write` leaves the previous checkpoint in place,
    // and a `bit_flip` is caught by the CRC at the next load.
    let write_checkpoint = |pipe: &loopcomm::Pipeline, dir| {
        let cp = lc_profiler::Checkpoint::capture(pipe.analyzer());
        if let Err(e) = cp.write_atomic(&lc_profiler::checkpoint_path(dir), faults.as_ref()) {
            eprintln!(
                "warning: checkpoint write failed ({e}); analysis continues without durability"
            );
        }
    };
    let start = pipe.analyzer().events().min(total);
    let mut last_cp = pipe.analyzer().events();
    // A spool is decoded ahead on a helper thread only when a core is left
    // over after the detector (and the coherence shards) took theirs.
    let read_ahead = cores > pipe.coherence_shards().unwrap_or(1);
    // The coherence backend is not part of the checkpoint: on a resumed
    // run it only sees the events replayed here, so flag the shortfall.
    if coherence.is_some() && start > 0 {
        eprintln!(
            "warning: --coherence state is not checkpointed; the coherence report \
             covers only the {} event(s) replayed in this run",
            total - start
        );
    }
    let mut on_block = |block: EventBlock<'_>| {
        let fed = match block {
            EventBlock::Plain(evs) => pipe.on_frame(evs),
            EventBlock::Stamped(evs) => pipe.on_frame(evs),
        };
        if let Err(e) = fed {
            fail(format_args!("error: {e}"));
        }
        if let Some(dir) = cp_dir {
            if pipe.analyzer().events() - last_cp >= every {
                write_checkpoint(&pipe, dir);
                last_cp = pipe.analyzer().events();
            }
        }
    };
    let streamed = match &mut source {
        FileBlockSource::Spool(m) => {
            m.stream_events(start, read_ahead, |evs| on_block(EventBlock::Plain(evs)))
        }
        ram => (ram.stream_blocks(start, &mut on_block)).map(|events| lc_trace::SegmentStream {
            events,
            ..Default::default()
        }),
    }
    .unwrap_or_else(|e| fail(format_args!("error: replay failed: {e}")));
    // Always leave a final checkpoint: a completed run is itself
    // resumable, and resume-after-complete replays nothing.
    if let Some(dir) = cp_dir {
        write_checkpoint(&pipe, dir);
    }
    if let Some(e) = pipe.analyzer().overflow() {
        registry_full_error(e, sig.loop_capacity);
    }
    // The coherence report is merged and rendered here, ahead of the
    // metrics that time it; it is printed last, as always.
    let t0 = std::time::Instant::now();
    let shards = pipe.coherence_shards().unwrap_or(0);
    let (analyzer, coherence) =
        (pipe.finish()).unwrap_or_else(|e| fail(format_args!("error: {e}")));
    let coherence = coherence.map(|rep| {
        if let Some(e) = rep.loop_overflow {
            registry_full_error(e, sig.loop_capacity);
        }
        let body = (a.on(F::CoherenceOut)).then(|| lc_cachesim::canonical_coherence_report(&rep));
        (rep, body, t0.elapsed())
    });
    let r = analyzer.report();
    println!(
        "analyzed: {} event(s) in {} block(s), {} job(s)",
        analyzer.events(),
        analyzer.frames(),
        jobs
    );
    println!(
        "RAW dependencies: {}  profiler memory: {}",
        r.dependencies,
        lc_profiler::report::fmt_bytes(r.memory_bytes as u64)
    );
    // §IV-D2: signature size trades memory for accuracy — say which side
    // of that trade this run landed on.
    if let Some(h) = analyzer.signature_health() {
        println!(
            "signature health: {}/{} write slot(s) occupied ({:.1}% aliasing), \
             ~{:.0} written address(es)",
            h.write_occupied,
            h.slots,
            h.write_aliasing * 100.0,
            h.est_written_addresses
        );
        if h.needs_more_slots() {
            eprintln!(
                "hint: rerun with --slots {} for <10% slot aliasing",
                h.suggested_slots(0.10).min(MAX_SLOTS)
            );
        }
    }
    println!("\ncommunication matrix:\n{}", r.global.heatmap());
    if let Some(path) = a.text(F::Metrics) {
        let mut reg = lc_profiler::MetricsRegistry::new();
        reg.counter(
            "loopcomm_accesses_total",
            "Events the detectors processed",
            r.accesses,
        );
        reg.counter(
            "loopcomm_dependences_total",
            "RAW dependences recorded",
            r.dependencies,
        );
        reg.gauge(
            "loopcomm_replay_jobs",
            "Slot-sharded analyzer workers",
            jobs as f64,
        );
        reg.counter(
            "loopcomm_replay_events_total",
            "Events delivered to the analyzer (restored prefix included)",
            analyzer.events(),
        );
        reg.counter(
            "loopcomm_replay_frames_total",
            "Blocks delivered to the analyzer (restored prefix included)",
            analyzer.frames(),
        );
        reg.gauge(
            "loopcomm_replay_read_ahead",
            "1 when a helper thread decoded spool segments ahead of the detector",
            u8::from(streamed.read_ahead) as f64,
        );
        reg.gauge(
            "loopcomm_replay_segment_wait_seconds",
            "Time the detector thread spent waiting for a decoded segment \
             (reading and decoding it itself without read-ahead)",
            streamed.segment_wait.as_secs_f64(),
        );
        if let Some((rep, _, took)) = &coherence {
            coherence_metrics(&mut reg, &rep.totals(), shards, *took);
        }
        write_metrics(&path, &reg);
    }
    if let Some(path) = a.text(F::ReportOut) {
        // Canonical plain-text form: byte-identical to what a
        // `loopcomm serve` tenant reports for the same events, whatever
        // the input format, --jobs or checkpoint/resume history.
        let body = lc_profiler::canonical_report(&r, analyzer.events());
        write_out("report", &path, body);
        println!("wrote canonical report: {path}");
    }
    if let Some((rep, body, _)) = coherence {
        print_coherence(&rep, shards, body, a.text(F::CoherenceOut));
    }
}

/// The `--coherence` series of `analyze --metrics`.
fn coherence_metrics(
    reg: &mut lc_profiler::MetricsRegistry,
    t: &lc_cachesim::CoherenceTotals,
    shards: usize,
    took: std::time::Duration,
) {
    for (name, help, v) in [
        (
            "accesses",
            "Accesses the MESI backend simulated",
            t.accesses,
        ),
        (
            "invalidations",
            "Copies invalidated by remote writes",
            t.invalidations,
        ),
        ("c2c_fills", "Line fills served cache-to-cache", t.c2c_fills),
        ("writebacks", "Dirty lines written back", t.writebacks),
        ("true_bytes", "First-touch attributed bytes", t.true_bytes),
        (
            "false_bytes",
            "Bytes pulled into a copy and never touched",
            t.false_bytes,
        ),
        (
            "false_sharing_events",
            "False-sharing invalidations and flushes",
            t.false_sharing_events,
        ),
    ] {
        reg.counter(&format!("loopcomm_coherence_{name}_total"), help, v);
    }
    reg.gauge(
        "loopcomm_coherence_shards",
        "Cache-set shards the MESI backend ran as",
        shards as f64,
    );
    reg.gauge(
        "loopcomm_coherence_report_seconds",
        "Time to merge the shards' coherence reports and render the canonical one",
        took.as_secs_f64(),
    );
}

/// Run workload `name` once into the perfect RAW profiler and one MESI
/// backend (`--line-size/--cache-kib/--assoc`) fed the same events:
/// the global RAW matrix and the coherence report.
fn profile_with_coherence(
    name: &str,
    run: &RunConfig,
    geometry: CoherenceConfig,
) -> (lc_profiler::DenseMatrix, lc_cachesim::CoherenceReport) {
    let workload = workload(name, run.threads);
    let threads =
        loopcomm::pipeline::coherence_threads(run.threads).unwrap_or_else(|e| pipeline_failed(&e));
    let coh = Arc::new(lc_cachesim::SharedCoherence::new(
        lc_cachesim::CoherenceBackend::new(geometry, threads),
    ));
    let prof = Arc::new(lc_profiler::PerfectProfiler::perfect(
        lc_profiler::ProfilerConfig {
            threads,
            track_nested: false,
            phase_window: None,
        },
    ));
    let fork = Arc::new(lc_trace::ForkSink::new(vec![
        coh.clone() as Arc<dyn lc_trace::AccessSink>,
        prof.clone(),
    ]));
    let ctx = TraceCtx::new(fork, threads);
    workload.run(&ctx, run);
    (prof.global_matrix(), coh.report())
}

/// Print a [`lc_cachesim::CoherenceReport`] and write its canonical
/// form, `body`, to `--coherence-out`.
fn print_coherence(
    rep: &lc_cachesim::CoherenceReport,
    shards: usize,
    body: Option<String>,
    out: Option<String>,
) {
    println!(
        "\ncoherence [{} B lines, {} KiB/core, {}-way MESI], {shards} cache-set shard(s) \
         (--jobs shards the RAW analyzer only):",
        rep.config.line_bytes, rep.config.cache_kib, rep.config.assoc
    );
    println!(
        "accesses {}  hits {}  fills {} (mem {}, c2c {})  invalidations {}  writebacks {}",
        rep.accesses,
        rep.hits,
        rep.fills,
        rep.mem_fills,
        rep.c2c_fills,
        rep.invalidations,
        rep.writebacks
    );
    if rep.clamped_accesses != 0 {
        println!(
            "warning: {} access(es) wrapped the address space or spanned more than {} lines \
             and were cut short",
            rep.clamped_accesses,
            lc_cachesim::MAX_ACCESS_LINES
        );
    }
    let (inval_rate, fs_ratio, locality) = rep.features();
    println!(
        "invalidations/access {inval_rate:.4}  false-sharing ratio {fs_ratio:.3}  \
         transfer locality {locality:.3}"
    );
    println!(
        "false sharing: {} event(s), {} false byte(s) vs {} true byte(s)",
        rep.false_sharing_events(),
        rep.global.false_bytes,
        rep.global.true_bytes()
    );
    if !rep.global.transfers.is_zero() {
        println!(
            "\ntransfer matrix (bytes):\n{}",
            rep.global.transfers.heatmap()
        );
    }
    if !rep.global.invalidations.is_zero() {
        println!(
            "\ninvalidation matrix:\n{}",
            rep.global.invalidations.heatmap()
        );
    }
    // Only lines that actually false-shared; tracked-but-clean lines
    // would read as noise here. The top 8 are selected, not sorted out of
    // all of them.
    const TOP: usize = 8;
    let mut flagged: Vec<_> = (rep.global.lines.iter())
        .filter(|(_, fs)| fs.events > 0)
        .collect();
    let key =
        |&&(line, fs): &&(u64, lc_cachesim::FsLine)| (std::cmp::Reverse(fs.false_bytes), line);
    if flagged.len() > TOP {
        flagged.select_nth_unstable_by_key(TOP - 1, key);
        flagged.truncate(TOP);
    }
    flagged.sort_unstable_by_key(key);
    if !flagged.is_empty() {
        println!("\nfalse-sharing lines (top {}):", flagged.len());
        for (line, fs) in flagged {
            println!(
                "  line {:#x}: {} event(s), {} false / {} true byte(s), threads {:#x}",
                line, fs.events, fs.false_bytes, fs.true_bytes, fs.threads
            );
        }
    }
    if let (Some(path), Some(body)) = (out, body) {
        write_out("coherence report", &path, body);
        println!("wrote coherence report: {path}");
    }
}

use lc_trace::synth_event;

/// `loopcomm synth <file>` — stream a deterministic synthetic v3 spool
/// to disk without ever materializing it in memory, so CI can fabricate
/// spools far larger than RAM for the out-of-core replay checks.
fn synth_cmd(name: &str, a: &Args) {
    let (run, frame) = (a.run(), Target::new(a).frame_events);
    let (events, working_set) = (a.int(F::Events, 1_000_000), a.int(F::WorkingSet, 65_536));
    let addr_reuse = match a.get(F::AddrReuse) {
        Some(Val::Real(p)) => *p,
        _ => 0.0,
    };
    let mut buf: Vec<lc_trace::StampedEvent> = Vec::with_capacity(frame);
    let mut i = 0u64;
    let mut w = lc_trace::SpoolV3Writer::create_with(std::path::Path::new(name), a.faults())
        .unwrap_or_else(|e| fail(format_args!("cannot create `{name}`: {e}")));
    while i < events {
        buf.clear();
        while buf.len() < frame && i < events {
            let threads = run.threads as u32;
            buf.push(synth_event(i, run.seed, threads, working_set, addr_reuse));
            i += 1;
        }
        (w.append_frame(&buf))
            .unwrap_or_else(|e| fail(format_args!("error: spool write failed: {e}")));
    }
    let stats =
        (w.finish()).unwrap_or_else(|e| fail(format_args!("error: spool finish failed: {e}")));
    println!(
        "synthesized {} event(s) in {} frame(s) ({} bytes, format v3) -> {name}",
        stats.events, stats.frames, stats.bytes
    );
}

/// `loopcomm serve` — start the streaming multi-tenant ingest service
/// and run until the process is killed (see DESIGN.md §13).
fn serve_cmd(a: &Args) -> ! {
    let mut listen = a.texts(F::Listen);
    if listen.is_empty() {
        listen.push("127.0.0.1:9009".to_string());
    }
    let sig = Sig::new(a);
    let threads = a.run().threads;
    let (sig_cfg, prof, accum) = sig.configs(threads);
    let idle_secs = a.int(F::TenantIdleSecs, 0);
    let cfg = loopcomm::serve::ServeConfig {
        listen,
        http: a.text(F::Http),
        detector: sig.detector,
        sig: sig_cfg,
        prof,
        accum,
        jobs: sig.jobs,
        queue_frames: a.int(F::QueueFrames, 64) as usize,
        max_conns: a.int(F::MaxConns, 64) as usize,
        max_tenants: a.int(F::MaxTenants, 64) as usize,
        faults: a.faults(),
        durable_dir: a.text(F::DurableDir).map(std::path::PathBuf::from),
        tenant_idle: (idle_secs > 0).then(|| std::time::Duration::from_secs(idle_secs)),
        tenant_max_bytes: a.int(F::TenantMaxBytes, 0) as usize,
        coherence: a.coherence(),
    };
    let coherence = cfg.coherence.is_some();
    let server = loopcomm::serve::Server::start(cfg).unwrap_or_else(|e| {
        if let Some(e) = e.get_ref().and_then(|e| e.downcast_ref()) {
            pipeline_failed(e);
        }
        fail(format_args!("cannot start server: {e}"))
    });
    for addr in server.ingest_addrs() {
        println!("ingest : {addr}");
    }
    if let Some(addr) = server.http_addr() {
        println!(
            "http   : http://{addr}/  (/metrics, /tenants, /tenants/<t>/report{})",
            if coherence {
                ", /tenants/<t>/coherence"
            } else {
                ""
            }
        );
    }
    if let Some(first) = server.ingest_addrs().first() {
        println!("stream with: loopcomm stream <file.lctrace> --connect {first} --tenant NAME");
    }
    server.run_forever()
}

/// Give `SIGPIPE` back its default action, so `loopcomm … | head` ends
/// quietly when the reader goes away instead of panicking in `println!`
/// (the Rust runtime ignores the signal, turning it into an `EPIPE`
/// error). Commands that write to a socket keep it ignored: a peer that
/// hangs up must surface as an error there, not kill the process.
#[cfg(unix)]
fn restore_default_sigpipe(writes_socket: bool) {
    use std::ffi::c_int;
    const SIGPIPE: c_int = 13;
    const SIG_DFL: usize = 0;
    extern "C" {
        fn signal(signum: c_int, handler: usize) -> usize;
    }
    if !writes_socket {
        // SAFETY: `signal` with a valid signal number and `SIG_DFL` only
        // changes the process's disposition; it runs before any thread is
        // spawned, and no Rust code relies on SIGPIPE being ignored except
        // socket writes, which keep it ignored above.
        unsafe {
            signal(SIGPIPE, SIG_DFL);
        }
    }
}

#[cfg(not(unix))]
fn restore_default_sigpipe(_writes_socket: bool) {}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = (args.first().map(String::as_str))
        .filter(|c| WORKLOAD_CMDS.contains(c) || OTHER_CMDS.contains(c))
    else {
        usage()
    };
    // The positional arguments ahead of the options; `record` takes no
    // file under `--connect`.
    let max_positional = match cmd {
        "list" | "serve" => 0,
        "report" | "record" => 2,
        _ => 1,
    };
    let positional: Vec<&str> = (args[1..].iter())
        .take_while(|a| !a.starts_with("--"))
        .take(max_positional)
        .map(String::as_str)
        .collect();
    let a = parse(cmd, &args[1 + positional.len()..]);
    restore_default_sigpipe(matches!(cmd, "serve" | "stream") || a.on(F::Connect));
    match cmd {
        "list" => {
            println!("available workloads:");
            for w in all_workloads() {
                println!("  {:<14} {}", w.name(), w.description());
            }
            return;
        }
        "serve" => serve_cmd(&a),
        _ => {}
    }
    let Some(&name) = positional.first() else {
        usage()
    };
    let second = positional.get(1).copied();
    match cmd {
        // `name` is the output path here.
        "synth" => synth_cmd(name, &a),
        "record" => record_cmd(name, second, &a),
        // `name` is the trace path here.
        "stream" => stream_cmd(name, &a),
        "analyze" => analyze(name, &a),
        #[cfg(feature = "sched")]
        "simtest" => simtest_cmd(name, &a),
        #[cfg(not(feature = "sched"))]
        "simtest" => refuse(
            "`loopcomm simtest` requires the `sched` feature, which the default \
             build leaves out (its instrumented atomics cost up to 3x throughput); \
             build with `--features sched`",
        ),
        _ => run(cmd, name, second, &a),
    }
}

/// `loopcomm record <workload> <file>`, or `--connect` to a server.
fn record_cmd(name: &str, path: Option<&str>, a: &Args) {
    let (run, t, faults) = (a.run(), Target::new(a), a.faults());
    let workload = workload(name, run.threads);
    if let (Some(_), Some(path)) = (&t.connect, path) {
        refuse(format_args!(
            "record writes `{path}` or streams to --connect, not both"
        ));
    }
    if let Some(addr) = &t.connect {
        // Live streaming: the same recording sink as a file, but
        // the writer thread ships v2 frames to a `loopcomm serve`
        // endpoint.
        let sink = Arc::new(
            lc_trace::NetSink::connect(addr, &t.tenant, t.frame_events, faults)
                .unwrap_or_else(|e| fail(format_args!("cannot connect to `{addr}`: {e}"))),
        );
        let ctx = TraceCtx::new(sink.clone(), run.threads);
        workload.run(&ctx, &run);
        streamed(sink.finish(), addr, &t.tenant);
        return;
    }
    let Some(path) = path else { usage() };
    // Segments hit disk as the run progresses, through a bounded
    // backlog: memory stays flat however long the run, and a crash
    // (or an injected I/O fault) loses at most the unwritten tail —
    // every whole segment stays salvageable.
    let sink = Arc::new(
        lc_trace::SpoolSink::create_with(std::path::Path::new(path), t.frame_events, faults)
            .unwrap_or_else(|e| fail(format_args!("cannot start spool `{path}`: {e}"))),
    );
    let ctx = TraceCtx::new(sink.clone(), run.threads);
    workload.run(&ctx, &run);
    match sink.finish() {
        Ok(stats) => println!(
            "spooled {} events in {} frames ({} bytes, format v3) -> {path}",
            stats.events, stats.frames, stats.bytes
        ),
        Err(e) => {
            eprintln!("error: trace spool failed: {e}");
            eprintln!(
                "hint: completed segments survive — \
                 `loopcomm analyze {path} --salvage`"
            );
            std::process::exit(1);
        }
    }
}

/// `loopcomm stream <file> --connect ADDR` — replay a recorded trace to
/// a server.
fn stream_cmd(name: &str, a: &Args) {
    let t = Target::new(a);
    let Some(addr) = &t.connect else {
        refuse("`loopcomm stream` needs --connect HOST:PORT (or unix:<path>)");
    };
    let trace = load_or_salvage(name, a.on(F::Salvage));
    let sent = lc_trace::stream_trace(&trace, addr, &t.tenant, t.frame_events, a.faults());
    streamed(sent, addr, &t.tenant);
}

/// Report how a stream to a server ended; a failed one exits 1.
fn streamed<E: std::fmt::Display>(
    sent: Result<lc_trace::StreamStats, E>,
    addr: &str,
    tenant: &str,
) {
    match sent {
        Ok(stats) => println!(
            "streamed {} events in {} frames ({} bytes) as tenant `{tenant}` -> {addr}",
            stats.events, stats.frames, stats.bytes
        ),
        Err(e) => {
            eprintln!("error: stream failed: {e}");
            eprintln!(
                "hint: whole frames already sent were analyzed; \
                 the server's /tenants/{tenant}/stats counts the loss"
            );
            std::process::exit(1);
        }
    }
}

/// The `<workload>` commands other than `record`; `report` writes its
/// HTML to `html`.
fn run(cmd: &str, name: &str, html: Option<&str>, a: &Args) {
    let (run, sig) = (a.run(), Sig::new(a));
    let threads = run.threads;
    let window = a.int(F::Window, 2000);
    match cmd {
        "profile" => {
            let (p, _ctx) = profile(name, &run, &sig, None);
            let r = p.report();
            println!("workload            : {name}");
            println!("threads             : {threads}");
            println!("accesses            : {}", r.accesses);
            println!("RAW dependencies    : {}", r.dependencies);
            println!(
                "profiler memory     : {}",
                lc_profiler::report::fmt_bytes(r.memory_bytes as u64)
            );
            let health = p.signature_health();
            println!(
                "signature health    : {:.1}% slot aliasing (~{:.0} written addrs)",
                health.write_aliasing * 100.0,
                health.est_written_addresses
            );
            if health.needs_more_slots() {
                println!(
                    "                      warning: rerun with --slots {} for <5% aliasing",
                    health.suggested_slots(0.05).min(MAX_SLOTS)
                );
            }
            println!("\ncommunication matrix (bytes):\n{}", r.global.heatmap());
            if let Some(path) = a.text(F::Metrics) {
                write_metrics(&path, &p.metrics_with_health(&health));
            }
        }
        "nested" => {
            let (p, ctx) = profile(name, &run, &sig, None);
            let r = p.report();
            let nested = NestedReport::build(ctx.loops(), &r.per_loop, threads);
            println!("{}", nested.render(4));
            let bad = lc_profiler::verify_sum_invariant(&nested);
            assert!(bad.is_empty(), "sum invariant violated: {bad:?}");
        }
        "load" => {
            let (p, ctx) = profile(name, &run, &sig, None);
            let r = p.report();
            let nested = NestedReport::build(ctx.loops(), &r.per_loop, threads);
            for (node, total) in nested.hotspots().into_iter().take(3) {
                if total == 0 {
                    break;
                }
                let load = ThreadLoad::from_matrix(&node.aggregate);
                println!("hotspot `{}` ({} B):", node.name, total);
                println!("{}", load.render());
                println!(
                    "imbalance {:.2}  active {}/{}\n",
                    load.imbalance(),
                    load.active_threads(0.05),
                    threads
                );
            }
        }
        "classify" => {
            if a.on(F::Coherence) {
                // Extended 13-feature classification: the RAW matrix alone
                // cannot tell a false-sharing variant from its padded twin,
                // so both backends see the run.
                let (raw, rep) = profile_with_coherence(name, &run, a.geometry());
                let (inval, fs, loc) = rep.features();
                let feats = extract_extended(&raw, &CoherenceFeatures::new(inval, fs, loc));
                let train = synthetic_ext_dataset(rep.threads.max(8), 30, &[0.0, 0.05, 0.1], 1);
                let model = ExtNearestCentroid::train(&train);
                println!(
                    "pattern/sharing variant of `{name}`: {}",
                    model.predict(&feats)
                );
                println!(
                    "coherence features: invalidations/access {inval:.4}  \
                     false-sharing ratio {fs:.3}  transfer locality {loc:.3}"
                );
                return;
            }
            let (p, _ctx) = profile(name, &run, &sig, None);
            let train = synthetic_dataset(threads.max(8), 30, &[0.0, 0.05, 0.1], 1);
            let model = NearestCentroid::train(&train);
            println!(
                "dominant pattern class of `{name}`: {}",
                model.predict(&p.global_matrix())
            );
        }
        "map" => {
            let (p, _ctx) = profile(name, &run, &sig, None);
            let topo = MachineTopology::dual_socket_xeon();
            if threads > topo.cores() {
                refuse(format_args!(
                    "machine model has only {} cores",
                    topo.cores()
                ));
            }
            let m = p.global_matrix();
            let greedy = greedy_mapping(&m, &topo);
            println!(
                "identity cost : {}",
                ThreadMapping::identity(threads).cost(&m, &topo)
            );
            println!("greedy cost   : {}", greedy.cost(&m, &topo));
            println!("assignment    : {:?}", greedy.assignment);
        }
        "report" => {
            let Some(path) = html else { usage() };
            let (p, ctx) = profile(name, &run, &sig, Some(window));
            let html =
                lc_profiler::html_report(&format!("loopcomm: {name}"), &p.report(), ctx.loops());
            write_out("report", path, html);
            println!("wrote {path}");
        }
        "simulate" => {
            let topo = MachineTopology::dual_socket_xeon();
            if threads > topo.cores() {
                refuse(format_args!(
                    "machine model has only {} cores",
                    topo.cores()
                ));
            }
            let (raw, rep) = profile_with_coherence(name, &run, a.geometry());
            let line_accesses = rep.hits + rep.fills;
            println!(
                "MESI simulation of `{name}` ({} events, {} threads on 2x8 cores, \
                 {} B lines, {} KiB/core, {}-way):",
                rep.accesses,
                threads,
                rep.config.line_bytes,
                rep.config.cache_kib,
                rep.config.assoc
            );
            println!(
                "miss {:.1}%  fills {} (c2c {})  invalidations {}  transfers {} B\n",
                100.0 * rep.fills as f64 / line_accesses.max(1) as f64,
                rep.fills,
                rep.c2c_fills,
                rep.invalidations,
                rep.global.transfers.total()
            );
            // Caches are private and a placement puts one thread per core,
            // so the simulation is the same under every placement; only the
            // price of its producer→consumer transfers differs.
            let transfers = &rep.global.transfers;
            for (label, mapping) in [
                ("identity", ThreadMapping::identity(threads)),
                ("scrambled", ThreadMapping::scrambled(threads, 4242)),
                ("greedy", greedy_mapping(&raw, &topo)),
            ] {
                println!(
                    "{label:<10} cost {:>10}  cross-socket {} B",
                    mapping.cost(transfers, &topo),
                    mapping.remote(transfers, &topo)
                );
            }
        }
        "deps" => {
            let workload = workload(name, threads);
            let det = Arc::new(lc_profiler::FullDetector::new(
                threads,
                lc_profiler::DepConfig::all(),
            ));
            let ctx = TraceCtx::new(det.clone(), threads);
            workload.run(&ctx, &run);
            println!("inter-thread dependence taxonomy of `{name}` (bytes):\n");
            for kind in lc_profiler::DepKind::ALL {
                let m = det.matrix(kind);
                println!("{}: {} B total", kind.name(), m.total());
                if m.total() > 0 {
                    println!("{}", m.heatmap());
                }
            }
        }
        "hotsites" => {
            let workload = workload(name, threads);
            let counter = Arc::new(lc_trace::SiteCounter::new());
            let ctx = TraceCtx::new(counter.clone(), threads);
            workload.run(&ctx, &run);
            println!(
                "hottest access sites of `{name}` ({} events, {} sites):\n",
                counter.total(),
                counter.distinct_sites()
            );
            for (loc, t) in counter.hottest(15) {
                println!(
                    "{:>12} B  {:>9} r {:>9} w  {loc}",
                    t.bytes, t.reads, t.writes
                );
            }
        }
        "phases" => {
            let (p, _ctx) = profile(name, &run, &sig, Some(window));
            let r = p.report();
            let phases = r.phases(0.5).expect("phase tracking enabled");
            println!(
                "{} phase(s) over {} windows of {} dependencies:",
                phases.len(),
                r.phase_windows.as_ref().map(|w| w.len()).unwrap_or(0),
                window
            );
            for (i, ph) in phases.iter().enumerate() {
                println!(
                    "\nphase {i}: windows {}..{} ({} B)\n{}",
                    ph.start_window,
                    ph.end_window,
                    ph.matrix.total(),
                    ph.matrix.heatmap()
                );
            }
        }
        _ => usage(),
    }
}
