//! `loopcomm` — command-line front end to the profiler.
//!
//! ```text
//! loopcomm list
//! loopcomm profile  <workload> [--threads N] [--size simdev|simsmall|simlarge] [--slots 2^k]
//! loopcomm nested   <workload> [--threads N] [--size ...]
//! loopcomm load     <workload> [--threads N] [--size ...]
//! loopcomm classify <workload> [--threads N] [--size ...]
//! loopcomm map      <workload> [--threads N] [--size ...]
//! loopcomm phases   <workload> [--threads N] [--size ...] [--window W]
//! loopcomm report   <workload> <out.html> [--threads N] [--size ...]
//! loopcomm record   <workload> <file> [--threads N] [--size ...] [--frame-events N]
//! loopcomm record   <workload> --connect HOST:PORT [--tenant NAME]
//! loopcomm synth    <file> [--events N] [--threads N] [--seed S]
//! loopcomm analyze  <file> [--slots 2^k] [--jobs N] [--perfect] [--salvage]
//!                   [--checkpoint DIR [--every N]] [--resume DIR]
//!                   [--report-out P] [--metrics P]
//!                   [--coherence [--line-size N] [--cache-kib N] [--assoc N] [--coherence-out P]]
//! loopcomm serve    [--listen ADDR]... [--http ADDR] [--jobs N] [--perfect] [--coherence]
//!                   [--durable-dir DIR] [--tenant-idle-secs S] [--tenant-max-bytes B]
//! loopcomm stream   <file.lctrace> --connect HOST:PORT [--tenant NAME]
//! loopcomm simulate <workload> [--threads N] [--size ...] [--line-size N] [--cache-kib N] [--assoc N]
//! loopcomm hotsites <workload> [--threads N] [--size ...]
//! loopcomm deps     <workload> [--threads N] [--size ...]
//! loopcomm simtest  <scenario|all|list> [--explore N] [--seed S]
//!                   [--max-preemptions N|none] [--max-schedules N]
//!                   [--mutant NAME] [--trace-out PATH]
//! ```
//!
//! `analyze` has one route whatever the flags: the file is opened as a
//! `FileBlockSource` (a v3 spool is read one segment at a time with
//! positioned reads, so RSS stays bounded; v1/v2 files and `--salvage`
//! output are loaded once and streamed as zero-copy blocks) and every
//! block goes through one `loopcomm::Pipeline`: the `IncrementalAnalyzer`
//! and, under `--coherence`, the MESI backend split by cache set across
//! the host's cores.
//! `--mmap` is accepted and changes nothing.
//!
//! Every file a command writes is a v3 spool plus its `.idx` side-car,
//! streamed as it is produced: `record` through `SpoolSink`'s writer
//! thread, `synth` segment by segment. No command holds a whole trace in
//! memory to write it. `analyze`, `stream` and `--salvage` still read
//! v1 and v2 files.

use std::sync::Arc;

use lc_profiler::classify::{
    extract_extended, synthetic_dataset, synthetic_ext_dataset, CoherenceFeatures,
    ExtNearestCentroid, NearestCentroid,
};
use lc_profiler::{greedy_mapping, MachineTopology, NestedReport, ThreadMapping};
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

struct Options {
    threads: usize,
    size: InputSize,
    slots: usize,
    window: u64,
    seed: u64,
    loop_capacity: usize,
    metrics: Option<String>,
    salvage: bool,
    jobs: usize,
    /// `synth`: probability in [0,1] that an event reuses an address
    /// from a small hot set instead of the uniform working set.
    addr_reuse: f64,
    /// `synth`: distinct 8-byte addresses in the uniform working set.
    working_set: u64,
    perfect: bool,
    /// `serve`: ingest endpoints (`unix:<path>` or TCP `host:port`).
    listen: Vec<String>,
    /// `serve`: HTTP endpoint for reports/metrics.
    http: Option<String>,
    /// `record`/`stream`: stream to a `loopcomm serve` endpoint instead
    /// of a file.
    connect: Option<String>,
    /// `record --connect`/`stream`: tenant name sent in the hello.
    tenant: String,
    /// `record`/`stream`/`synth`: events per spool segment or wire frame.
    frame_events: usize,
    /// `serve`: frame buffers per tenant.
    queue_frames: usize,
    /// `serve`: concurrent ingest connection limit.
    max_conns: usize,
    /// `serve`: tenant limit.
    max_tenants: usize,
    /// `analyze`: also write the canonical plain-text report here (the
    /// byte-identical counterpart of the server's `/tenants/<t>/report`).
    report_out: Option<String>,
    /// `analyze`: checkpoint directory — the analyzer writes a
    /// crash-resumable snapshot there every `--every` events.
    checkpoint: Option<String>,
    /// `analyze --checkpoint`: events between checkpoints.
    every: u64,
    /// `analyze`: resume from the checkpoint in this directory.
    resume: Option<String>,
    /// `synth`: events to generate.
    events: u64,
    /// `serve`: root directory for durable tenant state (spill spools +
    /// checkpoints). Enables restart/eviction recovery.
    durable_dir: Option<String>,
    /// `serve`: evict tenants idle for this many seconds (0 = never).
    tenant_idle_secs: u64,
    /// `serve`: per-tenant analyzer memory cap in bytes (0 = uncapped).
    tenant_max_bytes: usize,
    /// `analyze`/`serve`/`classify`: also run the MESI coherence backend
    /// (per-loop invalidation/transfer/bus matrices, false-sharing
    /// detection).
    coherence: bool,
    /// Coherence geometry: cache-line size in bytes.
    line_size: u64,
    /// Coherence geometry: per-core private cache capacity in KiB.
    cache_kib: u64,
    /// Coherence geometry: set associativity.
    assoc: usize,
    /// `analyze --coherence`: also write the canonical plain-text
    /// coherence report here (byte-identical across `--jobs`).
    coherence_out: Option<String>,
    /// Hidden test hook: a fault-plan file armed on the trace writers,
    /// the network seams and the checkpoint writer (see `lc_faults`).
    /// Deliberately absent from the usage text — it exists for the
    /// fault-matrix tests and for reproducing failures, not for routine
    /// profiling.
    fault_plan: Option<String>,
    #[cfg(feature = "sched")]
    sim: SimtestOptions,
}

/// Options specific to `loopcomm simtest` (the model-checking harness).
#[cfg(feature = "sched")]
#[derive(Default)]
struct SimtestOptions {
    /// `--explore N`: run N seeded random schedules instead of the
    /// default bounded-exhaustive DFS.
    explore: Option<u64>,
    /// `--max-preemptions N|none`: override the scenario's suggested
    /// preemption bound. Outer `None` = use the scenario default;
    /// `Some(None)` = unbounded.
    preemptions: Option<Option<usize>>,
    /// `--max-schedules N`: exhaustive-exploration safety valve.
    max_schedules: Option<u64>,
    /// `--mutant NAME` (repeatable): activate seeded mutants inside the
    /// simulation — the harness is then expected to FIND a violation.
    mutants: Vec<String>,
    /// `--trace-out PATH`: append failing decision traces here (one
    /// `scenario=...;choices=...` line each) for artifact upload.
    trace_out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
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
         options:\n\
         \x20 --threads N      worker threads, 1..=1024 (default 8)\n\
         \x20 --size S         simdev | simsmall | simlarge (default simsmall)\n\
         \x20 --slots K        signature slots (default 1048576)\n\
         \x20 --window W       phase window in dependencies (default 2000)\n\
         \x20 --seed S         workload RNG seed (default 42)\n\
         \x20 --loop-capacity K  loop-matrix registry capacity (default 1024)\n\
         \x20 --metrics PATH   (profile, analyze) write run metrics;\n\
         \x20                  `.json` gets JSON, anything else Prometheus text\n\
         \x20 --salvage        (analyze) recover the longest valid prefix of\n\
         \x20                  a truncated or corrupted trace instead of failing\n\
         \x20 --jobs N         (analyze) slot-sharded analyzer workers\n\
         \x20                  (default 1; results identical; --coherence\n\
         \x20                  shards by cache set over the host's cores\n\
         \x20                  whatever --jobs says)\n\
         \x20 --perfect        (analyze, serve) exact perfect-signature\n\
         \x20                  baseline detector instead of the asymmetric\n\
         \x20                  signatures\n\
         \x20 --coherence      (analyze, serve, classify) also run the MESI\n\
         \x20                  coherence backend: per-loop invalidation,\n\
         \x20                  cache-to-cache transfer, and bus-traffic\n\
         \x20                  matrices plus false-sharing detection\n\
         \x20 --line-size N    (coherence, simulate) cache-line bytes, a power\n\
         \x20                  of two in 16..=512 (default 64)\n\
         \x20 --cache-kib N    (coherence, simulate) per-core cache KiB, a\n\
         \x20                  power of two in 1..=65536 (default 16)\n\
         \x20 --assoc N        (coherence, simulate) set associativity, a\n\
         \x20                  power of two in 1..=64 (default 4)\n\
         \x20 --coherence-out P  (analyze --coherence) write the canonical\n\
         \x20                  coherence report — byte-identical for any\n\
         \x20                  --jobs value and core count\n\
         \x20 --report-out P   (analyze) also write the canonical plain-text\n\
         \x20                  report — byte-identical to the server's\n\
         \x20                  /tenants/<t>/report on the same events\n\
         \x20 --checkpoint DIR (analyze) write a crash-resumable snapshot\n\
         \x20                  (signatures, matrices, replay cursor) to DIR\n\
         \x20                  every --every events\n\
         \x20 --every N        (analyze --checkpoint) events between\n\
         \x20                  checkpoints, at least 1 (default 1000000)\n\
         \x20 --resume DIR     (analyze) resume from DIR's checkpoint; the\n\
         \x20                  final report is byte-identical to an\n\
         \x20                  uninterrupted run\n\
         \x20 --mmap           (analyze) accepted, no effect: every analyze\n\
         \x20                  streams, and a v3 spool is always read one\n\
         \x20                  segment at a time (bounded RSS even for\n\
         \x20                  spools larger than RAM)\n\
         \x20 --events N       (synth) events to generate (default 1000000)\n\
         \x20 --addr-reuse P   (synth) probability an event reuses a hot\n\
         \x20                  address (64-entry hot set; default 0.0)\n\
         \x20 --working-set N  (synth) distinct 8-byte addresses in the\n\
         \x20                  uniform working set (default 65536)\n\
         \x20 --durable-dir D  (serve) spill + checkpoint tenants under D;\n\
         \x20                  restart and eviction resume from disk\n\
         \x20 --tenant-idle-secs S  (serve) evict tenants idle >= S seconds\n\
         \x20                  through the checkpoint path (0 = never)\n\
         \x20 --tenant-max-bytes B  (serve) evict a tenant whose analyzer\n\
         \x20                  exceeds B bytes (0 = uncapped)\n\
         \x20 --listen ADDR    (serve, repeatable) ingest endpoint:\n\
         \x20                  `host:port` or `unix:<path>`\n\
         \x20                  (default 127.0.0.1:9009)\n\
         \x20 --http ADDR      (serve) HTTP endpoint for live reports,\n\
         \x20                  matrices, and Prometheus /metrics\n\
         \x20 --queue-frames N (serve) frame buffers per tenant, sent and not\n\
         \x20                  yet analysed, 1..=65536 (default 64)\n\
         \x20 --max-conns N    (serve) connection limit, 1..=4096 (default 64)\n\
         \x20 --max-tenants N  (serve) tenant limit, 1..=1024 (default 64)\n\
         \x20 --connect ADDR   (record, stream) stream to a server instead\n\
         \x20                  of writing a file\n\
         \x20 --tenant NAME    (record, stream) tenant to stream as\n\
         \x20                  (default `default`)\n\
         \x20 --frame-events N (record, stream, synth) events per spool\n\
         \x20                  segment or wire frame, 1..=16777216\n\
         \x20                  (default 4096)\n\
         \x20 --explore N      (simtest) N seeded random schedules instead of\n\
         \x20                  bounded-exhaustive DFS (seeded by --seed)\n\
         \x20 --max-preemptions N|none  (simtest) preemption bound override\n\
         \x20 --max-schedules N  (simtest) exhaustive-exploration safety valve\n\
         \x20 --mutant NAME    (simtest, repeatable) arm a seeded mutant; the\n\
         \x20                  run then must FIND a violation (exit 1)\n\
         \x20 --trace-out PATH (simtest) append failing decision traces here"
    );
    std::process::exit(2);
}

fn parse_options(args: &[String]) -> Options {
    let mut o = Options {
        threads: 8,
        size: InputSize::SimSmall,
        slots: 1 << 20,
        window: 2000,
        seed: 42,
        loop_capacity: 1024,
        metrics: None,
        salvage: false,
        jobs: 1,
        addr_reuse: 0.0,
        working_set: 65_536,
        perfect: false,
        listen: Vec::new(),
        http: None,
        connect: None,
        tenant: "default".to_string(),
        frame_events: lc_trace::DEFAULT_FRAME_EVENTS,
        queue_frames: 64,
        max_conns: 64,
        max_tenants: 64,
        report_out: None,
        checkpoint: None,
        every: 1_000_000,
        resume: None,
        events: 1_000_000,
        durable_dir: None,
        tenant_idle_secs: 0,
        tenant_max_bytes: 0,
        coherence: false,
        line_size: 64,
        cache_kib: 16,
        assoc: 4,
        coherence_out: None,
        fault_plan: None,
        #[cfg(feature = "sched")]
        sim: SimtestOptions::default(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("missing value for {a}");
                    std::process::exit(2);
                })
                .clone()
        };
        match a.as_str() {
            "--threads" => o.threads = parse_in_range(a, &val(), 1..=MAX_ANALYZE_THREADS as usize),
            "--slots" => o.slots = parse_in_range(a, &val(), 1..=MAX_SLOTS),
            "--window" => o.window = parse_in_range(a, &val(), 1..),
            "--seed" => o.seed = parse_value(a, &val()),
            "--loop-capacity" => o.loop_capacity = parse_in_range(a, &val(), 1..=MAX_LOOP_CAPACITY),
            "--metrics" => o.metrics = Some(val()),
            "--spool" | "--v3" => removed_flag(a, "`record` and `synth` always stream a v3 spool"),
            "--salvage" => o.salvage = true,
            "--jobs" => o.jobs = parse_in_range(a, &val(), 1..=lc_profiler::MAX_JOBS),
            "--batch" => removed_flag(
                a,
                "RAM-loaded input is analysed in 1024-event blocks, with results that never depended on the size",
            ),
            "--no-coalesce" => removed_flag(a, "`analyze` never coalesces"),
            "--fused" | "--no-fused" => removed_flag(a, "`analyze` always runs the fused engine"),
            "--no-skip-filter" => {
                eprintln!(
                    "error: --no-skip-filter was removed in PR 24: the fused engine no \
                     longer has a skip filter"
                );
                std::process::exit(2);
            }
            "--addr-reuse" => {
                let raw = val();
                let v: f64 = raw.parse().unwrap_or_else(|_| {
                    eprintln!("error: --addr-reuse expects a probability, got `{raw}`");
                    std::process::exit(2);
                });
                if !(0.0..=1.0).contains(&v) {
                    eprintln!("error: --addr-reuse must be in 0.0..=1.0 (got {v})");
                    std::process::exit(2);
                }
                o.addr_reuse = v;
            }
            "--working-set" => {
                let raw = val();
                let v: u64 = raw.parse().unwrap_or_else(|_| {
                    eprintln!("error: --working-set expects an integer, got `{raw}`");
                    std::process::exit(2);
                });
                if v == 0 {
                    eprintln!("error: --working-set must be >= 1");
                    std::process::exit(2);
                }
                o.working_set = v;
            }
            "--perfect" => o.perfect = true,
            "--listen" => o.listen.push(val()),
            "--http" => o.http = Some(val()),
            "--connect" => o.connect = Some(val()),
            "--tenant" => o.tenant = val(),
            "--frame-events" => {
                o.frame_events = parse_in_range(a, &val(), 1..=lc_trace::MAX_FRAME_EVENTS)
            }
            "--queue-frames" => o.queue_frames = parse_in_range(a, &val(), 1..=MAX_QUEUE_FRAMES),
            "--max-conns" => o.max_conns = parse_in_range(a, &val(), 1..=MAX_CONNS),
            "--max-tenants" => o.max_tenants = parse_in_range(a, &val(), 1..=MAX_TENANTS),
            "--report-out" => o.report_out = Some(val()),
            "--checkpoint" => o.checkpoint = Some(val()),
            "--every" => o.every = parse_in_range(a, &val(), 1..),
            "--resume" => o.resume = Some(val()),
            // Accepted, no effect: every `analyze` streams a v3 spool one
            // segment at a time. It stays because `lcbench` passes it.
            "--mmap" => {}
            "--events" => o.events = parse_value(a, &val()),
            "--durable-dir" => o.durable_dir = Some(val()),
            "--tenant-idle-secs" => o.tenant_idle_secs = parse_value(a, &val()),
            "--tenant-max-bytes" => o.tenant_max_bytes = parse_value(a, &val()),
            "--coherence" => o.coherence = true,
            "--line-size" => o.line_size = parse_geometry(a, &val()),
            "--cache-kib" => o.cache_kib = parse_geometry(a, &val()),
            "--assoc" => o.assoc = parse_geometry(a, &val()) as usize,
            "--coherence-out" => o.coherence_out = Some(val()),
            "--fault-plan" => o.fault_plan = Some(val()),
            #[cfg(feature = "sched")]
            "--explore" => o.sim.explore = Some(parse_value(a, &val())),
            #[cfg(feature = "sched")]
            "--max-preemptions" => {
                let v = val();
                o.sim.preemptions = Some(if v == "none" {
                    None
                } else {
                    Some(parse_value(a, &v))
                });
            }
            #[cfg(feature = "sched")]
            "--max-schedules" => o.sim.max_schedules = Some(parse_value(a, &val())),
            #[cfg(feature = "sched")]
            "--mutant" => o.sim.mutants.push(val()),
            #[cfg(feature = "sched")]
            "--trace-out" => o.sim.trace_out = Some(val()),
            "--size" => {
                o.size = match val().as_str() {
                    "simdev" => InputSize::SimDev,
                    "simsmall" => InputSize::SimSmall,
                    "simlarge" => InputSize::SimLarge,
                    other => {
                        eprintln!("unknown size `{other}`");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!("unknown option `{other}`");
                usage();
            }
        }
    }
    // Cache geometry is validated at parse time — a bad `--line-size`
    // must be a clean usage error, not a panic inside `CacheConfig`
    // after minutes of trace loading.
    if let Err(e) = coherence_config(&o).validate() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    o
}

/// A flag whose path was deleted: a usage error with a one-line hint,
/// raised before any input is opened or output written.
fn removed_flag(flag: &str, hint: &str) -> ! {
    eprintln!("error: {flag} was removed: {hint}");
    std::process::exit(2);
}

/// Parse the value of a plain numeric flag; anything unparseable is a
/// usage error naming the flag, never a panic.
fn parse_value<T: std::str::FromStr>(flag: &str, raw: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("error: invalid value `{raw}` for {flag}");
        std::process::exit(2);
    })
}

/// Parse a numeric flag that must lie in `range`: a value outside it is a
/// usage error naming the flag and the range, not a panic deeper in.
fn parse_in_range<T, R>(flag: &str, raw: &str, range: R) -> T
where
    T: std::str::FromStr + PartialOrd + std::fmt::Display,
    R: std::ops::RangeBounds<T> + std::fmt::Debug,
{
    let v = parse_value(flag, raw);
    if !range.contains(&v) {
        eprintln!("error: {flag} must be in {range:?} (got {v})");
        std::process::exit(2);
    }
    v
}

/// Parse an integer value for one of the coherence geometry flags.
/// Range/power-of-two checks happen later in [`CoherenceConfig::validate`];
/// this only rejects non-numbers with the flag's name in the message.
fn parse_geometry(flag: &str, raw: &str) -> u64 {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("error: {flag} expects an integer, got `{raw}`");
        std::process::exit(2);
    })
}

/// The coherence geometry the CLI flags describe.
fn coherence_config(o: &Options) -> lc_cachesim::CoherenceConfig {
    lc_cachesim::CoherenceConfig {
        line_bytes: o.line_size,
        cache_kib: o.cache_kib,
        assoc: o.assoc,
    }
}

/// Arm the hidden `--fault-plan` file, if one was given. Parse errors and
/// unreadable files are usage errors (exit 2), not degraded runs.
fn fault_injector(o: &Options) -> Option<Arc<lc_faults::FaultInjector>> {
    o.fault_plan.as_ref().map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read fault plan `{path}`: {e}");
            std::process::exit(2);
        });
        let plan = lc_faults::FaultPlan::parse(&text).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        Arc::new(lc_faults::FaultInjector::new(plan))
    })
}

/// Look up workload `name` and check it can run on `--threads`, so a
/// thread count the kernel cannot use is a usage error, not a panic.
fn workload(name: &str, o: &Options) -> Box<dyn Workload> {
    let w = by_name(name).unwrap_or_else(|| {
        eprintln!("unknown workload `{name}` — try `loopcomm list`");
        std::process::exit(2);
    });
    if o.threads < w.min_threads() {
        eprintln!(
            "error: `{name}` needs --threads {} or more (got {})",
            w.min_threads(),
            o.threads
        );
        std::process::exit(2);
    }
    w
}

fn profile(
    name: &str,
    o: &Options,
    phase_window: Option<u64>,
) -> (Arc<AsymmetricProfiler>, Arc<TraceCtx>) {
    let workload = workload(name, o);
    let sig = SignatureConfig::paper_default(o.slots, o.threads)
        .try_build()
        .unwrap_or_else(|e| pipeline_failed(&PipelineError::Table(e)));
    let profiler = Arc::new(AsymmetricProfiler::from_detector_with(
        lc_profiler::RawDetector::new(sig),
        lc_profiler::ProfilerConfig {
            threads: o.threads,
            track_nested: true,
            phase_window,
        },
        lc_profiler::AccumConfig {
            loop_capacity: o.loop_capacity,
        },
    ));
    let ctx = TraceCtx::new(profiler.clone(), o.threads);
    workload.run(&ctx, &RunConfig::new(o.threads, o.size, o.seed));
    if let Some(e) = profiler.registry_overflow() {
        registry_full_error(e, o.loop_capacity);
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

/// The RAW detector the options select.
fn detector(o: &Options) -> lc_profiler::DetectorKind {
    if o.perfect {
        lc_profiler::DetectorKind::Perfect
    } else {
        lc_profiler::DetectorKind::Asymmetric
    }
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

/// Write a metrics registry to `path`: `.json` selects the JSON exposition,
/// anything else the Prometheus text form.
fn write_metrics(path: &str, reg: &lc_profiler::MetricsRegistry) {
    let body = if path.ends_with(".json") {
        reg.to_json()
    } else {
        reg.to_prometheus()
    };
    std::fs::write(path, body).unwrap_or_else(|e| {
        eprintln!("cannot write metrics to `{path}`: {e}");
        std::process::exit(1);
    });
    println!("wrote metrics       : {path}");
}

/// `loopcomm simtest <scenario|all|list>` — deterministic model checking
/// of the concurrency core (see DESIGN.md §11). Exhaustive bounded DFS by
/// default, `--explore N` for seeded random schedules; prints per-scenario
/// schedule counts and, on a violation, the (minimized) decision trace.
/// Exits 1 if any scenario's oracle is violated.
#[cfg(feature = "sched")]
fn simtest_cmd(name: &str, o: &Options) {
    use loopcomm::simtest;

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
            eprintln!("unknown scenario `{name}` — try `loopcomm simtest list`");
            std::process::exit(2);
        })]
    };

    let mut violated = false;
    for s in scenarios {
        let defaults = lc_sched::SimConfig::default();
        let cfg = lc_sched::SimConfig {
            max_preemptions: o.sim.preemptions.unwrap_or(s.default_preemption_bound),
            max_schedules: o.sim.max_schedules.unwrap_or(defaults.max_schedules),
            mutants: o.sim.mutants.clone(),
            ..defaults
        };
        let bound = match cfg.max_preemptions {
            Some(p) => format!("preemption bound {p}"),
            None => "unbounded".to_string(),
        };
        let explorer = lc_sched::Explorer::new(cfg);
        let (mode, report) = match o.sim.explore {
            Some(n) => (
                format!("random x{n} (seed {})", o.seed),
                explorer.explore_random(o.seed, n, || s.run()),
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
            if let Some(path) = &o.sim.trace_out {
                use std::io::Write as _;
                let mut f = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .unwrap_or_else(|e| {
                        eprintln!("cannot open trace file `{path}`: {e}");
                        std::process::exit(1);
                    });
                let repro = v.minimized.as_ref().unwrap_or(&v.trace);
                writeln!(
                    f,
                    "scenario={};kind={:?};{}",
                    s.name,
                    v.kind,
                    repro.to_line()
                )
                .expect("write trace line");
                println!("  wrote repro trace -> {path}");
            }
        }
    }
    if violated {
        std::process::exit(1);
    }
    if !o.sim.mutants.is_empty() {
        // An armed mutant that no oracle catches is itself a harness
        // defect; make the run loudly distinguishable from a clean one.
        println!(
            "note: mutant(s) [{}] armed but no violation found",
            o.sim.mutants.join(", ")
        );
    }
}

/// Load a recorded trace for `analyze`/`stream`, honoring `--salvage`.
fn load_or_salvage(name: &str, o: &Options) -> lc_trace::Trace {
    if o.salvage {
        let (trace, rep) =
            lc_trace::salvage_trace(std::path::Path::new(name)).unwrap_or_else(|e| {
                eprintln!("cannot salvage `{name}`: {e}");
                std::process::exit(1);
            });
        println!(
            "salvage: format v{}, {} frame(s), {} event(s) recovered, {} byte(s) dropped",
            rep.version, rep.frames, rep.events, rep.bytes_dropped
        );
        trace
    } else {
        lc_trace::load_trace(std::path::Path::new(name)).unwrap_or_else(|e| {
            eprintln!("cannot read `{name}`: {e}");
            eprintln!("hint: `--salvage` recovers what is intact");
            std::process::exit(1);
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
                eprintln!("error: cannot scan spool for thread count: {e}");
                std::process::exit(1);
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
        eprintln!(
            "error: trace uses thread id {}; `analyze` supports thread ids below \
             {MAX_ANALYZE_THREADS} (matrices are dense in max tid + 1)",
            threads - 1
        );
        std::process::exit(1);
    }
    threads as usize
}

/// Resume must run with the configuration the checkpoint echoes —
/// anything else would silently change the analysis semantics mid-trace.
fn check_resume_config(cp: &lc_profiler::Checkpoint, o: &Options, jobs: usize) {
    let want_kind = if o.perfect {
        lc_profiler::DetectorKind::Perfect
    } else {
        lc_profiler::DetectorKind::Asymmetric
    };
    if cp.kind != want_kind {
        eprintln!(
            "error: checkpoint was taken with the {:?} detector; rerun {} --perfect",
            cp.kind,
            if o.perfect { "without" } else { "with" }
        );
        std::process::exit(2);
    }
    if cp.jobs != jobs {
        eprintln!(
            "error: checkpoint was taken with --jobs {}; resume with the same value",
            cp.jobs
        );
        std::process::exit(2);
    }
    if let Some(sig) = &cp.sig {
        if sig.n_slots != o.slots {
            eprintln!(
                "error: checkpoint was taken with --slots {}; resume with the same value",
                sig.n_slots
            );
            std::process::exit(2);
        }
    }
}

/// `loopcomm analyze <file>` — the one analysis route. Blocks borrowed
/// from a [`lc_trace::FileBlockSource`] feed the same
/// [`loopcomm::Pipeline`] every server tenant drives, so profiler
/// memory follows Eq. 2 (signatures + matrices) whatever the trace
/// length; `--checkpoint`/`--resume` make the run crash-resumable.
fn analyze(name: &str, o: &Options) {
    use lc_trace::{BlockSource, EventBlock, FileBlockSource};

    let faults = fault_injector(o);
    let jobs = o.jobs;

    let mut source = if o.salvage {
        FileBlockSource::Ram(load_or_salvage(name, o))
    } else {
        FileBlockSource::open(std::path::Path::new(name)).unwrap_or_else(|e| {
            eprintln!("cannot read `{name}`: {e}");
            eprintln!("hint: `--salvage` recovers what is intact");
            std::process::exit(1);
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
    let cfg = loopcomm::PipelineConfig {
        detector: detector(o),
        sig: SignatureConfig::paper_default(o.slots, threads),
        prof: lc_profiler::ProfilerConfig {
            threads,
            track_nested: true,
            phase_window: None,
        },
        accum: lc_profiler::AccumConfig {
            loop_capacity: o.loop_capacity,
        },
        jobs,
        coherence: o.coherence.then(|| coherence_config(o)),
        coherence_shards: lc_cachesim::ShardedCoherence::shard_count(coherence_config(o), cores),
    };

    // Resume, if a usable checkpoint exists. A missing or corrupt
    // checkpoint degrades to a from-scratch run (with a warning), never a
    // wrong one — the CRC rules out trusting torn state. A checkpoint of
    // another format version is an error (exit 1).
    let mut restored = None;
    if let Some(dir) = &o.resume {
        let cp_file = lc_profiler::checkpoint_path(std::path::Path::new(dir));
        match lc_profiler::Checkpoint::load(&cp_file) {
            Ok(cp) => {
                check_resume_config(&cp, o, jobs);
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
                eprintln!("error: {e} in `{dir}`");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("warning: unusable checkpoint in `{dir}` ({e}); starting from scratch")
            }
        }
    }
    let mut pipe = restored
        .unwrap_or_else(|| loopcomm::Pipeline::new(&cfg).unwrap_or_else(|e| pipeline_failed(&e)));

    let cp_dir = o.checkpoint.as_deref().map(std::path::Path::new);
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
    if o.coherence && start > 0 {
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
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        if let Some(dir) = cp_dir {
            if pipe.analyzer().events() - last_cp >= o.every {
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
    .unwrap_or_else(|e| {
        eprintln!("error: replay failed: {e}");
        std::process::exit(1);
    });
    // Always leave a final checkpoint: a completed run is itself
    // resumable, and resume-after-complete replays nothing.
    if let Some(dir) = cp_dir {
        write_checkpoint(&pipe, dir);
    }
    if let Some(e) = pipe.analyzer().overflow() {
        registry_full_error(e, o.loop_capacity);
    }
    // The coherence report is merged and rendered here, ahead of the
    // metrics that time it; it is printed last, as always.
    let t0 = std::time::Instant::now();
    let shards = pipe.coherence_shards().unwrap_or(0);
    let (analyzer, coherence) = pipe.finish().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let coherence = coherence.map(|rep| {
        if let Some(e) = rep.loop_overflow {
            registry_full_error(e, o.loop_capacity);
        }
        let body =
            (o.coherence_out.as_ref()).map(|_| lc_cachesim::canonical_coherence_report(&rep));
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
    if let Some(path) = &o.metrics {
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
        write_metrics(path, &reg);
    }
    if let Some(path) = &o.report_out {
        // Canonical plain-text form: byte-identical to what a
        // `loopcomm serve` tenant reports for the same events, whatever
        // the input format, --jobs or checkpoint/resume history.
        let body = lc_profiler::canonical_report(&r, analyzer.events());
        std::fs::write(path, body).unwrap_or_else(|e| {
            eprintln!("cannot write report to `{path}`: {e}");
            std::process::exit(1);
        });
        println!("wrote canonical report: {path}");
    }
    if let Some((rep, body, _)) = coherence {
        print_coherence(&rep, shards, body, o);
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
    o: &Options,
) -> (lc_profiler::DenseMatrix, lc_cachesim::CoherenceReport) {
    let workload = workload(name, o);
    let threads =
        loopcomm::pipeline::coherence_threads(o.threads).unwrap_or_else(|e| pipeline_failed(&e));
    let coh = Arc::new(lc_cachesim::SharedCoherence::new(
        lc_cachesim::CoherenceBackend::new(coherence_config(o), threads),
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
    workload.run(&ctx, &RunConfig::new(threads, o.size, o.seed));
    (prof.global_matrix(), coh.report())
}

/// Print a [`lc_cachesim::CoherenceReport`] and write its canonical
/// form, `body`, to `--coherence-out`.
fn print_coherence(
    rep: &lc_cachesim::CoherenceReport,
    shards: usize,
    body: Option<String>,
    o: &Options,
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
    if let (Some(path), Some(body)) = (&o.coherence_out, body) {
        std::fs::write(path, body).unwrap_or_else(|e| {
            eprintln!("cannot write coherence report to `{path}`: {e}");
            std::process::exit(1);
        });
        println!("wrote coherence report: {path}");
    }
}

use lc_trace::synth_event;

/// `loopcomm synth <file>` — stream a deterministic synthetic v3 spool
/// to disk without ever materializing it in memory, so CI can fabricate
/// spools far larger than RAM for the out-of-core replay checks.
fn synth_cmd(name: &str, o: &Options) {
    let threads = o.threads as u32;
    let frame = o.frame_events;
    let mut buf: Vec<lc_trace::StampedEvent> = Vec::with_capacity(frame);
    let mut i = 0u64;
    let mut w = lc_trace::SpoolV3Writer::create_with(std::path::Path::new(name), fault_injector(o))
        .unwrap_or_else(|e| {
            eprintln!("cannot create `{name}`: {e}");
            std::process::exit(1);
        });
    while i < o.events {
        buf.clear();
        while buf.len() < frame && i < o.events {
            buf.push(synth_event(i, o.seed, threads, o.working_set, o.addr_reuse));
            i += 1;
        }
        w.append_frame(&buf).unwrap_or_else(|e| {
            eprintln!("error: spool write failed: {e}");
            std::process::exit(1);
        });
    }
    let stats = w.finish().unwrap_or_else(|e| {
        eprintln!("error: spool finish failed: {e}");
        std::process::exit(1);
    });
    println!(
        "synthesized {} event(s) in {} frame(s) ({} bytes, format v3) -> {name}",
        stats.events, stats.frames, stats.bytes
    );
}

/// `loopcomm serve` — start the streaming multi-tenant ingest service
/// and run until the process is killed (see DESIGN.md §13).
fn serve_cmd(o: &Options) -> ! {
    let listen = if o.listen.is_empty() {
        vec!["127.0.0.1:9009".to_string()]
    } else {
        o.listen.clone()
    };
    let cfg = loopcomm::serve::ServeConfig {
        listen,
        http: o.http.clone(),
        detector: detector(o),
        sig: SignatureConfig::paper_default(o.slots, o.threads),
        prof: lc_profiler::ProfilerConfig {
            threads: o.threads,
            track_nested: true,
            phase_window: None,
        },
        accum: lc_profiler::AccumConfig {
            loop_capacity: o.loop_capacity,
        },
        jobs: o.jobs,
        queue_frames: o.queue_frames,
        max_conns: o.max_conns,
        max_tenants: o.max_tenants,
        faults: fault_injector(o),
        durable_dir: o.durable_dir.as_ref().map(std::path::PathBuf::from),
        tenant_idle: (o.tenant_idle_secs > 0)
            .then(|| std::time::Duration::from_secs(o.tenant_idle_secs)),
        tenant_max_bytes: o.tenant_max_bytes,
        coherence: o.coherence.then(|| coherence_config(o)),
    };
    if cfg.durable_dir.is_none() && (cfg.tenant_idle.is_some() || cfg.tenant_max_bytes > 0) {
        eprintln!(
            "warning: --tenant-idle-secs/--tenant-max-bytes need --durable-dir \
             (eviction checkpoints to disk); ignoring"
        );
    }
    let server = loopcomm::serve::Server::start(cfg).unwrap_or_else(|e| {
        if let Some(e) = e.get_ref().and_then(|e| e.downcast_ref()) {
            pipeline_failed(e);
        }
        eprintln!("cannot start server: {e}");
        std::process::exit(1);
    });
    for addr in server.ingest_addrs() {
        println!("ingest : {addr}");
    }
    if let Some(addr) = server.http_addr() {
        println!(
            "http   : http://{addr}/  (/metrics, /tenants, /tenants/<t>/report{})",
            if o.coherence {
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
fn restore_default_sigpipe(args: &[String]) {
    use std::ffi::c_int;
    const SIGPIPE: c_int = 13;
    const SIG_DFL: usize = 0;
    extern "C" {
        fn signal(signum: c_int, handler: usize) -> usize;
    }
    let writes_socket = matches!(args.first().map(String::as_str), Some("serve" | "stream"))
        || args.iter().any(|a| a == "--connect");
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
fn restore_default_sigpipe(_args: &[String]) {}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    restore_default_sigpipe(&args);
    let Some(cmd) = args.first() else { usage() };

    if cmd == "list" {
        println!("available workloads:");
        for w in all_workloads() {
            println!("  {:<14} {}", w.name(), w.description());
        }
        return;
    }

    // `serve` takes no positional at all: options only.
    if cmd == "serve" {
        let o = parse_options(&args[1..]);
        check_coherence_flags(cmd, &o);
        serve_cmd(&o);
    }

    let Some(name) = args.get(1) else { usage() };
    // `record` and `report` take an extra positional (the output file)
    // before options — except `record --connect`, where the trace goes to
    // a server and there is no file.
    let opt_start = match cmd.as_str() {
        "report" => 3,
        "record" => {
            if args.get(2).is_none_or(|a| a.starts_with("--")) {
                2
            } else {
                3
            }
        }
        _ => 2,
    };
    let o = parse_options(&args[opt_start.min(args.len())..]);
    check_coherence_flags(cmd, &o);
    run(cmd, name, &args, &o)
}

/// `--coherence` or `--coherence-out` on a command that would ignore it
/// is a usage error: a run must not look as if it simulated caches when
/// it did not.
fn check_coherence_flags(cmd: &str, o: &Options) {
    if o.coherence && !matches!(cmd, "analyze" | "serve" | "classify") {
        eprintln!(
            "error: --coherence is read only by `analyze`, `serve` and `classify`, not `{cmd}`"
        );
        std::process::exit(2);
    }
    if o.coherence_out.is_some() && !(cmd == "analyze" && o.coherence) {
        eprintln!("error: --coherence-out is read only by `analyze --coherence`");
        std::process::exit(2);
    }
}

fn run(cmd: &str, name: &str, args: &[String], o: &Options) {
    match cmd {
        "profile" => {
            let (p, _ctx) = profile(name, o, None);
            let r = p.report();
            println!("workload            : {name}");
            println!("threads             : {}", o.threads);
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
            if let Some(path) = &o.metrics {
                write_metrics(path, &p.metrics_with_health(&health));
            }
        }
        "nested" => {
            let (p, ctx) = profile(name, o, None);
            let r = p.report();
            let nested = NestedReport::build(ctx.loops(), &r.per_loop, o.threads);
            println!("{}", nested.render(4));
            let bad = lc_profiler::verify_sum_invariant(&nested);
            assert!(bad.is_empty(), "sum invariant violated: {bad:?}");
        }
        "load" => {
            let (p, ctx) = profile(name, o, None);
            let r = p.report();
            let nested = NestedReport::build(ctx.loops(), &r.per_loop, o.threads);
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
                    o.threads
                );
            }
        }
        "classify" => {
            if o.coherence {
                // Extended 13-feature classification: the RAW matrix alone
                // cannot tell a false-sharing variant from its padded twin,
                // so both backends see the run.
                let (raw, rep) = profile_with_coherence(name, o);
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
            let (p, _ctx) = profile(name, o, None);
            let train = synthetic_dataset(o.threads.max(8), 30, &[0.0, 0.05, 0.1], 1);
            let model = NearestCentroid::train(&train);
            println!(
                "dominant pattern class of `{name}`: {}",
                model.predict(&p.global_matrix())
            );
        }
        "map" => {
            let (p, _ctx) = profile(name, o, None);
            let topo = MachineTopology::dual_socket_xeon();
            if o.threads > topo.cores() {
                eprintln!("machine model has only {} cores", topo.cores());
                std::process::exit(2);
            }
            let m = p.global_matrix();
            let greedy = greedy_mapping(&m, &topo);
            println!(
                "identity cost : {}",
                ThreadMapping::identity(o.threads).cost(&m, &topo)
            );
            println!("greedy cost   : {}", greedy.cost(&m, &topo));
            println!("assignment    : {:?}", greedy.assignment);
        }
        "report" => {
            let Some(path) = args.get(2) else { usage() };
            let (p, ctx) = profile(name, o, Some(o.window));
            let html =
                lc_profiler::html_report(&format!("loopcomm: {name}"), &p.report(), ctx.loops());
            std::fs::write(path, html).expect("write report");
            println!("wrote {path}");
        }
        "record" => {
            let workload = workload(name, o);
            if let Some(addr) = &o.connect {
                // Live streaming: the same recording sink as a file, but
                // the writer thread ships v2 frames to a `loopcomm serve`
                // endpoint.
                let sink = Arc::new(
                    lc_trace::NetSink::connect(addr, &o.tenant, o.frame_events, fault_injector(o))
                        .unwrap_or_else(|e| {
                            eprintln!("cannot connect to `{addr}`: {e}");
                            std::process::exit(1);
                        }),
                );
                let ctx = TraceCtx::new(sink.clone(), o.threads);
                workload.run(&ctx, &RunConfig::new(o.threads, o.size, o.seed));
                match sink.finish() {
                    Ok(stats) => println!(
                        "streamed {} events in {} frames ({} bytes) as tenant `{}` -> {addr}",
                        stats.events, stats.frames, stats.bytes, o.tenant
                    ),
                    Err(e) => {
                        eprintln!("error: stream failed: {e}");
                        eprintln!(
                            "hint: whole frames already sent were analyzed; \
                             the server's /tenants/{}/stats counts the loss",
                            o.tenant
                        );
                        std::process::exit(1);
                    }
                }
                return;
            }
            let Some(path) = args.get(2) else { usage() };
            // Segments hit disk as the run progresses, through a bounded
            // backlog: memory stays flat however long the run, and a crash
            // (or an injected I/O fault) loses at most the unwritten tail —
            // every whole segment stays salvageable.
            let sink = Arc::new(
                lc_trace::SpoolSink::create_with(
                    std::path::Path::new(path),
                    o.frame_events,
                    fault_injector(o),
                )
                .unwrap_or_else(|e| {
                    eprintln!("cannot start spool `{path}`: {e}");
                    std::process::exit(1);
                }),
            );
            let ctx = TraceCtx::new(sink.clone(), o.threads);
            workload.run(&ctx, &RunConfig::new(o.threads, o.size, o.seed));
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
        "synth" => {
            // `name` is the output path here.
            synth_cmd(name, o);
        }
        "stream" => {
            // `name` is the trace path here.
            let Some(addr) = &o.connect else {
                eprintln!("`loopcomm stream` needs --connect HOST:PORT (or unix:<path>)");
                std::process::exit(2);
            };
            let trace = load_or_salvage(name, o);
            match lc_trace::stream_trace(&trace, addr, &o.tenant, o.frame_events, fault_injector(o))
            {
                Ok(stats) => println!(
                    "streamed {} events in {} frames ({} bytes) as tenant `{}` -> {addr}",
                    stats.events, stats.frames, stats.bytes, o.tenant
                ),
                Err(e) => {
                    eprintln!("error: stream failed: {e}");
                    eprintln!(
                        "hint: whole frames already sent were analyzed; \
                         the server's /tenants/{}/stats counts the loss",
                        o.tenant
                    );
                    std::process::exit(1);
                }
            }
        }
        // `name` is the trace path here.
        "analyze" => analyze(name, o),
        "simulate" => {
            let topo = MachineTopology::dual_socket_xeon();
            if o.threads > topo.cores() {
                eprintln!("machine model has only {} cores", topo.cores());
                std::process::exit(2);
            }
            let (raw, rep) = profile_with_coherence(name, o);
            let line_accesses = rep.hits + rep.fills;
            println!(
                "MESI simulation of `{name}` ({} events, {} threads on 2x8 cores, \
                 {} B lines, {} KiB/core, {}-way):",
                rep.accesses,
                o.threads,
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
                ("identity", ThreadMapping::identity(o.threads)),
                ("scrambled", ThreadMapping::scrambled(o.threads, 4242)),
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
            let workload = workload(name, o);
            let det = Arc::new(lc_profiler::FullDetector::new(
                o.threads,
                lc_profiler::DepConfig::all(),
            ));
            let ctx = TraceCtx::new(det.clone(), o.threads);
            workload.run(&ctx, &RunConfig::new(o.threads, o.size, o.seed));
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
            let workload = workload(name, o);
            let counter = Arc::new(lc_trace::SiteCounter::new());
            let ctx = TraceCtx::new(counter.clone(), o.threads);
            workload.run(&ctx, &RunConfig::new(o.threads, o.size, o.seed));
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
        #[cfg(feature = "sched")]
        "simtest" => simtest_cmd(name, o),
        #[cfg(not(feature = "sched"))]
        "simtest" => {
            eprintln!(
                "`loopcomm simtest` requires the `sched` feature, which the default \
                 build leaves out (its instrumented atomics cost up to 3x throughput); \
                 build with `--features sched`"
            );
            std::process::exit(2);
        }
        "phases" => {
            let (p, _ctx) = profile(name, o, Some(o.window));
            let r = p.report();
            let phases = r.phases(0.5).expect("phase tracking enabled");
            println!(
                "{} phase(s) over {} windows of {} dependencies:",
                phases.len(),
                r.phase_windows.as_ref().map(|w| w.len()).unwrap_or(0),
                o.window
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
