//! The traced run: each workload's route replayed in-process under spans,
//! plus the stages spans cannot separate timed in isolation on the same
//! events. Nothing here touches the end-to-end numbers — those come from
//! child processes with no tracing anywhere.
//!
//! Each route runs twice, spans off then on: the first gives
//! `route.inproc.ns_per_event`, the difference `tracing.overhead_share`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use loopcomm::lc_cachesim::canonical_coherence_report;
use loopcomm::lc_profiler::{
    analyze_trace_asymmetric, canonical_report, AccumConfig, AsymmetricDetector,
    AsymmetricProfiler, Checkpoint, FusedScratch, ParReplayConfig, ProfilerConfig,
};
use loopcomm::lc_sigmem::{hash_block, SignatureConfig};
use loopcomm::lc_trace::{
    crc32, load_trace, FrameDecoder, MmapTrace, NoopSink, SpoolWriter, StampedEvent,
};
use loopcomm::serve::{ServeConfig, Server};

use crate::gen::{EventGen, FRAME_EVENTS, THREADS};
use crate::span::Tracer;
use crate::stats::median;
use crate::sut::{http_get, ServeAddrs};
use crate::workloads::{
    check_serve_stats, cli_analyzer, cli_coherence, cli_live_profiler, run_kernel,
    stream_and_report, Ctx, Input, Prepared, Route, Workload, CLI_SLOTS, KERNELS, TENANT,
};

/// Isolated stages run on at most this many events from the head of the
/// workload's stream: enough to be out of every cache, small enough that
/// the slowest stage (detection on `uniform`) stays under a second.
const ISOLATED_EVENTS: u64 = 2_000_000;

/// `Tenant::queue_len` is sampled this often while the generator sends.
const QUEUE_SAMPLE: Duration = Duration::from_millis(10);

/// Quiescent `GET …/report` requests behind `serve.http.report_ms`.
const QUIESCENT_GETS: usize = 30;

/// Socket read size of the server's ingest path, fed to `FrameDecoder`.
const WIRE_CHUNK: usize = 64 * 1024;

/// Span name → the per-event layer metric its self time becomes.
const SPAN_NS_PER_EVENT: [(&str, &str); 6] = [
    ("trace.mmap_stream", "trace.v3_decode.ns_per_event"),
    ("profiler.on_frame", "profiler.incremental.ns_per_event"),
    ("cachesim.on_block", "cachesim.on_block.ns_per_event"),
    ("trace.load", "trace.load.ns_per_event"),
    ("trace.stats", "trace.stats.ns_per_event"),
    ("profiler.par_analyze", "profiler.par_analyze.ns_per_event"),
];

pub type Values = BTreeMap<&'static str, f64>;

/// Per-layer numbers of one workload.
pub struct LayerRun {
    /// Measured metrics by name; names absent here are layers the
    /// workload's route does not run, reported as 0.
    pub values: Values,
    /// Why an in-process output disagreed with the reference, if one did.
    pub failure: Option<String>,
    /// The traced pass, for `out/trace-<workload>.json`.
    pub tracer: Tracer,
}

/// What one pass over a route produced besides spans.
struct RouteOut {
    events: u64,
    /// Wall clock of the route proper — the `route` span, measured
    /// whether or not spans are on.
    wall: Duration,
    check: Result<(), String>,
    /// Exact counts and sizes read off the route's own objects.
    extras: Values,
}

fn ns_per(elapsed: Duration, events: u64) -> f64 {
    elapsed.as_nanos() as f64 / events as f64
}

/// Run the traced side of workload `w`. `e2e_ns_per_event` is the median of
/// the untraced child-process trials of the same run.
pub fn traced(
    w: &Workload,
    ctx: &Ctx,
    p: &Prepared,
    e2e_ns_per_event: f64,
) -> io::Result<LayerRun> {
    let mut values = Values::new();

    let plain = route(w, ctx, p, &mut Tracer::new(false))?;
    let off_ns = ns_per(plain.wall, plain.events);
    let mut tracer = Tracer::new(true);
    let out = route(w, ctx, p, &mut tracer)?;
    let on_ns = ns_per(out.wall, out.events);

    values.insert("route.inproc.ns_per_event", off_ns);
    values.insert("tracing.overhead_share", on_ns / off_ns - 1.0);

    let self_ns = tracer.self_time_ns();
    for (span, metric) in SPAN_NS_PER_EVENT {
        if let Some(&ns) = self_ns.get(span) {
            values.insert(metric, ns as f64 / out.events as f64);
        }
    }
    if let Some(&ns) = self_ns.get("cachesim.report") {
        values.insert("cachesim.report.us", ns as f64 / 1e3);
    }
    // Everything under the root is a call into some layer; the root's own
    // self time is harness glue and is not the program's cost.
    let layers_ns: u64 = self_ns
        .iter()
        .filter(|(name, _)| **name != "route")
        .map(|(_, ns)| ns)
        .sum();
    values.insert(
        "cli.unaccounted_share",
        1.0 - layers_ns as f64 / out.events as f64 / e2e_ns_per_event,
    );
    values.extend(out.extras);

    if let Some(pattern) = w.pattern {
        // Set-up already timed the writer over the whole stream.
        let encode_ns = p.times.encode_s * 1e9 / p.events as f64;
        match &p.input {
            Input::Spool { bytes, .. } => {
                values.insert("trace.v3_write.ns_per_event", encode_ns);
                if matches!(w.route, Route::Mmap { .. }) {
                    values.insert(
                        "trace.v3_decode.bytes_per_event",
                        *bytes as f64 / p.events as f64,
                    );
                }
            }
            Input::Wire { .. } => {
                values.insert("trace.wire_encode.ns_per_event", encode_ns);
            }
            Input::Kernels { .. } => {}
        }
        let head = EventGen::new(pattern, ctx.seed, p.events.min(ISOLATED_EVENTS));
        isolated(w, head, &mut values);
    }

    Ok(LayerRun {
        values,
        failure: plain.check.and(out.check).err(),
        tracer,
    })
}

fn route(w: &Workload, ctx: &Ctx, p: &Prepared, tr: &mut Tracer) -> io::Result<RouteOut> {
    match (&p.input, w.route) {
        (
            Input::Spool {
                path,
                report,
                coherence,
                ..
            },
            Route::Mmap { .. },
        ) => mmap_route(tr, path, report, coherence.as_deref()),
        (Input::Spool { path, report, .. }, Route::Ram) => ram_route(tr, path, report),
        (Input::Wire { bytes, report }, Route::Serve) => serve_route(tr, bytes, report, p.events),
        (Input::Kernels { accesses }, Route::Live) => Ok(live_route(tr, ctx, accesses)),
        _ => unreachable!("prepare() builds the input its route takes"),
    }
}

fn expect_same(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("in-process {what} differs from the reference"))
    }
}

/// `analyze <spool> --mmap [--coherence]`, as `analyze_streaming` does it.
fn mmap_route(
    tr: &mut Tracer,
    spool: &Path,
    want_report: &str,
    want_coherence: Option<&str>,
) -> io::Result<RouteOut> {
    let start = Instant::now();
    let root = tr.enter("route");
    let mm = tr.scope("trace.mmap_open", |_| MmapTrace::open(spool))?;
    let mut analyzer = cli_analyzer(1);
    let mut backend = want_coherence.map(|_| cli_coherence());
    let stream = tr.enter("trace.mmap_stream");
    let events = mm.stream_from(0, |frame| {
        let s = tr.enter("profiler.on_frame");
        analyzer.on_frame(frame);
        tr.exit(s);
        if let Some(b) = &mut backend {
            let s = tr.enter("cachesim.on_block");
            b.on_block(frame);
            tr.exit(s);
        }
    })?;
    tr.exit(stream);
    let report = tr.scope("profiler.report", |_| {
        canonical_report(&analyzer.report(), analyzer.events())
    });
    let coherence = backend.as_ref().map(|b| {
        tr.scope("cachesim.report", |_| {
            let report = b.report();
            let text = canonical_coherence_report(&report);
            (report, text)
        })
    });
    tr.exit(root);
    let wall = start.elapsed();

    let mut extras = Values::new();
    let mut check = expect_same("report", &report, want_report);
    if let (Some((rep, text)), Some(want)) = (&coherence, want_coherence) {
        check = check.and(expect_same("coherence report", text, want));
        let per_kev = |n: u64| n as f64 * 1e3 / events as f64;
        extras.insert("cachesim.c2c_per_kev", per_kev(rep.c2c_fills));
        extras.insert("cachesim.invalidations_per_kev", per_kev(rep.invalidations));
        extras.insert(
            "cachesim.fs_events_per_kev",
            per_kev(rep.false_sharing_events()),
        );
    }
    Ok(RouteOut {
        events,
        wall,
        check,
        extras,
    })
}

/// `analyze <spool>`: whole-file load, stats pre-pass, then
/// `analyze_trace_asymmetric` with the default (coalescing) configuration.
fn ram_route(tr: &mut Tracer, spool: &Path, want_report: &str) -> io::Result<RouteOut> {
    let start = Instant::now();
    let root = tr.enter("route");
    let trace = tr.scope("trace.load", |_| load_trace(spool))?;
    let threads = tr.scope("trace.stats", |_| trace.stats()).threads.max(1);
    let analysis = tr.scope("profiler.par_analyze", |_| {
        analyze_trace_asymmetric(
            &trace,
            SignatureConfig::paper_default(CLI_SLOTS, threads),
            ProfilerConfig::nested(threads),
            AccumConfig::default(),
            &ParReplayConfig::default(),
        )
    });
    let report = tr.scope("profiler.report", |_| {
        canonical_report(&analysis.report, trace.len() as u64)
    });
    tr.exit(root);
    let wall = start.elapsed();

    let events = trace.len() as u64;
    let mut extras = Values::new();
    extras.insert(
        "profiler.coalesce.folded_share",
        analysis.replay.coalesce.events_folded as f64 / events as f64,
    );
    Ok(RouteOut {
        events,
        wall,
        check: expect_same("report", &report, want_report),
        extras,
    })
}

/// The serve route against an in-process `Server` with CLI defaults, so
/// the harness can watch the tenant's queue while its generator sends.
fn serve_route(
    tr: &mut Tracer,
    wire: &[u8],
    want_report: &str,
    events: u64,
) -> io::Result<RouteOut> {
    let start = Instant::now();
    let root = tr.enter("route");
    let server = tr.scope("serve.start", |_| {
        Server::start(ServeConfig {
            http: Some("127.0.0.1:0".into()),
            sig: SignatureConfig::paper_default(CLI_SLOTS, THREADS as usize),
            ..ServeConfig::default()
        })
    })?;
    let addrs = ServeAddrs {
        ingest: server.ingest_addrs()[0].clone(),
        http: server.http_addr().expect("http endpoint configured").into(),
    };
    let shared = Arc::clone(server.shared());
    let sending = AtomicBool::new(true);
    let (run, depths) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut depths = Vec::new();
            while sending.load(Ordering::Relaxed) {
                // No tenant until the server has read the hello.
                if let Some(t) = shared.tenant(TENANT) {
                    depths.push(t.queue_len() as f64);
                }
                std::thread::sleep(QUEUE_SAMPLE);
            }
            depths
        });
        let run = tr.scope("serve.ingest", |_| stream_and_report(&addrs, wire));
        sending.store(false, Ordering::Relaxed);
        (run, sampler.join().expect("queue sampler panicked"))
    });
    let run = run?;
    tr.exit(root);
    let wall = start.elapsed();

    let mut extras = Values::new();
    let stats = http_get(&addrs.http, &format!("/tenants/{TENANT}/stats"))?;
    let check = expect_same("served report", &run.report, want_report)
        .and_then(|()| check_serve_stats(&stats, events));
    if tr.is_on() {
        extras.insert(
            "serve.ingest.ns_per_event",
            run.total_s * 1e9 / events as f64,
        );
        extras.insert("serve.sender_blocked_share", run.in_write_s / run.total_s);
        extras.insert(
            "serve.queue.mean_depth_frames",
            depths.iter().sum::<f64>() / depths.len().max(1) as f64,
        );
        extras.insert("serve.drain_ms", (run.total_s - run.send_s) * 1e3);
        let tenant = shared
            .tenant(TENANT)
            .expect("tenant exists after streaming");
        let stats = &tenant.stats;
        extras.insert(
            "serve.loss_events",
            (stats.events_lost.load(Ordering::Relaxed)
                + stats.events_spilled.load(Ordering::Relaxed)) as f64,
        );
        let mut gets = Vec::with_capacity(QUIESCENT_GETS);
        for _ in 0..QUIESCENT_GETS {
            let t = Instant::now();
            http_get(&addrs.http, &format!("/tenants/{TENANT}/report"))?;
            gets.push(t.elapsed().as_secs_f64() * 1e3);
        }
        extras.insert("serve.http.report_ms", median(&gets));
    }
    drop(server);
    Ok(RouteOut {
        events,
        wall,
        check,
        extras,
    })
}

/// `profile <kernel> --threads 2` for each kernel, one fresh profiler per
/// kernel as one process per kernel has.
fn live_route(tr: &mut Tracer, ctx: &Ctx, accesses: &[u64]) -> RouteOut {
    let mut check = Ok(());
    let mut state_bytes = 0usize;
    let start = Instant::now();
    let root = tr.enter("route");
    for (kernel, &want) in KERNELS.iter().zip(accesses) {
        let seen = tr.scope("capture.profiled", |_| {
            let profiler = Arc::new(cli_live_profiler());
            run_kernel(kernel, profiler.clone(), ctx);
            profiler.flush_pending();
            state_bytes = state_bytes.max(profiler.memory_bytes());
            profiler.report().accesses
        });
        if seen != want {
            check = Err(format!(
                "in-process `{kernel}` saw {seen} accesses, expected {want}"
            ));
        }
    }
    tr.exit(root);
    let wall = start.elapsed();

    let events: u64 = accesses.iter().sum();
    let mut extras = Values::new();
    if tr.is_on() {
        let profiled_ns = tr.self_time_ns()["capture.profiled"] as f64 / events as f64;
        let t = Instant::now();
        for kernel in KERNELS {
            run_kernel(kernel, Arc::new(NoopSink), ctx);
        }
        let null_ns = ns_per(t.elapsed(), events);
        extras.insert("capture.null_ns_per_event", null_ns);
        extras.insert("capture.profiled_ns_per_event", profiled_ns);
        extras.insert("capture.slowdown_x", profiled_ns / null_ns);
        extras.insert("profiler.state_bytes", state_bytes as f64);
    }
    RouteOut {
        events,
        wall,
        check,
        extras,
    }
}

/// Stages no span can separate, each timed alone over the head of the
/// workload's own event stream.
fn isolated(w: &Workload, mut gen: EventGen, values: &mut Values) {
    let mut events: Vec<StampedEvent> = Vec::new();
    let mut frame = Vec::new();
    while gen.next_frame(&mut frame) {
        events.extend_from_slice(&frame);
    }
    let n = events.len() as u64;
    let sig = SignatureConfig::paper_default(CLI_SLOTS, THREADS as usize);

    // hash: the address column through the SWAR block hash, tile by tile.
    let addrs: Vec<u64> = events.iter().map(|e| e.event.addr).collect();
    let mut hashes = [0u64; 256];
    let t = Instant::now();
    for tile in addrs.chunks(hashes.len()) {
        hash_block(tile, &mut hashes[..tile.len()]);
        black_box(&hashes);
    }
    values.insert("sigmem.hash_block.ns_per_event", ns_per(t.elapsed(), n));

    // probe/insert: Algorithm 1 against the signatures, nothing recorded.
    let detector = AsymmetricDetector::asymmetric(sig);
    let t = Instant::now();
    for e in &events {
        let ev = &e.event;
        black_box(detector.on_access(ev.tid, ev.addr, ev.size, ev.kind));
    }
    values.insert("sigmem.probe_insert.ns_per_event", ns_per(t.elapsed(), n));
    values.insert("sigmem.memory_bytes", detector.memory_bytes() as f64);
    drop(detector);

    // detect: the fused block engine, decoded blocks in, matrices out.
    let profiler = AsymmetricProfiler::from_detector_with(
        AsymmetricDetector::asymmetric(sig),
        ProfilerConfig::nested(THREADS as usize),
        AccumConfig::default(),
    );
    let mut scratch = FusedScratch::with_defaults();
    let t = Instant::now();
    for block in events.chunks(FRAME_EVENTS) {
        profiler.on_block_fused(block, &mut scratch);
    }
    profiler.flush_pending();
    values.insert("profiler.detect_fused.ns_per_event", ns_per(t.elapsed(), n));
    let fused = scratch.stats;
    values.insert(
        "profiler.fused.memo_hit_share",
        fused.memo_hits as f64 / (fused.memo_hits + fused.memo_misses).max(1) as f64,
    );
    values.insert(
        "profiler.fused.skip_elided_share",
        fused.elided_reads as f64 / n as f64,
    );
    values.insert(
        "profiler.deps_per_kev",
        profiler.report().dependencies as f64 * 1e3 / n as f64,
    );
    drop(profiler);

    // The streaming analyzer: its state, report and checkpoint costs. Its
    // per-frame cost comes from spans on the mmap routes; `serve` runs it
    // on a thread of its own, so there it is timed here.
    let mut analyzer = cli_analyzer(1);
    let t = Instant::now();
    for block in events.chunks(FRAME_EVENTS) {
        analyzer.on_frame(block);
    }
    if w.route == Route::Serve {
        values.insert("profiler.incremental.ns_per_event", ns_per(t.elapsed(), n));
    }
    let t = Instant::now();
    black_box(canonical_report(&analyzer.report(), analyzer.events()));
    values.insert("profiler.report.us", t.elapsed().as_secs_f64() * 1e6);
    values.insert("profiler.state_bytes", analyzer.memory_bytes() as f64);
    let t = Instant::now();
    black_box(Checkpoint::capture(&analyzer).encode());
    values.insert("profiler.checkpoint.ms", t.elapsed().as_secs_f64() * 1e3);
    drop(analyzer);

    // merge: what report() costs once two slot-sharded workers must be
    // summed.
    let mut two = cli_analyzer(2);
    for block in events.chunks(FRAME_EVENTS) {
        two.on_frame(block);
    }
    let t = Instant::now();
    black_box(two.report());
    values.insert("profiler.merge_j2.us", t.elapsed().as_secs_f64() * 1e6);
    drop(two);

    // checksum: CRC-32 over the encoded payloads — the same 41-byte
    // records whether framed as v3 segments or as wire frames.
    let mut encoded = Vec::new();
    let mut writer = SpoolWriter::new(&mut encoded, FRAME_EVENTS).expect("write to a Vec");
    for block in events.chunks(FRAME_EVENTS) {
        writer.append_frame(block).expect("write to a Vec");
    }
    writer.finish().expect("write to a Vec");
    let mut crc_time = Duration::ZERO;
    let mut pos = 8; // "LCTR" + version
    while pos + 12 <= encoded.len() {
        let len =
            u32::from_le_bytes(encoded[pos + 4..pos + 8].try_into().expect("4 bytes")) as usize;
        let payload = &encoded[pos + 12..pos + 12 + len];
        let t = Instant::now();
        black_box(crc32(payload));
        crc_time += t.elapsed();
        pos += 12 + len;
    }
    values.insert("trace.crc32.ns_per_event", ns_per(crc_time, n));

    // wire decode: the connection thread's share of `serve`.
    if w.route == Route::Serve {
        let mut decoder = FrameDecoder::new();
        let mut frames = Vec::new();
        let t = Instant::now();
        for chunk in encoded.chunks(WIRE_CHUNK) {
            decoder.feed(chunk, &mut frames);
            frames.clear();
        }
        let elapsed = t.elapsed();
        assert_eq!(decoder.events(), n, "wire decode lost events");
        values.insert("trace.wire_decode.ns_per_event", ns_per(elapsed, n));
    }
}
