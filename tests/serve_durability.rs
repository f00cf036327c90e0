//! Durable-tenant integration tests (ISSUE 8 tentpole, serve half).
//!
//! With `--durable-dir`, the ingest service must survive restarts and
//! evictions without losing work or breaking its ledger:
//!
//! - queue overflow spills to a per-tenant v3 spool instead of stalling
//!   producers, and `received == analyzed + spilled + lost` holds exactly
//!   at every quiescent point — including across a restart that replays
//!   the spilled frames;
//! - a server restart restores each tenant's analyzer from its checkpoint
//!   and the resumed analysis is **byte-identical** to an uninterrupted
//!   offline run over the same events;
//! - the idle reaper evicts quiet tenants to disk (visible in `/tenants`),
//!   and a later hello resumes them transparently.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lc_faults::{FaultAction, FaultInjector, FaultPlan, FaultRule, FaultSite};
use lc_profiler::{
    analyze_trace_asymmetric, canonical_report, AccumConfig, DetectorKind, ParReplayConfig,
    ProfilerConfig,
};
use lc_sigmem::SignatureConfig;
use lc_trace::{
    stream_trace, AccessEvent, AccessKind, FuncId, LoopId, RecordingSink, StampedEvent, Trace,
    TraceCtx,
};
use loopcomm::prelude::*;
use loopcomm::serve::tenant::Tenant;
use loopcomm::serve::{durable, ServeConfig, Server};

const SLOTS: usize = 1 << 12;
const THREADS: usize = 8;
const QUIESCE: Duration = Duration::from_secs(60);

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lc_serve_dur_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn record_workload(name: &str, threads: usize, seed: u64) -> Trace {
    let rec = Arc::new(RecordingSink::new());
    let ctx = TraceCtx::new(rec.clone(), threads);
    by_name(name)
        .expect("workload exists")
        .run(&ctx, &RunConfig::new(threads, InputSize::SimDev, seed));
    rec.finish()
}

/// Deterministic synthetic trace (same shape as the tenant unit tests):
/// enough frames to overflow a tiny queue instantly.
fn synthetic_trace(events: u64) -> Trace {
    Trace::new(
        (0..events)
            .map(|i| StampedEvent {
                seq: i,
                event: AccessEvent {
                    tid: (i % 4) as u32,
                    addr: 0x1000 + (i % 64) * 8,
                    size: 8,
                    kind: if i % 3 == 0 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                    loop_id: LoopId(1 + (i % 4) as u32),
                    parent_loop: LoopId::NONE,
                    func: FuncId::NONE,
                    site: 0,
                },
            })
            .collect(),
    )
}

fn offline_canonical(trace: &Trace, jobs: usize) -> String {
    let analysis = analyze_trace_asymmetric(
        trace,
        SignatureConfig::paper_default(SLOTS, THREADS),
        ProfilerConfig::nested(THREADS),
        AccumConfig::default(),
        &ParReplayConfig {
            jobs,
            coalesce: false,
            batch_events: 512,
            ..ParReplayConfig::sequential()
        },
    );
    canonical_report(&analysis.report, trace.len() as u64)
}

fn http_get(addr: &str, path: &str) -> (u16, String) {
    let mut sock = TcpStream::connect(addr).expect("connect http");
    write!(sock, "GET {path} HTTP/1.0\r\n\r\n").expect("send request");
    let mut buf = Vec::new();
    sock.read_to_end(&mut buf).expect("read response");
    let text = String::from_utf8(buf).expect("utf-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, body.to_string())
}

/// Wait until the tenant exists and has received at least `events`
/// stream events. `stream_trace` returning only means the bytes reached
/// the socket; the server may not have decoded them yet, so tests must
/// anchor on the received ledger before asserting anything else.
fn wait_tenant_received(server: &Server, tenant: &str, events: u64) -> Arc<Tenant> {
    let start = Instant::now();
    loop {
        if let Some(t) = server.shared().tenant(tenant) {
            if t.stats.events_received.load(Ordering::Relaxed) >= events {
                return t;
            }
        }
        assert!(
            start.elapsed() < QUIESCE,
            "tenant `{tenant}` never received {events} events"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Wait until the tenant has received `events` *and* gone quiet (queue
/// drained, no spill pending, drain idle). The received floor closes the
/// startup race where a just-created tenant looks quiet before the first
/// frame arrives.
fn wait_tenant_quiet(server: &Server, tenant: &str, events: u64) -> Arc<Tenant> {
    let t = wait_tenant_received(server, tenant, events);
    assert!(t.wait_quiet(QUIESCE), "tenant `{tenant}` never quiesced");
    t
}

/// The exact-accounting contract: at a quiescent point every received
/// frame (and event) is analyzed, spilled, or lost — nothing else.
fn assert_ledger_exact(t: &Tenant) {
    let fr = t.stats.frames_received.load(Ordering::Relaxed);
    let er = t.stats.events_received.load(Ordering::Relaxed);
    let fs = t.stats.frames_spilled.load(Ordering::Relaxed);
    let es = t.stats.events_spilled.load(Ordering::Relaxed);
    let fl = t.stats.frames_lost.load(Ordering::Relaxed);
    let el = t.stats.events_lost.load(Ordering::Relaxed);
    assert_eq!(
        fr,
        t.snapshot().frames + fs + fl,
        "tenant `{}`: frames_received == analyzed + spilled + lost",
        t.name
    );
    assert_eq!(
        er,
        t.snapshot().events + es + el,
        "tenant `{}`: events_received == analyzed + spilled + lost",
        t.name
    );
}

fn durable_config(dir: &Path, queue_frames: usize) -> ServeConfig {
    ServeConfig {
        listen: vec!["127.0.0.1:0".into()],
        http: Some("127.0.0.1:0".into()),
        detector: DetectorKind::Asymmetric,
        sig: SignatureConfig::paper_default(SLOTS, THREADS),
        prof: ProfilerConfig::nested(THREADS),
        accum: AccumConfig::default(),
        jobs: 1,
        queue_frames,
        durable_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    }
}

/// Queue overflow spills to disk (no producer stall, no loss), and once
/// the stall clears, the drain's catch-up pass replays the spilled
/// frames into the live analyzer **in arrival order** — the quiesced
/// report is byte-identical to offline analysis, the ledger is exact,
/// and the spool is empty again.
#[test]
fn overflow_spills_then_catch_up_replays_in_order() {
    let dir = scratch_dir("catchup");
    let trace = synthetic_trace(2_000);
    let total_events = trace.len() as u64;

    // A one-frame queue plus an injected 300 ms stall on the first drain:
    // the producer finishes the whole stream while the drain sleeps, so
    // nearly every frame takes the spill path; the drain then catches up.
    let stall = Arc::new(FaultInjector::new(FaultPlan {
        seed: 0,
        rules: vec![FaultRule::once(
            FaultSite::TenantFlush,
            FaultAction::Stall { ms: 300 },
            0,
        )],
    }));
    let mut server = Server::start(ServeConfig {
        faults: Some(stall),
        ..durable_config(&dir, 1)
    })
    .expect("start server");
    let addr = server.ingest_addrs()[0].clone();
    stream_trace(&trace, &addr, "catchup", 16, None).expect("stream");
    let t = wait_tenant_quiet(&server, "catchup", total_events);
    assert!(
        t.stats.frames_spilled_total.load(Ordering::Relaxed) > 0,
        "queue overflow must spill"
    );
    assert_eq!(t.stats.frames_lost.load(Ordering::Relaxed), 0);
    assert_eq!(
        t.stats.frames_spilled.load(Ordering::Relaxed),
        0,
        "catch-up must drain the spool"
    );
    assert_eq!(
        t.snapshot().events,
        total_events,
        "catch-up replays every spilled event into the live analyzer"
    );
    assert_ledger_exact(&t);
    assert_eq!(
        t.canonical(),
        offline_canonical(&trace, 1),
        "live prefix + replayed spill suffix must equal in-order analysis"
    );
    let spool_dir = durable::tenant_dir(&dir, "catchup");
    assert!(
        !std::fs::read_dir(&spool_dir)
            .expect("tenant dir exists")
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_string_lossy().starts_with("spill-")),
        "replayed spill files are deleted"
    );
    drop(t);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A server that dies while spilled frames are still on disk replays
/// them at the next restart, byte-identically and with an exact ledger.
#[test]
fn overflow_spills_to_disk_and_replays_on_restart() {
    let dir = scratch_dir("spill");
    let trace = synthetic_trace(2_000);
    let total_events = trace.len() as u64;

    // A 1500 ms stall keeps the drain asleep long past the end of the
    // stream, so shutdown lands before any catch-up pass: the spilled
    // frames must survive on disk for the next incarnation.
    let stall = Arc::new(FaultInjector::new(FaultPlan {
        seed: 0,
        rules: vec![FaultRule::once(
            FaultSite::TenantFlush,
            FaultAction::Stall { ms: 1500 },
            0,
        )],
    }));
    let mut server = Server::start(ServeConfig {
        faults: Some(stall),
        ..durable_config(&dir, 1)
    })
    .expect("start server");
    let addr = server.ingest_addrs()[0].clone();
    stream_trace(&trace, &addr, "spiller", 16, None).expect("stream");
    // Anchor on the received ledger only — the drain is mid-stall, so
    // waiting for quiet here would let it catch up and defeat the test.
    let t = wait_tenant_received(&server, "spiller", total_events);
    assert!(
        t.stats.frames_spilled.load(Ordering::Relaxed) > 0,
        "queue overflow must spill"
    );
    assert_eq!(t.stats.frames_lost.load(Ordering::Relaxed), 0);
    let spool_dir = durable::tenant_dir(&dir, "spiller");
    assert!(
        std::fs::read_dir(&spool_dir)
            .expect("tenant dir exists")
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_string_lossy().starts_with("spill-")),
        "spilled frames live in a spill spool on disk"
    );
    drop(t);
    server.shutdown(); // joins the stalled drain, checkpoints, keeps spills

    // Restart: the hello restores the checkpointed ledger and replays the
    // spilled frames into the analyzer before any new frame flows.
    let mut server = Server::start(durable_config(&dir, 64)).expect("restart server");
    let addr = server.ingest_addrs()[0].clone();
    stream_trace(&Trace::new(Vec::new()), &addr, "spiller", 16, None).expect("re-hello");
    let t = wait_tenant_quiet(&server, "spiller", total_events);
    assert_eq!(
        t.snapshot().events,
        total_events,
        "replay recovered every spilled event"
    );
    assert_eq!(
        t.stats.events_received.load(Ordering::Relaxed),
        total_events
    );
    assert_eq!(t.stats.frames_spilled.load(Ordering::Relaxed), 0);
    assert_eq!(t.stats.events_lost.load(Ordering::Relaxed), 0);
    assert_ledger_exact(&t);
    assert_eq!(
        t.canonical(),
        offline_canonical(&trace, 1),
        "checkpointed prefix + restart-replayed suffix must equal in-order analysis"
    );
    drop(t);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A server restart between two halves of a stream is invisible: the
/// resumed tenant's canonical report is byte-identical to offline
/// analysis of the whole trace.
#[test]
fn restart_resumes_tenants_byte_identically() {
    let dir = scratch_dir("restart");
    let trace = record_workload("radix", 4, 7);
    let events = trace.events();
    let half = events.len() / 2;
    let first = Trace::new(events[..half].to_vec());
    let second = Trace::new(events[half..].to_vec());

    let mut server = Server::start(durable_config(&dir, 64)).expect("start server");
    let addr = server.ingest_addrs()[0].clone();
    stream_trace(&first, &addr, "resume", 256, None).expect("stream first half");
    let t = wait_tenant_quiet(&server, "resume", half as u64);
    assert_eq!(t.snapshot().events, half as u64);
    drop(t);
    server.shutdown(); // checkpoints every durable tenant

    let mut server = Server::start(durable_config(&dir, 64)).expect("restart server");
    let addr = server.ingest_addrs()[0].clone();
    let http = server.http_addr().expect("http enabled").to_string();
    stream_trace(&second, &addr, "resume", 256, None).expect("stream second half");
    let t = wait_tenant_quiet(&server, "resume", trace.len() as u64);
    assert_eq!(
        t.snapshot().events,
        trace.len() as u64,
        "restored analyzer continued from the checkpoint"
    );
    assert_ledger_exact(&t);
    let (status, live) = http_get(&http, "/tenants/resume/report?wait=1");
    assert_eq!(status, 200);
    assert_eq!(
        live,
        offline_canonical(&trace, 1),
        "resumed report must be byte-identical to uninterrupted offline analysis"
    );
    drop(t);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The idle reaper evicts a quiet durable tenant (visible in `/tenants`),
/// and the next hello restores it from disk with the analysis intact.
#[test]
fn idle_tenant_is_reaped_and_resumes_from_disk() {
    let dir = scratch_dir("reap");
    let trace = record_workload("radix", 4, 11);
    let events = trace.events();
    let half = events.len() / 2;
    let first = Trace::new(events[..half].to_vec());
    let second = Trace::new(events[half..].to_vec());

    let mut server = Server::start(ServeConfig {
        tenant_idle: Some(Duration::from_millis(300)),
        ..durable_config(&dir, 64)
    })
    .expect("start server");
    let addr = server.ingest_addrs()[0].clone();
    let http = server.http_addr().expect("http enabled").to_string();
    stream_trace(&first, &addr, "idle", 256, None).expect("stream first half");
    wait_tenant_quiet(&server, "idle", half as u64);

    // The reaper must evict the quiet tenant shortly after the idle
    // deadline; /tenants then reports it evicted.
    let start = Instant::now();
    while server.shared().tenant("idle").is_some() {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "idle tenant never evicted"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let evicted = server.shared().evicted();
    assert!(
        evicted.iter().any(|(name, _)| name == "idle"),
        "evicted list tracks the reaped tenant"
    );
    let (status, body) = http_get(&http, "/tenants");
    assert_eq!(status, 200);
    assert!(
        body.contains("\"name\":\"idle\""),
        "/tenants exposes the evicted tenant: {body}"
    );

    // A new hello resumes the tenant from disk; the finished analysis is
    // byte-identical to an uninterrupted offline run.
    stream_trace(&second, &addr, "idle", 256, None).expect("stream second half");
    let t = wait_tenant_quiet(&server, "idle", trace.len() as u64);
    assert_eq!(t.snapshot().events, trace.len() as u64);
    assert_ledger_exact(&t);
    assert_eq!(
        t.canonical(),
        offline_canonical(&trace, 1),
        "reaped-and-restored report must be byte-identical to offline analysis"
    );
    assert!(
        !server
            .shared()
            .evicted()
            .iter()
            .any(|(name, _)| name == "idle"),
        "restore clears the evicted entry"
    );
    drop(t);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A restored durable `--coherence` tenant's coherence report covers
/// every frame it analyzed in this incarnation: the spilled frames its
/// restore replayed as well as the frames that arrived after. The live
/// report (one cache-set shard) is byte-equal to offline `analyze
/// --coherence` (a shard per core) of those events.
#[test]
fn restored_coherence_covers_the_replayed_spill() {
    let dir = scratch_dir("coherence");
    // Thread ids cover all THREADS, so offline `analyze` (max tid + 1)
    // builds matrices as wide as the tenant's.
    let trace = Trace::new(
        (synthetic_trace(4_000).events().iter())
            .map(|e| StampedEvent {
                event: AccessEvent {
                    tid: (e.seq % THREADS as u64) as u32,
                    ..e.event
                },
                ..*e
            })
            .collect(),
    );
    let (first, second) = trace.events().split_at(2_000);
    let coherence = Some(lc_cachesim::CoherenceConfig::default());

    // The first incarnation spills nearly all of the first half and dies
    // before any catch-up pass (as in the restart test above).
    let stall = Arc::new(FaultInjector::new(FaultPlan {
        seed: 0,
        rules: vec![FaultRule::once(
            FaultSite::TenantFlush,
            FaultAction::Stall { ms: 1500 },
            0,
        )],
    }));
    let mut server = Server::start(ServeConfig {
        faults: Some(stall),
        coherence,
        ..durable_config(&dir, 1)
    })
    .expect("start server");
    let addr = server.ingest_addrs()[0].clone();
    let first = Trace::new(first.to_vec());
    stream_trace(&first, &addr, "coh", 16, None).expect("stream first half");
    let t = wait_tenant_received(&server, "coh", first.len() as u64);
    server.shutdown();
    assert!(t.stats.frames_spilled.load(Ordering::Relaxed) > 0);
    let checkpointed = t.snapshot().events as usize;
    drop(t);

    // The second incarnation replays the spill at restore, then takes the
    // second half live.
    let mut server = Server::start(ServeConfig {
        coherence,
        ..durable_config(&dir, 64)
    })
    .expect("restart server");
    let addr = server.ingest_addrs()[0].clone();
    let http = server.http_addr().expect("http enabled").to_string();
    stream_trace(&Trace::new(second.to_vec()), &addr, "coh", 16, None).expect("stream");
    let t = wait_tenant_quiet(&server, "coh", trace.len() as u64);
    assert_eq!(t.snapshot().events, trace.len() as u64);
    assert_ledger_exact(&t);
    let this_incarnation = &trace.events()[checkpointed..];
    let totals = t.snapshot().coherence.expect("coherence on");
    assert_eq!(
        totals.accesses,
        this_incarnation.len() as u64,
        "coherence saw every frame analyzed since the restore, replayed spill included"
    );

    let spool = dir.join("incarnation.lcv3");
    let want = dir.join("incarnation.coh");
    lc_trace::write_trace_spool_v3(&Trace::new(this_incarnation.to_vec()), &spool, 1000)
        .expect("write spool");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_loopcomm"))
        .arg("analyze")
        .arg(&spool)
        .arg("--coherence")
        .arg("--coherence-out")
        .arg(&want)
        .output()
        .expect("run analyze");
    assert!(out.status.success(), "{out:?}");
    let (status, live) = http_get(&http, "/tenants/coh/coherence");
    assert_eq!(status, 200);
    assert_eq!(
        live,
        std::fs::read_to_string(&want).expect("offline report")
    );
    drop(t);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
