//! Differential test: the streaming ingest service is **byte-identical**
//! to offline analysis (ISSUE 7 tentpole).
//!
//! Recorded SPLASH-style workload traces are streamed through a real
//! in-process [`Server`] over TCP and Unix sockets — four concurrent
//! producer connections, one tenant each, with different wire frame
//! sizes — and each tenant's canonical report (fetched over the HTTP
//! surface, like an operator would) must equal
//! [`lc_profiler::canonical_report`] over the same trace analyzed
//! offline, for both detectors and multiple analysis job counts.
//!
//! This is the serve-side extension of the replay-equivalence argument
//! (DESIGN.md §10): frame boundaries, socket chunking, queue handoff, and
//! incremental per-frame analysis must all be invisible to the result.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lc_profiler::{
    analyze_trace_asymmetric, analyze_trace_perfect, canonical_report, AccumConfig, DetectorKind,
    ParReplayConfig, ProfilerConfig,
};
use lc_sigmem::SignatureConfig;
use lc_trace::{stream_trace, RecordingSink, Trace, TraceCtx};
use loopcomm::prelude::*;
use loopcomm::serve::{ServeConfig, Server};

const SLOTS: usize = 1 << 12;
/// Matrix dimension shared by the server and the offline runs (covers the
/// widest workload; narrower ones leave zero rows, identically on both
/// sides).
const THREADS: usize = 8;
const QUIESCE: Duration = Duration::from_secs(60);

fn record_workload(name: &str, threads: usize, seed: u64) -> Trace {
    let rec = Arc::new(RecordingSink::new());
    let ctx = TraceCtx::new(rec.clone(), threads);
    by_name(name)
        .expect("workload exists")
        .run(&ctx, &RunConfig::new(threads, InputSize::SimDev, seed));
    rec.finish()
}

/// The offline half of the differential: same detector geometry, same
/// profiler shape, canonicalized.
fn offline_canonical(trace: &Trace, detector: DetectorKind, jobs: usize) -> String {
    let prof = ProfilerConfig::nested(THREADS);
    let par = ParReplayConfig {
        jobs,
        coalesce: false,
        batch_events: 512,
        ..ParReplayConfig::sequential()
    };
    let analysis = match detector {
        DetectorKind::Asymmetric => analyze_trace_asymmetric(
            trace,
            SignatureConfig::paper_default(SLOTS, THREADS),
            prof,
            AccumConfig::default(),
            &par,
        ),
        DetectorKind::Perfect => analyze_trace_perfect(trace, prof, AccumConfig::default(), &par),
    };
    canonical_report(&analysis.report, trace.len() as u64)
}

/// Minimal HTTP/1.0 GET against the server's observation surface.
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

/// Wait until `tenant` exists and has analyzed everything it received.
fn wait_tenant_quiet(server: &Server, tenant: &str) {
    let start = Instant::now();
    loop {
        if let Some(t) = server.shared().tenant(tenant) {
            if t.wait_quiet(QUIESCE) {
                return;
            }
        }
        assert!(
            start.elapsed() < QUIESCE,
            "tenant `{tenant}` never quiesced"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Stream `cases` concurrently (one connection per tenant, alternating
/// TCP / Unix transports), then compare every tenant's HTTP-served
/// canonical report with the offline analysis of the same trace.
fn assert_server_matches_offline(detector: DetectorKind, server_jobs: usize, offline_jobs: usize) {
    let sock_path = std::env::temp_dir().join(format!(
        "lc_serve_eq_{}_{:?}_{server_jobs}.sock",
        std::process::id(),
        detector
    ));
    let mut server = Server::start(ServeConfig {
        listen: vec![
            "127.0.0.1:0".into(),
            format!("unix:{}", sock_path.display()),
        ],
        http: Some("127.0.0.1:0".into()),
        detector,
        sig: SignatureConfig::paper_default(SLOTS, THREADS),
        prof: ProfilerConfig::nested(THREADS),
        accum: AccumConfig::default(),
        jobs: server_jobs,
        ..ServeConfig::default()
    })
    .expect("start server");
    let tcp = server.ingest_addrs()[0].clone();
    let unix = server.ingest_addrs()[1].clone();
    let http = server.http_addr().expect("http enabled").to_string();

    // Four tenants, four concurrent producer connections, two transports,
    // three wire frame sizes (including one that fragments heavily).
    let cases: Vec<(&str, Trace, usize, String)> = vec![
        ("radix", record_workload("radix", 4, 7), 7, tcp.clone()),
        ("fft", record_workload("fft", 4, 11), 4096, unix.clone()),
        ("lu_cb", record_workload("lu_cb", 8, 3), 256, tcp.clone()),
        (
            "radix.b",
            record_workload("radix", 4, 7),
            4096,
            unix.clone(),
        ),
    ];
    let producers: Vec<_> = cases
        .iter()
        .map(|(tenant, trace, frame_events, addr)| {
            let (tenant, trace, frame_events, addr) = (
                tenant.to_string(),
                trace.clone(),
                *frame_events,
                addr.clone(),
            );
            std::thread::spawn(move || {
                let stats =
                    stream_trace(&trace, &addr, &tenant, frame_events, None).expect("stream");
                assert_eq!(
                    stats.events,
                    trace.len() as u64,
                    "{tenant}: all events sent"
                );
            })
        })
        .collect();
    for p in producers {
        p.join().expect("producer thread");
    }
    assert!(
        server
            .shared()
            .conns_accepted
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 4,
        "four concurrent producer connections"
    );

    for (tenant, trace, _, _) in &cases {
        wait_tenant_quiet(&server, tenant);
        let (status, live) = http_get(&http, &format!("/tenants/{tenant}/report?wait=1"));
        assert_eq!(status, 200, "{tenant}: report served");
        let offline = offline_canonical(trace, detector, offline_jobs);
        assert_eq!(
            live, offline,
            "{tenant}: streamed report must be byte-identical to offline \
             analysis ({detector:?}, server jobs={server_jobs}, offline \
             jobs={offline_jobs})"
        );
        let t = server.shared().tenant(tenant).expect("tenant exists");
        assert_eq!(
            t.snapshot().events,
            trace.len() as u64,
            "{tenant}: lossless"
        );
        assert_eq!(
            t.stats
                .bytes_dropped
                .load(std::sync::atomic::Ordering::Relaxed),
            0,
            "{tenant}: clean stream drops nothing"
        );
    }
    server.shutdown();
    std::fs::remove_file(&sock_path).ok();
}

#[test]
fn asymmetric_streamed_reports_match_offline() {
    assert_server_matches_offline(DetectorKind::Asymmetric, 1, 1);
}

#[test]
fn asymmetric_streamed_reports_match_offline_across_job_counts() {
    // Server analyzes with 2 workers, offline with 4: the slot-sharded
    // partition makes both equal to (and hence each other) the
    // sequential result.
    assert_server_matches_offline(DetectorKind::Asymmetric, 2, 4);
}

#[test]
fn perfect_streamed_reports_match_offline() {
    assert_server_matches_offline(DetectorKind::Perfect, 2, 1);
}

/// The same bytes analyzed twice — once streamed frame-by-frame, once
/// offline in a single batch — with the *tiny* frame size, so thousands
/// of incremental `on_frame` boundaries are exercised.
#[test]
fn tiny_frames_do_not_change_the_report() {
    let trace = record_workload("radix", 4, 7);
    let mut server = Server::start(ServeConfig {
        listen: vec!["127.0.0.1:0".into()],
        http: Some("127.0.0.1:0".into()),
        sig: SignatureConfig::paper_default(SLOTS, THREADS),
        prof: ProfilerConfig::nested(THREADS),
        ..ServeConfig::default()
    })
    .expect("start server");
    let addr = server.ingest_addrs()[0].clone();
    let http = server.http_addr().unwrap().to_string();
    stream_trace(&trace, &addr, "tiny", 3, None).expect("stream");
    wait_tenant_quiet(&server, "tiny");
    let (status, live) = http_get(&http, "/tenants/tiny/report?wait=1");
    assert_eq!(status, 200);
    assert_eq!(live, offline_canonical(&trace, DetectorKind::Asymmetric, 1));
    server.shutdown();
}

/// `--queue-frames 1`: each tenant's ring has one frame buffer. One
/// socket write carrying every frame of a trace (16-event frames, so a
/// 64 KiB read holds dozens), and separately two tenants streaming at
/// once, both end with reports byte-identical to offline analysis. A
/// decoder that took a buffer for every whole frame of a read before
/// handing any over would wait for a second buffer forever.
#[test]
fn a_one_buffer_ring_takes_many_frames_per_write_and_concurrent_connections() {
    let mut server = Server::start(ServeConfig {
        listen: vec!["127.0.0.1:0".into()],
        http: Some("127.0.0.1:0".into()),
        sig: SignatureConfig::paper_default(SLOTS, THREADS),
        prof: ProfilerConfig::nested(THREADS),
        queue_frames: 1,
        ..ServeConfig::default()
    })
    .expect("start server");
    let addr = server.ingest_addrs()[0].clone();
    let http = server.http_addr().unwrap().to_string();

    let burst = record_workload("radix", 4, 7);
    let mut bytes = lc_trace::wire::encode_hello("burst");
    lc_trace::write_trace_spool(&burst, &mut bytes, 16).expect("encode");
    assert!(burst.len() >= 3 * 16, "at least three whole frames");
    let mut sock = TcpStream::connect(&addr).expect("connect");
    sock.write_all(&bytes).expect("one write");
    drop(sock);

    let pair = [
        ("fft", record_workload("fft", 4, 11)),
        ("lu_cb", record_workload("lu_cb", 8, 3)),
    ];
    std::thread::scope(|s| {
        for (tenant, trace) in &pair {
            let addr = &addr;
            s.spawn(move || stream_trace(trace, addr, tenant, 64, None).expect("stream"));
        }
    });
    for (tenant, trace) in [
        ("burst", &burst),
        ("fft", &pair[0].1),
        ("lu_cb", &pair[1].1),
    ] {
        wait_tenant_quiet(&server, tenant);
        let (status, live) = http_get(&http, &format!("/tenants/{tenant}/report?wait=1"));
        assert_eq!(status, 200, "{tenant}");
        assert_eq!(
            live,
            offline_canonical(trace, DetectorKind::Asymmetric, 1),
            "{tenant}: one frame buffer must not change the report"
        );
    }
    server.shutdown();
}

/// `/metrics` and `/tenants/<t>/stats` are scraped periodically, under the
/// coherence mutex the drain thread feeds through: they must read the
/// O(threads × slots) totals, never take a full report — and the totals
/// must be the full report's numbers. Also the serve half of the coherence
/// byte-identity contract: `/tenants/<t>/coherence` equals offline analysis.
#[test]
fn coherence_scrapes_read_totals_and_match_the_full_report() {
    let coherence = lc_cachesim::CoherenceConfig::default();
    let mut server = Server::start(ServeConfig {
        listen: vec!["127.0.0.1:0".into()],
        http: Some("127.0.0.1:0".into()),
        sig: SignatureConfig::paper_default(SLOTS, THREADS),
        prof: ProfilerConfig::nested(THREADS),
        coherence: Some(coherence),
        ..ServeConfig::default()
    })
    .expect("start server");
    let http = server.http_addr().expect("http enabled").to_string();
    let trace = record_workload("fs_straddle", 4, 13);
    stream_trace(&trace, &server.ingest_addrs()[0], "fs", 256, None).expect("stream");
    wait_tenant_quiet(&server, "fs");
    let tenant = server.shared().tenant("fs").expect("tenant exists");

    let mut backend = lc_cachesim::CoherenceBackend::new(coherence, THREADS);
    backend.on_block(trace.access_events());
    let offline = backend.report();
    assert!(offline.global.false_bytes > 0 && offline.false_sharing_events() > 0);
    for _ in 0..3 {
        let (status, metrics) = http_get(&http, "/metrics");
        assert_eq!(status, 200);
        for (series, want) in [
            ("invalidations", offline.invalidations),
            ("c2c_fills", offline.c2c_fills),
            ("false_bytes", offline.global.false_bytes),
            ("true_bytes", offline.global.true_bytes()),
        ] {
            let line =
                format!("loopcomm_tenant_coherence_{series}_total{{tenant=\"fs\"}} {want}\n");
            assert!(metrics.contains(&line), "missing `{line}` in:\n{metrics}");
        }
        let (status, stats) = http_get(&http, "/tenants/fs/stats");
        assert_eq!(status, 200);
        let want = format!(
            "\"coherence\":{{\"accesses\":{},\"invalidations\":{},\"c2c_fills\":{},\
             \"writebacks\":{},\"false_bytes\":{},\"true_bytes\":{},\
             \"false_sharing_events\":{}}}",
            offline.accesses,
            offline.invalidations,
            offline.c2c_fills,
            offline.writebacks,
            offline.global.false_bytes,
            offline.global.true_bytes(),
            offline.false_sharing_events()
        );
        assert!(stats.contains(&want), "missing `{want}` in:\n{stats}");
    }
    assert_eq!(
        tenant.coherence_snapshots(),
        0,
        "a scrape took a full report"
    );

    let (status, live) = http_get(&http, "/tenants/fs/coherence");
    assert_eq!(status, 200);
    assert_eq!(live, lc_cachesim::canonical_coherence_report(&offline));
    assert_eq!(tenant.coherence_snapshots(), 1);
    server.shutdown();
}

/// One thread rule for the coherence backend: a server whose tenants
/// would run it on more threads than its directory holds does not start,
/// rather than clamping the backend, which would then drop the wide
/// threads' accesses uncounted.
#[test]
fn coherence_on_more_threads_than_the_directory_holds_is_refused() {
    let wide = |coherence| ServeConfig {
        sig: SignatureConfig::paper_default(SLOTS, 100),
        prof: ProfilerConfig::nested(100),
        coherence,
        ..ServeConfig::default()
    };
    let err = Server::start(wide(Some(lc_cachesim::CoherenceConfig::default())))
        .err()
        .expect("refused at start");
    assert!(
        err.to_string()
            .contains("supports up to 64 threads (input has 100)"),
        "{err}"
    );
    Server::start(wide(None))
        .expect("RAW detection alone takes 100 threads")
        .shutdown();
}
