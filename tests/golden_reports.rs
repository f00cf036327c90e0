//! Golden-file snapshots for the human-readable report renderers and both
//! metrics expositions. Regenerate after an intentional format change with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_reports
//! ```
//!
//! and review the diff under `tests/golden/` like any other code change.
//!
//! CI also runs the regeneration path into a scratch directory
//! (`GOLDEN_DIR=$RUNNER_TEMP/golden UPDATE_GOLDEN=1`) and diffs the result
//! against `tests/golden/` — so a renderer change that silently produces
//! different bytes fails the job even if someone also updated the goldens
//! without review.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lc_cachesim::{canonical_coherence_report, CoherenceBackend, CoherenceConfig};
use lc_profiler::report::{ascii_table, fmt_bytes, fmt_slowdown, write_csv};
use lc_profiler::MetricsRegistry;
use lc_trace::{RecordingSink, StampedEvent, Trace, TraceCtx};
use lc_workloads::{by_name, InputSize, RunConfig};
use loopcomm::serve::{ServeConfig, Server};

fn golden_path(name: &str) -> PathBuf {
    // GOLDEN_DIR redirects reads *and* writes — the CI drift guard points
    // it at a scratch directory, regenerates with UPDATE_GOLDEN=1, and
    // diffs the scratch tree against the committed one.
    let dir = match std::env::var_os("GOLDEN_DIR") {
        Some(d) => PathBuf::from(d),
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden"),
    };
    dir.join(name)
}

fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden `{}` ({e}); generate it with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "`{name}` drifted from its golden; if intentional, regenerate with \
         UPDATE_GOLDEN=1 and review the diff.\n--- golden ---\n{expected}\n--- actual ---\n{actual}"
    );
}

#[test]
fn ascii_table_snapshot() {
    let table = ascii_table(
        &["app", "slowdown", "memory"],
        &[
            vec!["radix".into(), fmt_slowdown(15.3), fmt_bytes(2048)],
            vec![
                "water_nsquared".into(),
                fmt_slowdown(225.4),
                fmt_bytes(580 * 1024 * 1024),
            ],
            vec!["fft".into(), fmt_slowdown(99.95), fmt_bytes(512)],
        ],
    );
    assert_golden("report_table.txt", &table);
}

#[test]
fn csv_snapshot() {
    let dir = std::env::temp_dir().join("lc_golden_csv");
    let path = dir.join("t.csv");
    write_csv(
        &path,
        &["threads", "shared_macc_s", "sharded_macc_s"],
        &[
            vec!["1".into(), "12.50".into(), "12.10".into()],
            vec!["8".into(), "1.75".into(), "9.40".into()],
        ],
    )
    .unwrap();
    let body = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(dir).ok();
    assert_golden("report_rows.csv", &body);
}

/// A deterministic registry covering every metric kind and the numeric edge
/// cases both expositions must render stably: counters and finite / NaN /
/// infinite gauges.
fn synthetic_registry() -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    reg.counter("loopcomm_accesses_total", "Accesses observed", 123_456);
    reg.gauge("loopcomm_memory_bytes", "Heap footprint", 65_536.0);
    reg.gauge(
        "loopcomm_sig_bloom_est_fp_rate",
        "Live FP estimate",
        0.015625,
    );
    reg.gauge(
        "loopcomm_gauge_nan",
        "A gauge with no defined value",
        f64::NAN,
    );
    reg.gauge("loopcomm_gauge_inf", "An unbounded gauge", f64::INFINITY);
    reg
}

#[test]
fn prometheus_exposition_snapshot() {
    assert_golden("metrics.prom", &synthetic_registry().to_prometheus());
}

#[test]
fn json_exposition_snapshot() {
    let json = synthetic_registry().to_json();
    assert_golden("metrics.json", &json);
}

/// Record `name` and normalize the schedule to thread-serial order: stable
/// sort by `(tid, seq)` and re-stamp. Each thread's own stream depends
/// only on the seed, so the normalized trace — and therefore the coherence
/// report — is bit-stable across runs regardless of how the OS interleaved
/// the recording threads.
fn thread_serial_trace(name: &str) -> Trace {
    const THREADS: usize = 4;
    let rec = Arc::new(RecordingSink::new());
    let ctx = TraceCtx::new(rec.clone(), THREADS);
    by_name(name)
        .unwrap()
        .run(&ctx, &RunConfig::new(THREADS, InputSize::SimDev, 13));
    let mut evs: Vec<StampedEvent> = rec.finish().events().to_vec();
    evs.sort_by_key(|e| (e.event.tid, e.seq));
    for (i, e) in evs.iter_mut().enumerate() {
        e.seq = i as u64;
    }
    Trace::new(evs)
}

#[test]
fn coherence_report_snapshots() {
    // Three recorded SPLASH-style kernels plus the engineered
    // false-sharing trio, each through one backend.
    for name in [
        "radix",
        "fft",
        "lu_cb",
        "fs_unpadded",
        "fs_padded",
        "fs_straddle",
    ] {
        let trace = thread_serial_trace(name);
        let mut b = CoherenceBackend::new(CoherenceConfig::default(), 4);
        b.on_block(trace.access_events());
        assert_golden(
            &format!("coherence_{name}.txt"),
            &canonical_coherence_report(&b.report()),
        );
    }
}

/// How long a streamed tenant may take to appear and go quiet.
const QUIESCE: Duration = Duration::from_secs(60);

/// Body of a plain `GET path` against the server's HTTP surface.
fn http_body(addr: &str, path: &str) -> String {
    let mut sock = TcpStream::connect(addr).expect("connect http");
    write!(sock, "GET {path} HTTP/1.0\r\n\r\n").expect("send request");
    let mut text = String::new();
    sock.read_to_string(&mut text).expect("read response");
    let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.starts_with("HTTP/1.0 200"), "{path}: {head}");
    body.to_string()
}

#[test]
fn serve_metrics_snapshot() {
    // `serve --coherence` with two tenants, each fed one thread-serial
    // trace over one connection that has closed, scraped once the two are
    // quiet: every value is a count of fixed input. The scrape before any
    // tenant connects pins the families that have no sample yet.
    let mut server = Server::start(ServeConfig {
        http: Some("127.0.0.1:0".into()),
        sig: lc_sigmem::SignatureConfig::paper_default(1 << 12, 4),
        prof: lc_profiler::ProfilerConfig::nested(4),
        coherence: Some(CoherenceConfig::default()),
        ..ServeConfig::default()
    })
    .expect("start server");
    let http = server.http_addr().expect("http enabled").to_string();
    let ingest = server.ingest_addrs()[0].clone();
    assert_golden("serve_metrics_empty.prom", &http_body(&http, "/metrics"));
    for (tenant, workload, frame_events) in [("radix", "radix", 512), ("fft.b", "fft", 4096)] {
        let trace = thread_serial_trace(workload);
        lc_trace::stream_trace(&trace, &ingest, tenant, frame_events, None).expect("stream");
        // The server may read the hello after the producer has closed.
        let start = Instant::now();
        let t = loop {
            if let Some(t) = server.shared().tenant(tenant) {
                break t;
            }
            assert!(start.elapsed() < QUIESCE, "{tenant} never said hello");
            std::thread::sleep(Duration::from_millis(5));
        };
        assert!(t.wait_quiet(QUIESCE), "{tenant} never quiesced");
    }
    assert_golden("serve_metrics.prom", &http_body(&http, "/metrics"));
    server.shutdown();
}
