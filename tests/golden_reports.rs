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

use std::path::PathBuf;
use std::sync::Arc;

use lc_cachesim::{canonical_coherence_report, CoherenceBackend, CoherenceConfig};
use lc_profiler::report::{ascii_table, fmt_bytes, fmt_slowdown, write_csv};
use lc_profiler::{HistId, MergedHist, MetricsRegistry, Stat, Telemetry, TelemetryConfig};
use lc_trace::{AccessKind, RecordingSink, StampedEvent, Trace, TraceCtx};
use lc_workloads::{by_name, InputSize, RunConfig};

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
/// cases both expositions must render stably: counters, finite / NaN /
/// infinite gauges, and a histogram with empty interior buckets.
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
    let mut h = MergedHist::default();
    h.buckets[0] = 2; // two observations of 0
    h.buckets[3] = 5; // five in [4, 7]
    h.buckets[10] = 1; // one in [512, 1023]
    h.count = 8;
    h.sum = 550;
    reg.histogram("loopcomm_flush_occupancy", "Entries per flush", h);
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

#[test]
fn telemetry_export_snapshot() {
    // Hand-driven telemetry (no wall-clock sampling involved) so the full
    // counter/histogram export is bit-stable.
    let t = Telemetry::new(4, TelemetryConfig::default());
    for tid in 0..4 {
        t.record_access(
            tid,
            AccessKind::Write,
            lc_profiler::AccessProbe::default(),
            false,
        );
    }
    t.bump(0, Stat::ReadWriterHit);
    t.bump(1, Stat::ReadWriterHit);
    t.bump(1, Stat::DepDetected);
    t.bump(2, Stat::FlushEpoch);
    t.observe(0, HistId::RegistryProbeLen, 0);
    t.observe(1, HistId::RegistryProbeLen, 3);
    t.observe(2, HistId::FlushOccupancy, 17);
    let mut reg = MetricsRegistry::new();
    t.export_into(&mut reg);
    assert_golden("telemetry_export.prom", &reg.to_prometheus());
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
