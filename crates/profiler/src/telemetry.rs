//! Self-observability for the profiler hot path.
//!
//! The paper's claims are quantitative — FPR degrades with slot occupancy
//! (§V-A3), SigMem stays flat by Eq. 2 (§V-A2), the loop registry stays
//! within its provisioned capacity (DESIGN.md §7) — yet until now the
//! profiler could not *watch* any of them at runtime. This module adds a
//! metrics layer that is strictly zero-cost when disabled (the default):
//!
//! * [`Telemetry`] — per-thread [`CachePadded`] cells of relaxed counters
//!   and power-of-two-bucket histograms, indexed by dense tid exactly like
//!   [`crate::shards::ShardSet`]. Application threads only ever touch their
//!   own cell's cache lines; totals are merged on scrape (relaxed counter
//!   addition commutes, so merging is lossless).
//! * [`Pow2Hist`] — a 32-bucket log₂ histogram. One `fetch_add` per
//!   observation, no floating point on the record path.
//! * [`MetricsRegistry`] — a flat list of named metrics with hand-rolled
//!   Prometheus-text and JSON expositions (no serialization dependency).
//!
//! Latency is sampled 1-in-[`TelemetryConfig::sample_every`] so the act of
//! measuring `on_access` does not itself dominate `on_access`. Telemetry
//! never changes *what* the profiler computes — the `telemetry_differential`
//! integration test proves matrices, loop maps and counts are byte-identical
//! with it on and off.

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam::utils::CachePadded;
use lc_trace::AccessKind;

use crate::raw::AccessProbe;

/// Number of log₂ buckets per histogram. Bucket `i >= 1` covers values in
/// `[2^(i-1), 2^i - 1]`; bucket 0 holds zeros; the last bucket also absorbs
/// everything `>= 2^(N_BUCKETS-1)`.
pub const N_BUCKETS: usize = 32;

/// Scalar event counters the hot path can bump.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Stat {
    /// Reads whose address had a recorded last writer in the write signature.
    ReadWriterHit = 0,
    /// Reads whose address had no recorded last writer.
    ReadWriterMiss,
    /// Reads with a writer hit whose dependence was suppressed by the
    /// first-read-only rule (same thread, or reader already in the signature).
    ReadSuppressed,
    /// Insertions into the read signature (one per read access).
    ReadSigInsert,
    /// Last-writer records into the write signature (one per write access).
    WriteSigInsert,
    /// Read-signature clears triggered by writes.
    ReadSigClear,
    /// RAW dependences detected.
    DepDetected,
    /// New loop matrices published into the registry.
    RegistryInsert,
    /// Batched sink deliveries ([`lc_trace::AccessSink::on_batch`] calls).
    SinkBatch,
}

impl Stat {
    /// Number of counters.
    pub const COUNT: usize = 9;

    /// Every counter, in declaration (= exposition) order.
    pub const ALL: [Stat; Self::COUNT] = [
        Stat::ReadWriterHit,
        Stat::ReadWriterMiss,
        Stat::ReadSuppressed,
        Stat::ReadSigInsert,
        Stat::WriteSigInsert,
        Stat::ReadSigClear,
        Stat::DepDetected,
        Stat::RegistryInsert,
        Stat::SinkBatch,
    ];

    /// Exposition name and help text.
    pub fn meta(self) -> (&'static str, &'static str) {
        match self {
            Stat::ReadWriterHit => (
                "loopcomm_read_writer_hit_total",
                "Reads whose address had a recorded last writer",
            ),
            Stat::ReadWriterMiss => (
                "loopcomm_read_writer_miss_total",
                "Reads whose address had no recorded last writer",
            ),
            Stat::ReadSuppressed => (
                "loopcomm_read_suppressed_total",
                "Writer-hit reads suppressed by first-read-only semantics",
            ),
            Stat::ReadSigInsert => (
                "loopcomm_read_sig_insert_total",
                "Insertions into the read signature",
            ),
            Stat::WriteSigInsert => (
                "loopcomm_write_sig_insert_total",
                "Last-writer records into the write signature",
            ),
            Stat::ReadSigClear => (
                "loopcomm_read_sig_clear_total",
                "Read-signature clears triggered by writes",
            ),
            Stat::DepDetected => ("loopcomm_deps_detected_total", "RAW dependences detected"),
            Stat::RegistryInsert => (
                "loopcomm_registry_insert_total",
                "Loop matrices published into the registry",
            ),
            Stat::SinkBatch => (
                "loopcomm_sink_batch_total",
                "Batched sink deliveries (on_batch calls)",
            ),
        }
    }
}

/// Histogram channels the hot path can observe into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum HistId {
    /// Open-addressing probe length per loop-registry lookup (slots walked).
    RegistryProbeLen = 0,
    /// Sampled Algorithm 1 detection latency per access, nanoseconds.
    DetectNs,
    /// Sampled accumulation (counter + matrix cell adds) latency per
    /// access, ns.
    AccumNs,
}

impl HistId {
    /// Number of histogram channels.
    pub const COUNT: usize = 3;

    /// Every channel, in declaration (= exposition) order.
    pub const ALL: [HistId; Self::COUNT] =
        [HistId::RegistryProbeLen, HistId::DetectNs, HistId::AccumNs];

    /// Exposition name and help text.
    pub fn meta(self) -> (&'static str, &'static str) {
        match self {
            HistId::RegistryProbeLen => (
                "loopcomm_registry_probe_len",
                "Loop-registry open-addressing probe length",
            ),
            HistId::DetectNs => (
                "loopcomm_detect_ns",
                "Sampled Algorithm 1 detection latency per access (ns)",
            ),
            HistId::AccumNs => (
                "loopcomm_accum_ns",
                "Sampled accumulation latency per access (ns)",
            ),
        }
    }
}

/// Bucket index for a value: 0 for 0, otherwise the bit length clamped to
/// the last bucket.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(N_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (`i < N_BUCKETS - 1`); the last
/// bucket is unbounded (`+Inf`).
#[inline]
fn bucket_le(i: usize) -> u64 {
    (1u64 << i) - 1
}

/// A concurrent 32-bucket log₂ histogram: one relaxed `fetch_add` per
/// observation on the bucket plus one on the running sum.
#[derive(Debug)]
pub struct Pow2Hist {
    buckets: [AtomicU64; N_BUCKETS],
    sum: AtomicU64,
}

impl Default for Pow2Hist {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl Pow2Hist {
    /// Record one value.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    fn merge_into(&self, out: &mut MergedHist) {
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            out.buckets[i] += n;
            out.count += n;
        }
        out.sum += self.sum.load(Ordering::Relaxed);
    }
}

/// A scrape-time merge of one histogram channel across all cells.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergedHist {
    /// Per-bucket observation counts (see [`N_BUCKETS`] for bounds).
    pub buckets: [u64; N_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl MergedHist {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Inclusive upper bound of the smallest bucket that covers quantile
    /// `q` in `[0, 1]` — a coarse log₂-resolution quantile.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q));
        if self.count == 0 {
            return 0;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_le(i);
            }
        }
        u64::MAX
    }
}

/// Telemetry tunables.
#[derive(Clone, Copy, Debug)]
pub struct TelemetryConfig {
    /// Record `on_access` latency for one in this many accesses per thread.
    /// Counters and histograms other than the latency channels are always
    /// exact. Must be at least 1.
    pub sample_every: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self { sample_every: 64 }
    }
}

/// One per-thread telemetry cell: the full counter and histogram set.
/// Padded so the owning thread's bumps never share a line with a neighbour.
#[derive(Debug)]
struct Cell {
    counters: [AtomicU64; Stat::COUNT],
    hists: [Pow2Hist; HistId::COUNT],
    sample_tick: AtomicU64,
}

impl Cell {
    fn new() -> Self {
        Self {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| Pow2Hist::default()),
            sample_tick: AtomicU64::new(0),
        }
    }
}

/// The sharded metrics layer: one padded `Cell` per profiled thread,
/// indexed by dense tid (masked), merged on scrape.
#[derive(Debug)]
pub struct Telemetry {
    cells: Box<[CachePadded<Cell>]>,
    mask: usize,
    sample_every: u64,
}

impl Telemetry {
    /// One cell per profiled thread, rounded up to a power of two so the
    /// hot-path index is a mask.
    pub fn new(threads: usize, cfg: TelemetryConfig) -> Self {
        assert!(threads >= 1);
        assert!(cfg.sample_every >= 1, "sample_every must be at least 1");
        let n = threads.next_power_of_two();
        Self {
            cells: (0..n).map(|_| CachePadded::new(Cell::new())).collect(),
            mask: n - 1,
            sample_every: cfg.sample_every,
        }
    }

    #[inline]
    fn cell(&self, tid: u32) -> &Cell {
        &self.cells[tid as usize & self.mask]
    }

    /// Increment one counter on `tid`'s cell.
    #[inline]
    pub fn bump(&self, tid: u32, stat: Stat) {
        self.cell(tid).counters[stat as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one histogram observation on `tid`'s cell.
    #[inline]
    pub fn observe(&self, tid: u32, hist: HistId, v: u64) {
        self.cell(tid).hists[hist as usize].observe(v);
    }

    /// Should this access sample latency? Advances `tid`'s sampling tick.
    #[inline]
    pub fn should_sample(&self, tid: u32) -> bool {
        self.cell(tid).sample_tick.fetch_add(1, Ordering::Relaxed) % self.sample_every == 0
    }

    /// Classify one detector probe outcome into the signature counters.
    #[inline]
    pub fn record_access(&self, tid: u32, kind: AccessKind, probe: AccessProbe, dep: bool) {
        match kind {
            AccessKind::Read => {
                self.bump(
                    tid,
                    if probe.writer_hit {
                        Stat::ReadWriterHit
                    } else {
                        Stat::ReadWriterMiss
                    },
                );
                if probe.suppressed {
                    self.bump(tid, Stat::ReadSuppressed);
                }
                self.bump(tid, Stat::ReadSigInsert);
            }
            AccessKind::Write => {
                self.bump(tid, Stat::WriteSigInsert);
                self.bump(tid, Stat::ReadSigClear);
            }
        }
        if dep {
            self.bump(tid, Stat::DepDetected);
        }
    }

    /// Merged value of one counter across all cells.
    pub fn counter(&self, stat: Stat) -> u64 {
        self.cells
            .iter()
            .map(|c| c.counters[stat as usize].load(Ordering::Relaxed))
            .sum()
    }

    /// Merged view of one histogram channel across all cells.
    pub fn hist(&self, hist: HistId) -> MergedHist {
        let mut out = MergedHist::default();
        for c in self.cells.iter() {
            c.hists[hist as usize].merge_into(&mut out);
        }
        out
    }

    /// Append every counter and histogram to a registry.
    pub fn export_into(&self, reg: &mut MetricsRegistry) {
        for stat in Stat::ALL {
            let (name, help) = stat.meta();
            reg.counter(name, help, self.counter(stat));
        }
        for h in HistId::ALL {
            let (name, help) = h.meta();
            reg.histogram(name, help, self.hist(h));
        }
    }

    /// Heap footprint of the telemetry layer (for the Eq. 2 accounting
    /// argument in DESIGN.md §8: bounded, thread-proportional, input-size
    /// independent).
    pub fn memory_bytes(&self) -> usize {
        self.cells.len() * std::mem::size_of::<CachePadded<Cell>>()
    }
}

/// The value of one exported metric.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// A monotonically increasing event count.
    Counter(u64),
    /// A point-in-time measurement.
    Gauge(f64),
    /// A merged log₂ histogram. Boxed so a registry full of counters and
    /// gauges doesn't pay the 32-bucket array per entry.
    Histogram(Box<MergedHist>),
}

/// One named metric with help text.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Exposition name (Prometheus-style snake case).
    pub name: String,
    /// One-line description.
    pub help: String,
    /// The value.
    pub value: MetricValue,
}

/// An ordered collection of metrics with text expositions.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: Vec<Metric>,
}

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a counter.
    pub fn counter(&mut self, name: &str, help: &str, v: u64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            value: MetricValue::Counter(v),
        });
    }

    /// Append a gauge.
    pub fn gauge(&mut self, name: &str, help: &str, v: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            value: MetricValue::Gauge(v),
        });
    }

    /// Append a histogram.
    pub fn histogram(&mut self, name: &str, help: &str, h: MergedHist) {
        self.metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            value: MetricValue::Histogram(Box::new(h)),
        });
    }

    /// All metrics in insertion order.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// Look a metric up by exposition name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Prometheus text exposition (`# HELP` / `# TYPE` / samples).
    /// Histograms render cumulative `_bucket{le=...}` series over the
    /// non-empty log₂ bucket bounds plus `+Inf`, `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!("# HELP {} {}\n", m.name, m.help));
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {} counter\n{} {}\n", m.name, m.name, v));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!(
                        "# TYPE {} gauge\n{} {}\n",
                        m.name,
                        m.name,
                        fmt_f64(*v)
                    ));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!("# TYPE {} histogram\n", m.name));
                    let mut cum = 0u64;
                    for (i, &n) in h.buckets.iter().take(N_BUCKETS - 1).enumerate() {
                        cum += n;
                        if n > 0 {
                            out.push_str(&format!(
                                "{}_bucket{{le=\"{}\"}} {}\n",
                                m.name,
                                bucket_le(i),
                                cum
                            ));
                        }
                    }
                    out.push_str(&format!(
                        "{}_bucket{{le=\"+Inf\"}} {}\n{}_sum {}\n{}_count {}\n",
                        m.name, h.count, m.name, h.sum, m.name, h.count
                    ));
                }
            }
        }
        out
    }

    /// JSON exposition: `{"metrics": [...]}` with one object per metric.
    /// Histogram buckets carry string `le` bounds (the last is `"+Inf"`),
    /// matching the Prometheus rendering; empty buckets are omitted.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"metrics\":[");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"help\":{},",
                json_str(&m.name),
                json_str(&m.help)
            ));
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("\"type\":\"counter\",\"value\":{v}}}"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("\"type\":\"gauge\",\"value\":{}}}", json_f64(*v)));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "\"type\":\"histogram\",\"count\":{},\"sum\":{},\"buckets\":[",
                        h.count, h.sum
                    ));
                    let mut first = true;
                    for (i, &n) in h.buckets.iter().enumerate() {
                        if n == 0 {
                            continue;
                        }
                        if !first {
                            out.push(',');
                        }
                        first = false;
                        let le = if i == N_BUCKETS - 1 {
                            "\"+Inf\"".to_string()
                        } else {
                            format!("\"{}\"", bucket_le(i))
                        };
                        out.push_str(&format!("{{\"le\":{le},\"count\":{n}}}"));
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("]}");
        out
    }
}

/// Render a float for the Prometheus exposition (`+Inf`/`-Inf`/`NaN`
/// literals per the format spec).
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Render a float as a JSON value (non-finite becomes `null` — JSON has no
/// infinity literal).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Minimal JSON string escaping for the ASCII names/help we emit.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), N_BUCKETS - 1);
        // Bucket i's inclusive bound covers exactly buckets 0..=i.
        assert_eq!(bucket_le(0), 0);
        assert_eq!(bucket_le(1), 1);
        assert_eq!(bucket_le(2), 3);
        assert_eq!(bucket_le(10), 1023);
    }

    #[test]
    fn hist_observe_and_merge() {
        let t = Telemetry::new(4, TelemetryConfig::default());
        t.observe(0, HistId::RegistryProbeLen, 0);
        t.observe(1, HistId::RegistryProbeLen, 1);
        t.observe(2, HistId::RegistryProbeLen, 5);
        t.observe(3, HistId::RegistryProbeLen, 5);
        let h = t.hist(HistId::RegistryProbeLen);
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 11);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[3], 2); // 5 ∈ [4, 7]
        assert_eq!(h.mean(), 2.75);
        assert_eq!(h.quantile_bound(0.5), 1);
        assert_eq!(h.quantile_bound(1.0), 7);
    }

    #[test]
    fn counters_merge_across_cells() {
        let t = Telemetry::new(8, TelemetryConfig::default());
        std::thread::scope(|s| {
            for tid in 0..8u32 {
                let t = &t;
                s.spawn(move || {
                    for _ in 0..100 {
                        t.bump(tid, Stat::DepDetected);
                    }
                });
            }
        });
        assert_eq!(t.counter(Stat::DepDetected), 800);
        assert_eq!(t.counter(Stat::SinkBatch), 0);
    }

    #[test]
    fn sampling_fires_one_in_n() {
        let t = Telemetry::new(1, TelemetryConfig { sample_every: 4 });
        let fired: Vec<bool> = (0..8).map(|_| t.should_sample(0)).collect();
        assert_eq!(fired.iter().filter(|b| **b).count(), 2);
        assert!(fired[0]); // tick 0 always samples
    }

    #[test]
    fn record_access_classifies_probes() {
        let t = Telemetry::new(2, TelemetryConfig::default());
        let hit = AccessProbe {
            writer_hit: true,
            suppressed: false,
        };
        let sup = AccessProbe {
            writer_hit: true,
            suppressed: true,
        };
        let miss = AccessProbe::default();
        t.record_access(0, AccessKind::Read, hit, true);
        t.record_access(0, AccessKind::Read, sup, false);
        t.record_access(1, AccessKind::Read, miss, false);
        t.record_access(1, AccessKind::Write, AccessProbe::default(), false);
        assert_eq!(t.counter(Stat::ReadWriterHit), 2);
        assert_eq!(t.counter(Stat::ReadWriterMiss), 1);
        assert_eq!(t.counter(Stat::ReadSuppressed), 1);
        assert_eq!(t.counter(Stat::ReadSigInsert), 3);
        assert_eq!(t.counter(Stat::WriteSigInsert), 1);
        assert_eq!(t.counter(Stat::ReadSigClear), 1);
        assert_eq!(t.counter(Stat::DepDetected), 1);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut reg = MetricsRegistry::new();
        reg.counter("a_total", "events", 3);
        reg.gauge("b", "level", 1.5);
        let mut h = MergedHist::default();
        h.buckets[1] = 2;
        h.buckets[N_BUCKETS - 1] = 1;
        h.count = 3;
        h.sum = 100;
        reg.histogram("c", "lat", h);
        let text = reg.to_prometheus();
        assert!(text.contains("# HELP a_total events\n# TYPE a_total counter\na_total 3\n"));
        assert!(text.contains("# TYPE b gauge\nb 1.5\n"));
        assert!(text.contains("c_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("c_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("c_sum 100\nc_count 3\n"));
    }

    #[test]
    fn json_exposition_shape() {
        let mut reg = MetricsRegistry::new();
        reg.counter("a_total", "events", 3);
        reg.gauge("inf_gauge", "unbounded", f64::INFINITY);
        let mut h = MergedHist::default();
        h.buckets[2] = 4;
        h.count = 4;
        h.sum = 10;
        reg.histogram("c", "lat", h);
        let json = reg.to_json();
        assert!(json.starts_with("{\"metrics\":["));
        assert!(json.contains(
            "{\"name\":\"a_total\",\"help\":\"events\",\"type\":\"counter\",\"value\":3}"
        ));
        assert!(json.contains("\"value\":null")); // infinity → null
        assert!(json.contains("{\"le\":\"3\",\"count\":4}"));
        assert!(json.ends_with("]}"));
        // Balanced braces/brackets — a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count(),);
        assert_eq!(json.matches('[').count(), json.matches(']').count(),);
    }

    #[test]
    fn registry_lookup_by_name() {
        let mut reg = MetricsRegistry::new();
        reg.counter("x_total", "x", 7);
        assert_eq!(
            reg.get("x_total").map(|m| &m.value),
            Some(&MetricValue::Counter(7))
        );
        assert!(reg.get("missing").is_none());
    }

    #[test]
    fn telemetry_memory_is_thread_proportional() {
        let small = Telemetry::new(1, TelemetryConfig::default()).memory_bytes();
        let big = Telemetry::new(16, TelemetryConfig::default()).memory_bytes();
        assert_eq!(big, 16 * small);
    }
}
