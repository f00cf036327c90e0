//! The one metrics registry: every exposition — `profile --metrics`,
//! `analyze --metrics`, the bench bins' `*.metrics.json` and `serve`'s
//! `/metrics` — is a [`MetricsRegistry`] rendered as Prometheus text or
//! JSON (hand-rolled, no serialization dependency).

/// The value of one exported metric.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// A monotonically increasing event count.
    Counter(u64),
    /// A point-in-time measurement.
    Gauge(f64),
    /// A family of integer samples of one type (counter, or gauge when
    /// `gauge`), one per value of the label `key`, in order. It may have
    /// none: `# HELP` and `# TYPE` are still written. Label values are
    /// written as given, so callers pass names that need no escaping.
    Labelled {
        /// The samples are gauges rather than counters.
        gauge: bool,
        /// The label's name.
        key: String,
        /// `(label value, sample)` pairs.
        samples: Vec<(String, u64)>,
    },
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

    fn push(&mut self, name: &str, help: &str, value: MetricValue) {
        self.metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            value,
        });
    }

    /// Append a counter.
    pub fn counter(&mut self, name: &str, help: &str, v: u64) {
        self.push(name, help, MetricValue::Counter(v));
    }

    /// Append a gauge.
    pub fn gauge(&mut self, name: &str, help: &str, v: f64) {
        self.push(name, help, MetricValue::Gauge(v));
    }

    /// Append a family of counters labelled `key="<label value>"`.
    pub fn counters(
        &mut self,
        name: &str,
        help: &str,
        key: &str,
        samples: impl IntoIterator<Item = (String, u64)>,
    ) {
        self.labelled(name, help, false, key, samples);
    }

    /// Append a family of integer gauges labelled `key="<label value>"`.
    pub fn gauges(
        &mut self,
        name: &str,
        help: &str,
        key: &str,
        samples: impl IntoIterator<Item = (String, u64)>,
    ) {
        self.labelled(name, help, true, key, samples);
    }

    fn labelled(
        &mut self,
        name: &str,
        help: &str,
        gauge: bool,
        key: &str,
        samples: impl IntoIterator<Item = (String, u64)>,
    ) {
        let value = MetricValue::Labelled {
            gauge,
            key: key.to_string(),
            samples: samples.into_iter().collect(),
        };
        self.push(name, help, value);
    }

    /// All metrics in insertion order.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// Look a metric up by exposition name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Prometheus text exposition: `# HELP`, `# TYPE`, then the samples.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let (name, kind) = (&m.name, m.value.kind());
            out.push_str(&format!("# HELP {name} {}\n# TYPE {name} {kind}\n", m.help));
            match &m.value {
                MetricValue::Counter(v) => out.push_str(&format!("{name} {v}\n")),
                MetricValue::Gauge(v) => out.push_str(&format!("{name} {}\n", fmt_f64(*v))),
                MetricValue::Labelled { key, samples, .. } => {
                    for (label, v) in samples {
                        out.push_str(&format!("{name}{{{key}=\"{label}\"}} {v}\n"));
                    }
                }
            }
        }
        out
    }

    /// JSON exposition: `{"metrics": [...]}` with one object per metric;
    /// a labelled family carries `"samples": [{"<key>": ..., "value": ...}]`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"metrics\":[");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"help\":{},\"type\":\"{}\",",
                json_str(&m.name),
                json_str(&m.help),
                m.value.kind()
            ));
            match &m.value {
                MetricValue::Counter(v) => out.push_str(&format!("\"value\":{v}}}")),
                MetricValue::Gauge(v) => out.push_str(&format!("\"value\":{}}}", json_f64(*v))),
                MetricValue::Labelled { key, samples, .. } => {
                    let samples: Vec<String> = (samples.iter())
                        .map(|(label, v)| {
                            format!("{{{}:{},\"value\":{v}}}", json_str(key), json_str(label))
                        })
                        .collect();
                    out.push_str(&format!("\"samples\":[{}]}}", samples.join(",")));
                }
            }
        }
        out.push_str("]}");
        out
    }
}

impl MetricValue {
    /// The Prometheus type name.
    fn kind(&self) -> &'static str {
        match self {
            MetricValue::Gauge(_) | MetricValue::Labelled { gauge: true, .. } => "gauge",
            MetricValue::Counter(_) | MetricValue::Labelled { gauge: false, .. } => "counter",
        }
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
    fn prometheus_exposition_shape() {
        let mut reg = MetricsRegistry::new();
        reg.counter("a_total", "events", 3);
        reg.gauge("b", "level", 1.5);
        reg.counters(
            "c_total",
            "per tenant",
            "tenant",
            [("x".into(), 2), ("y".into(), 0)],
        );
        reg.gauges("d", "none yet", "tenant", []);
        let text = reg.to_prometheus();
        assert!(text.contains("# HELP a_total events\n# TYPE a_total counter\na_total 3\n"));
        assert!(text.contains("# TYPE b gauge\nb 1.5\n"));
        assert!(text.contains(
            "# TYPE c_total counter\nc_total{tenant=\"x\"} 2\nc_total{tenant=\"y\"} 0\n"
        ));
        assert!(text.ends_with("# HELP d none yet\n# TYPE d gauge\n"));
    }

    #[test]
    fn json_exposition_shape() {
        let mut reg = MetricsRegistry::new();
        reg.counter("a_total", "events", 3);
        reg.gauge("inf_gauge", "unbounded", f64::INFINITY);
        reg.gauges("c", "per tenant", "tenant", [("x".into(), 4)]);
        let json = reg.to_json();
        assert!(json.starts_with("{\"metrics\":["));
        assert!(json.contains(
            "{\"name\":\"a_total\",\"help\":\"events\",\"type\":\"counter\",\"value\":3}"
        ));
        assert!(json.contains("\"value\":null")); // infinity → null
        assert!(json.contains("\"type\":\"gauge\",\"samples\":[{\"tenant\":\"x\",\"value\":4}]"));
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
}
