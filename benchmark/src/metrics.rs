//! The metric tables: every name the benchmark prints, with its unit,
//! direction and — for end-to-end metrics — the bound a median may worsen
//! by before it is a regression. `BENCHMARK.json` mirrors these tables; a
//! unit test keeps the two in step.

/// One end-to-end metric.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Every workload reports all of these. `failed_share` (events not
/// analysed or in a trial whose output failed its check, ÷ events
/// attempted; bound 0 absolute) is reported beside them but is not in this
/// table: it is 0 on a healthy run, and a bound relative to 0 means nothing.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "throughput_mev_s",
        unit: "Mev/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ns_per_event",
        unit: "ns",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// One per-layer metric. Which end-to-end metric each should move, and on
/// which workload, is the third table of `benchmark/README.md`.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// A count the program makes (or a size it fixes), not a time: it must
    /// repeat exactly between runs of one commit on one seed.
    pub exact: bool,
}

/// A measured time (or a share of one): lower is better, never exact.
const fn time(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better: false,
        exact: false,
    }
}

/// An exact count or size.
const fn count(name: &'static str, unit: &'static str, higher_is_better: bool) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better,
        exact: true,
    }
}

pub const LAYERS: [Layer; 39] = [
    time("trace.v3_decode.ns_per_event", "ns"),
    count("trace.v3_decode.bytes_per_event", "B", false),
    time("trace.crc32.ns_per_event", "ns"),
    time("trace.load.ns_per_event", "ns"),
    time("trace.stats.ns_per_event", "ns"),
    time("trace.v3_write.ns_per_event", "ns"),
    time("trace.wire_decode.ns_per_event", "ns"),
    time("trace.wire_encode.ns_per_event", "ns"),
    time("sigmem.hash_block.ns_per_event", "ns"),
    time("sigmem.probe_insert.ns_per_event", "ns"),
    count("sigmem.memory_bytes", "B", false),
    time("profiler.detect_fused.ns_per_event", "ns"),
    time("profiler.incremental.ns_per_event", "ns"),
    time("profiler.par_analyze.ns_per_event", "ns"),
    count("profiler.coalesce.folded_share", "ratio", true),
    count("profiler.fused.memo_hit_share", "ratio", true),
    count("profiler.fused.skip_elided_share", "ratio", true),
    count("profiler.deps_per_kev", "1/kev", false),
    time("profiler.report.us", "us"),
    time("profiler.merge_j2.us", "us"),
    count("profiler.state_bytes", "B", false),
    time("profiler.checkpoint.ms", "ms"),
    time("cachesim.on_block.ns_per_event", "ns"),
    time("cachesim.report.us", "us"),
    count("cachesim.c2c_per_kev", "1/kev", false),
    count("cachesim.invalidations_per_kev", "1/kev", false),
    count("cachesim.fs_events_per_kev", "1/kev", false),
    time("serve.ingest.ns_per_event", "ns"),
    Layer {
        name: "serve.sender_blocked_share",
        unit: "ratio",
        higher_is_better: true,
        exact: false,
    },
    Layer {
        name: "serve.queue.mean_depth_frames",
        unit: "frames",
        higher_is_better: false,
        exact: false,
    },
    time("serve.drain_ms", "ms"),
    time("serve.http.report_ms", "ms"),
    count("serve.loss_events", "events", false),
    time("capture.null_ns_per_event", "ns"),
    time("capture.profiled_ns_per_event", "ns"),
    time("capture.slowdown_x", "x"),
    time("cli.unaccounted_share", "ratio"),
    time("route.inproc.ns_per_event", "ns"),
    time("tracing.overhead_share", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    /// Names are `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`, units `[A-Za-z0-9_/%.-]{1,16}`.
    fn valid_name(name: &str) -> bool {
        let ok = |b: u8| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-');
        (1..=64).contains(&name.len())
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name.bytes().all(ok)
    }

    fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn metric_names_and_units_keep_to_the_charset_and_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(LAYERS.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(valid_name(n), "bad name {n:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(LAYERS.iter().map(|m| m.unit))
        {
            assert!(valid_unit(u), "bad unit {u:?}");
        }
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b") && !valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)) && valid_name(&"x".repeat(64)));
        assert!(valid_unit("1/s") && valid_unit("%") && !valid_unit("") && !valid_unit("a b"));
    }

    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let s = |v: &Json, key: &str| match v.get(key) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let better = |higher: bool| if higher { "higher" } else { "lower" };

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!((s(j, "name"), s(j, "why")), (w.name.into(), w.why.into()));
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(s(j, "name"), m.name);
            assert_eq!(s(j, "unit"), m.unit);
            assert_eq!(s(j, "better"), better(m.higher_is_better));
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), LAYERS.len());
        for (j, m) in layers.iter().zip(&LAYERS) {
            assert_eq!(s(j, "name"), m.name);
            assert_eq!(s(j, "unit"), m.unit);
            assert_eq!(s(j, "better"), better(m.higher_is_better));
        }
    }
}
