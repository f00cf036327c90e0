//! `lcbench --compare A.json B.json`: do two result files agree?
//!
//! Every (workload, end-to-end metric) median must agree within that
//! metric's bound, every exact-count layer metric must agree exactly, no
//! trial may have failed, and both files must have measured the same input.
//! Each disagreement is named; any disagreement makes the exit code 1.

use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;
use crate::metrics::{END_TO_END, LAYERS};

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn number(workload: &Json, section: &str, metric: &str, field: &str) -> Option<f64> {
    workload.get(section)?.get(metric)?.get(field)?.as_f64()
}

/// The cells on which `a` and `b` disagree, one line each.
pub fn differences(a: &Json, b: &Json) -> Result<Vec<String>, String> {
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
            .ok_or("not an lcbench result file: no `workloads` object")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut diffs = Vec::new();
    for (name, x) in &wa {
        let Some((_, y)) = wb.iter().find(|(n, _)| n == name) else {
            diffs.push(format!("{name}: missing from the second file"));
            continue;
        };
        for key in ["events", "fingerprint"] {
            if x.get(key) != y.get(key) {
                diffs.push(format!(
                    "{name}/{key}: {:?} vs {:?} — the files measured different inputs",
                    x.get(key),
                    y.get(key)
                ));
            }
        }
        for (side, doc) in [("first", x), ("second", y)] {
            if doc.get("failed_share").and_then(Json::as_f64) != Some(0.0)
                || doc.get("correct") != Some(&Json::Bool(true))
            {
                diffs.push(format!("{name}/failed_share: not 0 in the {side} file"));
            }
        }
        for m in &END_TO_END {
            let (Some(p), Some(q)) = (
                number(x, "end_to_end", m.name, "median"),
                number(y, "end_to_end", m.name, "median"),
            ) else {
                diffs.push(format!("{name}/{}: missing", m.name));
                continue;
            };
            let rel = (p - q).abs() / p.abs();
            // A NaN (0 vs 0 — these metrics are never 0) must fail too.
            if rel.is_nan() || rel > m.bound {
                diffs.push(format!(
                    "{name}/{}: {p} vs {q} {} differ by {:.1} % (bound {:.0} %)",
                    m.name,
                    m.unit,
                    rel * 100.0,
                    m.bound * 100.0
                ));
            }
        }
        for m in LAYERS.iter().filter(|m| m.exact) {
            let (p, q) = (
                number(x, "per_layer", m.name, "value"),
                number(y, "per_layer", m.name, "value"),
            );
            if p != q {
                diffs.push(format!(
                    "{name}/{}: {p:?} vs {q:?} {} — an exact count differs",
                    m.name, m.unit
                ));
            }
        }
    }
    for (name, _) in &wb {
        if !wa.iter().any(|(n, _)| n == name) {
            diffs.push(format!("{name}: missing from the first file"));
        }
    }
    Ok(diffs)
}

pub fn main(a: &Path, b: &Path) -> ExitCode {
    let diffs = load(a).and_then(|x| load(b).and_then(|y| differences(&x, &y)));
    match diffs {
        Ok(d) if d.is_empty() => {
            println!("{} and {} agree within bounds", a.display(), b.display());
            ExitCode::SUCCESS
        }
        Ok(d) => {
            for line in d {
                println!("DIFFERS {line}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("lcbench --compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(throughput: f64, deps_per_kev: f64, fingerprint: &str) -> Json {
        let e2e = |v: f64| Json::obj([("median", Json::Num(v))]);
        Json::obj([(
            "workloads",
            Json::obj([(
                "ooc_ring",
                Json::obj([
                    ("events", Json::Num(1000.0)),
                    ("fingerprint", Json::Str(fingerprint.into())),
                    ("correct", Json::Bool(true)),
                    ("failed_share", Json::Num(0.0)),
                    (
                        "end_to_end",
                        Json::obj([
                            ("throughput_mev_s", e2e(throughput)),
                            ("cpu_ns_per_event", e2e(150.0)),
                            ("peak_rss_mb", e2e(80.0)),
                            ("setup_s", e2e(4.0)),
                        ]),
                    ),
                    (
                        "per_layer",
                        Json::obj(LAYERS.iter().map(|m| {
                            let v = if m.name == "profiler.deps_per_kev" {
                                deps_per_kev
                            } else {
                                1.0
                            };
                            (m.name, Json::obj([("value", Json::Num(v))]))
                        })),
                    ),
                ]),
            )]),
        )])
    }

    #[test]
    fn files_within_bounds_agree() {
        let d = differences(&file(6.0, 470.0, "0x1"), &file(6.5, 470.0, "0x1")).unwrap();
        assert_eq!(d, Vec::<String>::new());
    }

    #[test]
    fn a_median_past_its_bound_is_named() {
        let d = differences(&file(6.0, 470.0, "0x1"), &file(7.6, 470.0, "0x1")).unwrap();
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].starts_with("ooc_ring/throughput_mev_s:"), "{d:?}");
    }

    #[test]
    fn an_exact_count_may_not_move_at_all() {
        let d = differences(&file(6.0, 470.0, "0x1"), &file(6.0, 470.001, "0x1")).unwrap();
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].starts_with("ooc_ring/profiler.deps_per_kev:"), "{d:?}");
    }

    #[test]
    fn different_inputs_and_missing_workloads_are_named() {
        let d = differences(&file(6.0, 470.0, "0x1"), &file(6.0, 470.0, "0x2")).unwrap();
        assert!(d[0].starts_with("ooc_ring/fingerprint:"), "{d:?}");
        let empty = Json::obj([("workloads", Json::obj::<&str>([]))]);
        let d = differences(&file(6.0, 470.0, "0x1"), &empty).unwrap();
        assert_eq!(d, ["ooc_ring: missing from the second file"]);
        assert!(differences(&Json::Null, &empty).is_err());
    }
}
