//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Spans are recorded from the benchmark's side of every public function
//! it calls — nothing inside the repository is instrumented. A span nests
//! under whichever span was open when it started, and a layer's cost is its
//! **self time**: the span's duration minus what its direct children cover.
//! That is how `MmapTrace::stream_from`'s decode cost is separated from
//! the detector callbacks it invokes.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Which repetition of the route this span belongs to.
    pub trial: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans; with `on == false` every call is a branch and a return,
/// which is what lets one route function serve both the untraced and the
/// traced in-process run.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    trial: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            trial: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its handle.
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            trial: self.trial,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Close the span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        if !self.on {
            return;
        }
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as one span.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, summed over all spans of that name.
    pub fn self_time_ns(&self) -> BTreeMap<&'static str, u64> {
        self_time_ns(&self.spans)
    }

    /// The dump written to `out/trace-<workload>.json`.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::Str(s.name.into())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("trial", Json::Num(s.trial as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time per span name: each span's duration minus its direct
/// children's durations, summed by name.
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            // Children lie inside their parent, so this cannot underflow
            // for spans a `Tracer` recorded; saturate for hand-built input.
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    let mut by_name = BTreeMap::new();
    for (s, t) in spans.iter().zip(own) {
        *by_name.entry(s.name).or_insert(0) += t;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            trial: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // route [0,1000) > stream [100,900) > three callbacks, two of one
        // name (siblings) and one that itself has a child.
        let spans = vec![
            span("route", 0, 1000, None),
            span("stream", 100, 900, Some(0)),
            span("detect", 150, 250, Some(1)),
            span("detect", 300, 450, Some(1)),
            span("coherence", 500, 800, Some(1)),
            span("report", 600, 650, Some(4)),
        ];
        let t = self_time_ns(&spans);
        assert_eq!(t["route"], 200);
        assert_eq!(t["stream"], 800 - 100 - 150 - 300);
        assert_eq!(t["detect"], 250);
        assert_eq!(t["coherence"], 250);
        assert_eq!(t["report"], 50);
        // Self times partition the root interval.
        assert_eq!(t.values().sum::<u64>(), 1000);
    }

    #[test]
    fn tracer_nests_under_the_open_span_and_records_nothing_when_off() {
        let mut tr = Tracer::new(true);
        tr.scope("route", |tr| {
            let a = tr.enter("a");
            tr.scope("b", |_| ());
            tr.exit(a);
            tr.scope("c", |_| ());
        });
        let parents: Vec<_> = tr.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            [
                ("route", None),
                ("a", Some(0)),
                ("b", Some(1)),
                ("c", Some(0))
            ]
        );
        assert!(tr.spans().iter().all(|s| s.end_ns >= s.start_ns));

        let mut off = Tracer::new(false);
        off.scope("route", |tr| tr.scope("a", |_| ()));
        assert!(off.spans().is_empty());
    }
}
