//! Live capture tiles (`lc_trace::tile`) against per-access delivery.
//!
//! A profiler opts into tiles, so live threads hand it up to 256 of their
//! accesses at a time. The same profiler wrapped in a one-element
//! `ForkSink` does not opt in and sees every access as it happens. Where
//! delivery order is fixed — one thread — the two must report the same
//! bytes; at four threads, where the delay may reorder accesses no
//! instrumented synchronisation orders, no access may be lost and the
//! per-loop matrices must still sum to the global one.

use std::sync::Arc;

use lc_profiler::canonical_report;
use lc_trace::{CountingSink, ForkSink};
use loopcomm::prelude::*;

/// Slots per signature: ample for `simdev`, small enough to keep the
/// suite's footprint low.
const SLOTS: usize = 1 << 16;

fn splash_kernels() -> Vec<Box<dyn Workload>> {
    let kernels: Vec<_> = all_workloads()
        .into_iter()
        .filter(|w| !w.name().starts_with("fs_"))
        .collect();
    assert_eq!(kernels.len(), 14, "the fourteen SPLASH-style kernels");
    kernels
}

fn profiler(threads: usize) -> Arc<AsymmetricProfiler> {
    Arc::new(AsymmetricProfiler::asymmetric(
        SignatureConfig::paper_default(SLOTS, threads),
        ProfilerConfig::nested(threads),
    ))
}

fn run(w: &dyn Workload, sink: Arc<dyn AccessSink>, threads: usize) {
    let ctx = TraceCtx::new(sink, threads);
    w.run(&ctx, &RunConfig::new(threads, InputSize::SimDev, 42));
}

#[test]
fn one_thread_tiled_reports_equal_per_access_delivery() {
    for w in splash_kernels() {
        let tiled = profiler(1);
        assert!(tiled.accepts_tiles());
        run(&*w, tiled.clone(), 1);

        let per_access = profiler(1);
        let fork: Arc<dyn AccessSink> = Arc::new(ForkSink::new(vec![per_access.clone()]));
        assert!(!fork.accepts_tiles(), "the oracle must see every access");
        run(&*w, fork, 1);

        let (a, b) = (tiled.report(), per_access.report());
        assert_eq!(a.accesses, b.accesses, "{}: accesses", w.name());
        assert_eq!(
            canonical_report(&a, a.accesses),
            canonical_report(&b, b.accesses),
            "{}: tiled report differs from per-access delivery",
            w.name()
        );
    }
}

#[test]
fn four_thread_tiled_runs_lose_no_access() {
    for w in splash_kernels() {
        let counting = Arc::new(CountingSink::new());
        run(&*w, counting.clone(), 4);

        let tiled = profiler(4);
        run(&*w, tiled.clone(), 4);
        let r = tiled.report();
        assert_eq!(r.accesses, counting.total(), "{}: accesses", w.name());
        assert_eq!(r.per_loop_sum(), r.global, "{}: Σ per-loop", w.name());
    }
}
