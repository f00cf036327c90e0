//! Throughput of the MESI coherence backend (per-loop matrices,
//! false-sharing byte split) — the `--coherence` cost the CLI pays on top
//! of the RAW profile, and what `simulate` and `mapping_eval` replay.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use lc_cachesim::{CoherenceBackend, CoherenceConfig};
use lc_trace::{RecordingSink, TraceCtx};
use lc_workloads::{by_name, InputSize, RunConfig};

fn bench_coherence_backend(c: &mut Criterion) {
    let threads = 8;
    let mut g = c.benchmark_group("coherence_backend_events_per_sec");
    g.sample_size(10);
    for name in ["ocean_cp", "radix", "fs_unpadded"] {
        let rec = Arc::new(RecordingSink::new());
        let ctx = TraceCtx::new(rec.clone(), threads);
        by_name(name)
            .unwrap()
            .run(&ctx, &RunConfig::new(threads, InputSize::SimDev, 1));
        let trace = rec.finish();
        g.throughput(Throughput::Elements(trace.len() as u64));
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut backend = CoherenceBackend::new(CoherenceConfig::default(), threads);
                backend.on_block(trace.access_events());
                backend.report()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_coherence_backend);
criterion_main!(benches);
