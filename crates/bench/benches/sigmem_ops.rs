//! Microbenchmarks of the signature-memory substrate: the per-access data
//! structures on Algorithm 1's hot path.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use lc_sigmem::murmur::{fmix64, murmur3_x64_128, murmur3_x86_32};
use lc_sigmem::{PerfectReaderSet, PerfectWriterMap, Signature, SlotSignature};

fn bench_hashes(c: &mut Criterion) {
    let mut g = c.benchmark_group("murmur");
    g.bench_function("fmix64", |b| {
        let mut x = 0x1234_5678u64;
        b.iter(|| {
            x = fmix64(black_box(x));
            x
        })
    });
    let buf = vec![0xa5u8; 64];
    g.bench_function("x86_32_64B", |b| {
        b.iter(|| murmur3_x86_32(black_box(&buf), 0))
    });
    g.bench_function("x64_128_64B", |b| {
        b.iter(|| murmur3_x64_128(black_box(&buf), 0))
    });
    g.finish();
}

fn bench_signatures(c: &mut Criterion) {
    let mut g = c.benchmark_group("signature");
    let sig = SlotSignature::new(1 << 16, 32);
    // Pre-touch a working set.
    for a in 0..1024u64 {
        sig.write(a * 8, fmix64(a * 8), (a % 32) as u32);
        sig.read(a * 8, fmix64(a * 8), ((a + 1) % 32) as u32);
    }
    let mut i = 0u64;
    g.bench_function("slot_sig_read", |b| {
        b.iter(|| {
            i = i.wrapping_add(8);
            let a = black_box(i % 8192);
            sig.read(a, fmix64(a), 3)
        })
    });
    g.bench_function("slot_sig_read_seen", |b| {
        b.iter(|| sig.read(black_box(512), fmix64(512), 3))
    });
    g.bench_function("slot_sig_write", |b| {
        b.iter(|| sig.write(black_box(512), fmix64(512), 5))
    });

    // The exact baseline, for the accuracy/speed/memory trade-off headline.
    let prs = PerfectReaderSet::new();
    let pws = PerfectWriterMap::new();
    for a in 0..1024u64 {
        prs.insert(a * 8, (a % 32) as u32);
        pws.record(a * 8, (a % 32) as u32);
    }
    g.bench_function("perfect_reader_insert", |b| {
        b.iter(|| {
            i = i.wrapping_add(8);
            prs.insert(black_box(i % 8192), 3)
        })
    });
    g.bench_function("perfect_writer_lookup", |b| {
        b.iter(|| pws.last_writer(black_box(512)))
    });
    g.finish();
}

criterion_group!(benches, bench_hashes, bench_signatures);
criterion_main!(benches);
