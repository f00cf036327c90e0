//! Ablations of the design choices DESIGN.md calls out:
//!
//! * hash function choice (MurmurHash finalizer vs FNV-1a vs
//!   multiply-shift) — the paper picks Murmur for speed + collision quality;
//! * lock-free vs mutex-guarded signature under contention — the paper's
//!   "C++11 lock-free primitives" decision (§IV-D3).
//!
//! The two-level read signature vs a flat per-slot reader bitmask ablation
//! is gone: the flat mask won and is now the signature itself
//! (`lc_sigmem::SlotSignature`, DESIGN.md §12).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use parking_lot::Mutex;
use std::hint::black_box;

use lc_sigmem::murmur::fmix64;
use lc_sigmem::{Signature, SlotSignature};

// --- hash choice ----------------------------------------------------------

#[inline]
fn fnv1a64(mut x: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..8 {
        h ^= x & 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        x >>= 8;
    }
    h
}

#[inline]
fn multiply_shift(x: u64) -> u64 {
    // Dietzfelbinger-style: fast, but weak low-bit diffusion.
    x.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 17
}

fn bench_hash_choice(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_hash_choice");
    let mut x = 0x4000_1230u64;
    g.bench_function("murmur_fmix64", |b| {
        b.iter(|| {
            x = x.wrapping_add(64);
            fmix64(black_box(x))
        })
    });
    g.bench_function("fnv1a", |b| {
        b.iter(|| {
            x = x.wrapping_add(64);
            fnv1a64(black_box(x))
        })
    });
    g.bench_function("multiply_shift", |b| {
        b.iter(|| {
            x = x.wrapping_add(64);
            multiply_shift(black_box(x))
        })
    });
    g.finish();

    // Collision quality on sequential addresses (the workload reality):
    // reported once via eprintln so the trade-off is visible in logs.
    let slots = 4096u64;
    let collide = |h: &dyn Fn(u64) -> u64| {
        let mut used = std::collections::HashSet::new();
        (0..2048u64)
            .filter(|i| !used.insert(h(0x1000 + i * 8) % slots))
            .count()
    };
    eprintln!(
        "[ablation] collisions over 2048 seq addrs into 4096 slots: murmur={} fnv={} mulshift={}",
        collide(&|x| fmix64(x)),
        collide(&fnv1a64),
        collide(&multiply_shift),
    );
}

// --- lock-free vs mutex signature under contention --------------------------

/// Mutex-guarded stand-in for the read signature (what the paper avoided).
struct MutexSignature {
    slots: Vec<Mutex<std::collections::HashSet<u32>>>,
}

impl MutexSignature {
    fn new(n: usize) -> Self {
        Self {
            slots: (0..n).map(|_| Mutex::new(Default::default())).collect(),
        }
    }
    fn insert(&self, addr: u64, tid: u32) {
        self.slots[(fmix64(addr) % self.slots.len() as u64) as usize]
            .lock()
            .insert(tid);
    }
}

fn contended<F: Fn(u32, u64) + Sync>(threads: usize, iters: u64, f: F) {
    std::thread::scope(|s| {
        for t in 0..threads as u32 {
            let f = &f;
            s.spawn(move || {
                for i in 0..iters {
                    // Shared hot set: every thread hits the same few slots.
                    f(t, 0x1000 + (i % 64) * 8);
                }
            });
        }
    });
}

fn bench_lockfree_vs_mutex(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_lockfree_vs_mutex");
    g.sample_size(10);
    let threads = 4;
    let iters = 20_000;

    g.bench_function("lockfree_slot_signature", |b| {
        let sig = Arc::new(SlotSignature::new(1 << 12, 32));
        b.iter(|| {
            contended(threads, iters, |t, a| {
                sig.read(a, fmix64(a), t);
            })
        })
    });
    g.bench_function("mutex_signature", |b| {
        let sig = Arc::new(MutexSignature::new(1 << 12));
        b.iter(|| contended(threads, iters, |t, a| sig.insert(a, t)))
    });
    g.finish();
}

// --- dense vs sparse matrix accumulator (§VII future work) -------------------

fn bench_dense_vs_sparse(c: &mut Criterion) {
    use lc_profiler::{CommMatrix, SparseCommMatrix};
    let mut g = c.benchmark_group("ablation_matrix_accumulator");
    let t = 64;
    let dense = CommMatrix::new(t);
    let sparse = SparseCommMatrix::new(t);
    let mut i = 0u32;
    g.bench_function("dense_add", |b| {
        b.iter(|| {
            i = (i + 1) % 63;
            dense.add(black_box(i), black_box(i + 1), 8)
        })
    });
    g.bench_function("sparse_add", |b| {
        b.iter(|| {
            i = (i + 1) % 63;
            sparse.add(black_box(i), black_box(i + 1), 8)
        })
    });
    // Report the memory trade-off alongside the speed numbers.
    eprintln!(
        "[ablation] pipeline pattern at t={t}: dense {} B vs sparse {} B ({} pairs)",
        dense.memory_bytes(),
        sparse.memory_bytes(),
        sparse.nnz()
    );
    g.finish();
}

criterion_group!(
    benches,
    bench_hash_choice,
    bench_lockfree_vs_mutex,
    bench_dense_vs_sparse
);
criterion_main!(benches);
