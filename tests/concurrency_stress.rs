//! Concurrency stress: the lock-free profiler must not lose updates under
//! heavy parallel load, and barrier-structured programs must yield exact,
//! deterministic dependence counts.

use std::sync::Arc;

use lc_profiler::{AsymmetricProfiler, PerfectProfiler, ProfilerConfig};
use lc_sigmem::murmur::fmix64;
use lc_sigmem::{Signature, SignatureConfig};
use lc_trace::{enter_loop, run_threads, InstrumentedBarrier, TracedBuffer};
use loopcomm::prelude::*;

fn flat(threads: usize) -> ProfilerConfig {
    ProfilerConfig {
        threads,
        track_nested: false,
        phase_window: None,
    }
}

/// Barrier-phased producer/consumer with an exactly computable dependence
/// count: in each round every thread writes its block, then every thread
/// reads every *other* thread's block → t·(t−1)·words RAW edges per round.
/// Returns the `exchange` loop both halves run in; the barrier waits sit
/// outside it.
fn exact_exchange(
    profiler: Arc<dyn lc_trace::AccessSink>,
    threads: usize,
    rounds: usize,
    words: usize,
) -> LoopId {
    let ctx = TraceCtx::new(profiler, threads);
    let f = ctx.func("stress");
    let l = ctx.root_loop("exchange", f);
    let bar = InstrumentedBarrier::new(&ctx, threads, "stress_barrier", f);
    let buf: TracedBuffer<u64> = ctx.alloc(threads * words);
    run_threads(threads, |tid| {
        for round in 0..rounds {
            {
                let _g = enter_loop(l);
                for w in 0..words {
                    buf.store(tid * words + w, (round * 31 + w) as u64);
                }
            }
            bar.wait();
            {
                let _g = enter_loop(l);
                for other in 0..threads {
                    if other == tid {
                        continue;
                    }
                    for w in 0..words {
                        std::hint::black_box(buf.load(other * words + w));
                    }
                }
            }
            bar.wait();
        }
    });
    l
}

#[test]
fn perfect_profiler_counts_exactly_under_concurrency() {
    let threads = 8;
    let rounds = 50;
    let words = 16;
    let p = Arc::new(PerfectProfiler::perfect(flat(threads)));
    exact_exchange(p.clone(), threads, rounds, words);

    // Exchange-loop RAW edges: every (writer, reader) pair, every word,
    // every round. (The barrier adds its own separate last-arriver edges.)
    let expected_exchange = (threads * (threads - 1) * words * rounds) as u64;
    let m = p.global_matrix();
    let mut exchange_bytes = 0u64;
    for i in 0..threads {
        for j in 0..threads {
            if i != j {
                exchange_bytes += m.get(i, j);
            }
        }
    }
    // 8 bytes per word edge; barrier traffic also lands off-diagonal, so
    // subtract its bound: ≤ 2 accesses/thread/wait, 2 waits/round.
    let barrier_bound = (threads * rounds * 2 * 8) as u64;
    let expected_bytes = expected_exchange * 8;
    assert!(
        exchange_bytes >= expected_bytes && exchange_bytes <= expected_bytes + barrier_bound,
        "lost or fabricated updates: got {exchange_bytes}, expected {expected_bytes} (+≤{barrier_bound} barrier)"
    );
}

#[test]
fn perfect_profiler_is_run_to_run_deterministic_for_phased_programs() {
    // The global matrix also holds the instrumented barrier's
    // last-arriver edges, which depend on the schedule; the barrier waits
    // outside the `exchange` loop, so that loop's matrix is deterministic
    // by construction: every block is read once per round by every other
    // thread. Two runs must agree on it exactly, and with the closed form.
    let (threads, rounds, words) = (6, 20, 8);
    let run = || {
        let p = Arc::new(PerfectProfiler::perfect(ProfilerConfig {
            threads,
            track_nested: true,
            phase_window: None,
        }));
        let l = exact_exchange(p.clone(), threads, rounds, words);
        p.report()
            .per_loop
            .remove(&l)
            .expect("exchange loop recorded")
    };
    let a = run();
    assert_eq!(a, run(), "exchange loop matrix differs between runs");
    for i in 0..threads {
        for j in 0..threads {
            let expected = if i == j { 0 } else { rounds * words * 8 };
            assert_eq!(a.get(i, j), expected as u64, "cell ({i}, {j})");
        }
    }
}

#[test]
fn asymmetric_profiler_survives_heavy_contention() {
    // Many threads hammering few addresses through small signatures: must
    // neither crash, deadlock, nor report self-communication.
    let threads = 16;
    let p = Arc::new(AsymmetricProfiler::asymmetric(
        SignatureConfig {
            n_slots: 64,
            threads,
        },
        flat(threads),
    ));
    let ctx = TraceCtx::new(p.clone(), threads);
    let buf: TracedBuffer<u64> = ctx.alloc(8);
    run_threads(threads, |tid| {
        for i in 0..5_000u64 {
            let slot = (i % 8) as usize;
            if (i + tid as u64) % 3 == 0 {
                buf.store(slot, i);
            } else {
                std::hint::black_box(buf.load(slot));
            }
        }
    });
    let m = p.global_matrix();
    assert_eq!(p.accesses(), threads as u64 * 5_000);
    for i in 0..threads {
        assert_eq!(m.get(i, i), 0, "self-communication fabricated at {i}");
    }
    assert!(m.total() > 0);
}

#[test]
fn sharded_accumulation_is_lossless_under_concurrency() {
    // Stress the sharded path specifically: nested tracking on (so every
    // flush also races on the lock-free loop registry), many distinct
    // loops, all threads hammering concurrently. Losslessness here means
    // the access count is exact and the per-loop matrices still sum to the
    // global matrix after the final flush.
    let threads = 12;
    let loops = 40;
    let iters = 4_000u64;
    let p = Arc::new(PerfectProfiler::perfect(ProfilerConfig {
        threads,
        track_nested: true,
        phase_window: None,
    }));
    let ctx = TraceCtx::new(p.clone(), threads);
    let f = ctx.func("stress");
    let loop_ids: Vec<_> = (0..loops)
        .map(|i| ctx.root_loop(&format!("l{i}"), f))
        .collect();
    let buf: TracedBuffer<u64> = ctx.alloc(64);
    run_threads(threads, |tid| {
        for i in 0..iters {
            let _g = enter_loop(loop_ids[(i % loops as u64) as usize]);
            let slot = ((i * 7 + tid as u64) % 64) as usize;
            if (i + tid as u64) % 4 == 0 {
                buf.store(slot, i);
            } else {
                std::hint::black_box(buf.load(slot));
            }
        }
    });
    let r = p.report();
    assert_eq!(r.accesses, threads as u64 * iters, "lost accesses");
    assert!(r.dependencies > 0);
    assert_eq!(
        r.per_loop_sum(),
        r.global,
        "per-loop flushes diverged from the global matrix"
    );
    assert!(r.per_loop.len() <= loops + 1, "fabricated loop entries");
    // Reading twice is stable once the workload has quiesced.
    assert_eq!(p.report().global, r.global);
}

#[test]
fn memory_stays_bounded_through_sustained_load() {
    let threads = 8;
    let p = Arc::new(AsymmetricProfiler::asymmetric(
        SignatureConfig::paper_default(1 << 10, threads),
        flat(threads),
    ));
    exact_exchange(p.clone(), threads, 10, 64);
    let after_warm = p.memory_bytes();
    exact_exchange_again(&p, threads);
    assert!(
        p.memory_bytes() <= after_warm + (1 << 14),
        "footprint crept: {} -> {}",
        after_warm,
        p.memory_bytes()
    );
}

fn exact_exchange_again(p: &Arc<AsymmetricProfiler>, threads: usize) {
    // Second, bigger wave through the same profiler instance.
    exact_exchange(p.clone(), threads, 40, 64);
}

#[test]
fn read_signature_has_no_false_negatives_under_parallel_insert_query() {
    // 12 threads read disjoint (addr, tid) streams through the slot
    // signature — racing on shared reader words — while re-querying their
    // own history. The exact oracle is every pair ever read: `has_reader`
    // may err positive (aliasing) but never negative.
    let threads = 12u32;
    let per_thread = 3_000u64;
    let sig = Arc::new(lc_sigmem::SlotSignature::new(1 << 10, threads as usize));
    std::thread::scope(|s| {
        for tid in 0..threads {
            let sig = Arc::clone(&sig);
            s.spawn(move || {
                for i in 0..per_thread {
                    // Overlapping address ranges force reader-word races.
                    let addr = 0x4000 + (i * 8) % 0x2000 + (tid as u64 % 3);
                    sig.read(addr, fmix64(addr), tid);
                    assert!(sig.has_reader(addr, tid), "lost own ({addr:#x},{tid})");
                }
            });
        }
    });
    for tid in 0..threads {
        for i in 0..per_thread {
            let addr = 0x4000 + (i * 8) % 0x2000 + (tid as u64 % 3);
            assert!(
                sig.has_reader(addr, tid),
                "false negative for ({addr:#x}, {tid})"
            );
        }
    }
}

#[test]
fn write_signature_keeps_last_writer_semantics_under_interleaving() {
    // Phase 1: all threads race writes and reads over a shared address
    // range. Any concurrent or subsequent read must yield a tid that
    // actually wrote (aliasing may substitute threads, and a reader's bit
    // lands in the writer's word, but no id is ever fabricated). Phase 2: one
    // thread overwrites every address after the storm has quiesced; it must
    // then be the unique visible writer everywhere — last write wins.
    let threads = 8u32;
    let addrs = 1_024u64;
    let sig = Arc::new(lc_sigmem::SlotSignature::new(4_096, threads as usize));
    std::thread::scope(|s| {
        for tid in 0..threads {
            let sig = Arc::clone(&sig);
            s.spawn(move || {
                for round in 0..20u64 {
                    for a in 0..addrs {
                        let addr = 0x8000 + a * 8;
                        sig.write(addr, fmix64(addr), tid);
                        if (a + round) % 7 == 0 {
                            let (w, _) = sig.read(addr, fmix64(addr), tid);
                            let w = w.expect("mid-storm read");
                            assert!(w < threads, "fabricated writer id {w}");
                        }
                    }
                }
            });
        }
    });
    let marker = threads; // a tid no storm thread used
    for a in 0..addrs {
        let addr = 0x8000 + a * 8;
        sig.write(addr, fmix64(addr), marker);
    }
    for a in 0..addrs {
        assert_eq!(
            sig.last_writer(0x8000 + a * 8),
            Some(marker),
            "stale writer surfaced at {a} after quiescence"
        );
    }
}
