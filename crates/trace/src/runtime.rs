//! Instrumented parallel runtime: thread spawning and barriers.
//!
//! SPLASH-style programs are barrier-synchronized SPMD codes. This module
//! provides the two pieces the workloads need: [`run_threads`] (spawn `t`
//! registered threads and wait for all) and [`InstrumentedBarrier`], a
//! sense-reversing barrier whose arrival/release protocol performs traced
//! accesses on a shared word — so barrier synchronization shows up in the
//! communication matrix as the one-to-all pattern the paper's Figure 6
//! labels `barrier()`.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::ctx::TraceCtx;
use crate::event::{FuncId, LoopId};
use crate::loops::enter_loop;
use crate::memory::TracedBuffer;
use crate::registry::ThreadGuard;

/// Spawn `threads` scoped threads, register them with dense ids 0..t and
/// run `f(tid)` on each. Returns when all have finished. Panics in workers
/// propagate. The caller's capture tile is delivered first, and each
/// worker's is delivered when its registration guard drops.
pub fn run_threads<F>(threads: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    assert!(threads >= 1);
    crate::tile::flush_thread();
    std::thread::scope(|s| {
        for tid in 0..threads {
            let f = &f;
            s.spawn(move || {
                let _guard = ThreadGuard::register(tid as u32);
                f(tid);
            });
        }
    });
}

/// A reusable sense-reversing barrier with instrumented arrival/release.
///
/// Real synchronization uses untraced atomics (the profiler must not
/// deadlock the program); the *communication* of the barrier is modelled by
/// a traced write on arrival and a traced read on release, yielding a RAW
/// edge from the last arriver to every released thread — exactly the
/// implicit communication a shared-memory barrier performs.
pub struct InstrumentedBarrier {
    n: usize,
    count: AtomicUsize,
    sense: AtomicBool,
    slot: TracedBuffer<u64>,
    loop_id: LoopId,
}

impl InstrumentedBarrier {
    /// Create a barrier for `n` threads inside `ctx`, annotated as a loop
    /// region named `label` under function `func` (so its communication is
    /// attributed to its own node in the nested-pattern tree).
    pub fn new(ctx: &Arc<TraceCtx>, n: usize, label: &str, func: FuncId) -> Self {
        assert!(n >= 1);
        let loop_id = ctx.root_loop(label, func);
        Self {
            n,
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            slot: ctx.alloc(1),
            loop_id,
        }
    }

    /// The loop UID the barrier's communication is attributed to.
    pub fn loop_id(&self) -> LoopId {
        self.loop_id
    }

    /// Block until all `n` threads have arrived.
    pub fn wait(&self) {
        let _region = enter_loop(self.loop_id);
        // Traced arrival write: the last writer is the last arriver.
        self.slot.store(0, 1);
        // Everything this thread did before arriving reaches the sink
        // before any peer can be released.
        crate::tile::flush_thread();

        let my_sense = !self.sense.load(Ordering::Relaxed);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(my_sense, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.sense.load(Ordering::Acquire) != my_sense {
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }

        // Traced release read: RAW edge last-arriver -> this thread.
        // Delivered at once, as per-access delivery would: left in the tile
        // it would wait for this thread's next arrival, behind the
        // next-round arrival writes of faster peers.
        let _ = self.slot.load(0);
        crate::tile::flush_thread();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CountingSink, RecordingSink};
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_threads_registers_dense_ids() {
        let seen = AtomicU64::new(0);
        run_threads(8, |tid| {
            assert_eq!(crate::registry::current_tid(), tid as u32);
            seen.fetch_or(1 << tid, Ordering::Relaxed);
        });
        assert_eq!(seen.load(Ordering::Relaxed), 0xff);
    }

    #[test]
    fn barrier_synchronizes_phases() {
        let ctx = TraceCtx::new(Arc::new(CountingSink::new()), 4);
        let f = ctx.func("test");
        let bar = InstrumentedBarrier::new(&ctx, 4, "barrier", f);
        let phase_counter = AtomicUsize::new(0);
        run_threads(4, |_tid| {
            for phase in 0..5 {
                // Everyone must observe at least `phase * 4` increments
                // after the barrier, or the barrier is broken.
                phase_counter.fetch_add(1, Ordering::SeqCst);
                bar.wait();
                let c = phase_counter.load(Ordering::SeqCst);
                assert!(c >= (phase + 1) * 4, "phase {phase}: count {c}");
            }
        });
    }

    #[test]
    fn barrier_emits_traced_accesses() {
        let rec = Arc::new(RecordingSink::new());
        let ctx = TraceCtx::new(rec.clone(), 4);
        let f = ctx.func("test");
        let bar = InstrumentedBarrier::new(&ctx, 4, "barrier", f);
        run_threads(4, |_| bar.wait());
        let trace = rec.finish();
        // 4 arrival writes + 4 release reads.
        assert_eq!(trace.len(), 8);
        // All attributed to the barrier's loop region.
        assert!(trace
            .events()
            .iter()
            .all(|e| e.event.loop_id == bar.loop_id()));
    }

    #[test]
    fn barrier_is_reusable_across_many_phases() {
        let ctx = TraceCtx::new(Arc::new(CountingSink::new()), 3);
        let f = ctx.func("test");
        let bar = InstrumentedBarrier::new(&ctx, 3, "barrier", f);
        run_threads(3, |_| {
            for _ in 0..100 {
                bar.wait();
            }
        });
    }

    #[test]
    fn single_thread_barrier_never_blocks() {
        let ctx = TraceCtx::new(Arc::new(CountingSink::new()), 1);
        let f = ctx.func("test");
        let bar = InstrumentedBarrier::new(&ctx, 1, "barrier", f);
        run_threads(1, |_| {
            bar.wait();
            bar.wait();
        });
    }
}
