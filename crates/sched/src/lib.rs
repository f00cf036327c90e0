//! `lc-sched` — deterministic concurrency model checking for loopcomm.
//!
//! A loom-style scheduler (cf. CDSChecker and the dynamic-analysis lineage
//! in PAPERS.md): scenarios run on real OS threads that are serialized by a
//! baton so only one simulated thread executes at a time, and control moves
//! between threads only at *decision points* — the entry of every operation
//! on the shim primitives in [`sync`]. An execution is therefore fully
//! described by its sequence of scheduling decisions, which the
//! [`explore::Explorer`] enumerates exhaustively (DFS with an optional
//! preemption bound) or samples with a seeded RNG, replays from a recorded
//! trace, and minimizes on failure.
//!
//! Value semantics are sequentially consistent (every load sees the latest
//! store), but the scheduler additionally tracks per-thread vector clocks
//! through the acquire/release edges *requested* by each operation and
//! flags any access to a cell whose initialization the accessing thread
//! has no happens-before edge to. That is precisely the observable symptom
//! of publishing a pointer with `Relaxed` where release/acquire is
//! required, so ordering bugs are caught even though plain (non-atomic)
//! memory is not modeled. See DESIGN.md §11 for the full model and its
//! soundness caveats.

#![warn(missing_docs)]

pub mod explore;
mod rt;
pub mod sync;

pub use explore::{ExploreReport, Explorer, ScheduleTrace, SimConfig, ViolationReport};
pub use rt::{Violation, ViolationKind};

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use rt::{current_ctx, vc_join, Runtime, SimAbort, Status, ThreadSlot, CTX};

/// True when the named fault mutant is active in the current simulation.
///
/// Mutants are deliberately-broken variants of production code paths,
/// compiled behind `feature = "sched"` and selected per-simulation via
/// [`SimConfig::mutants`], so parallel tests never interfere. Outside a
/// simulation this is always false: production behavior is untouched.
#[inline]
pub fn mutant_active(name: &str) -> bool {
    match current_ctx() {
        Some(ctx) => ctx.rt.mutants.iter().any(|m| m == name),
        None => false,
    }
}

/// True when `payload` is the unwind the scheduler uses to cut an
/// execution short. Code that catches panics (to turn a worker's panic
/// into an error) must resume this one, or the explorer loses control of
/// the thread.
pub fn is_abort(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.is::<SimAbort>()
}

/// Append a ground-truth record to the execution's serialized op log.
///
/// Annotations do not reschedule, so "shim op, then annotate" is atomic
/// with respect to the explored interleavings — the log order equals the
/// execution order of the annotated operations. Scenarios read it back
/// with [`op_log`] to drive the perfect oracle. No-op outside a sim.
#[inline]
pub fn annotate(data: [u64; 4]) {
    if let Some(ctx) = current_ctx() {
        ctx.rt.annotate(ctx.tid, data);
    }
}

/// Snapshot of the current execution's op log as `(tid, data)` records.
pub fn op_log() -> Vec<(usize, [u64; 4])> {
    match current_ctx() {
        Some(ctx) => ctx.rt.lock_state().op_log.clone(),
        None => Vec::new(),
    }
}

/// Handle to a simulated thread, returned by [`spawn`].
pub struct JoinHandle {
    tid: usize,
    rt: Arc<Runtime>,
}

impl JoinHandle {
    /// Wait (in simulated time) for the thread to finish. Joining also
    /// merges the child's vector clock into the caller's, mirroring the
    /// happens-before edge a real `join` provides.
    pub fn join(self) {
        let ctx = current_ctx().expect("lc_sched::JoinHandle::join outside a simulation");
        assert!(Arc::ptr_eq(&ctx.rt, &self.rt), "join across simulations");
        loop {
            self.rt.yield_point(ctx.tid);
            let mut st = self.rt.lock_state();
            if st.threads[self.tid].status == Status::Finished {
                let child_vc = st.threads[self.tid].vc.clone();
                vc_join(&mut st.threads[ctx.tid].vc, &child_vc);
                return;
            }
            st.threads[ctx.tid].status = Status::BlockedJoin(self.tid);
            let next = self.rt.choose_next(&mut st);
            self.rt.hand_off(st, ctx.tid, next);
        }
    }
}

pub(crate) fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Spawn a simulated thread. Must be called from inside a simulation; the
/// child starts runnable (candidate at the very next decision point) with
/// the spawner's clock — the happens-before edge a real `spawn` provides.
pub fn spawn<F>(f: F) -> JoinHandle
where
    F: FnOnce() + Send + 'static,
{
    let ctx = current_ctx().expect("lc_sched::spawn outside a simulation");
    let child = {
        let mut st = ctx.rt.lock_state();
        let child = st.threads.len();
        let mut vc = st.threads[ctx.tid].vc.clone();
        if vc.len() <= child {
            vc.resize(child + 1, 0);
        }
        vc[child] += 1;
        st.threads.push(ThreadSlot {
            status: Status::Runnable,
            vc,
        });
        child
    };
    let rt = Arc::clone(&ctx.rt);
    let os = std::thread::Builder::new()
        .name(format!("lc-sim-{child}"))
        .spawn(move || {
            CTX.with(|c| {
                *c.borrow_mut() = Some(rt::SimCtx {
                    rt: Arc::clone(&rt),
                    tid: child,
                })
            });
            // Wait for the first baton grant before touching user code.
            {
                let mut st = rt.lock_state();
                while st.current != child && !st.aborting {
                    st = rt.cv.wait(st).unwrap_or_else(|p| p.into_inner());
                }
                if st.aborting {
                    st.threads[child].status = Status::Finished;
                    rt.cv.notify_all();
                    return;
                }
            }
            let r = catch_unwind(AssertUnwindSafe(f));
            finish_thread(&rt, child, r);
        })
        .expect("failed to spawn simulated thread");
    ctx.rt
        .os_handles
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .push(os);
    // Decision point: the child is now a scheduling candidate.
    ctx.rt.yield_point(ctx.tid);
    JoinHandle {
        tid: child,
        rt: Arc::clone(&ctx.rt),
    }
}

fn finish_thread(rt: &Arc<Runtime>, me: usize, r: Result<(), Box<dyn std::any::Any + Send>>) {
    let mut st = rt.lock_state();
    if let Err(p) = r {
        if p.downcast_ref::<SimAbort>().is_none() {
            let msg = panic_message(p.as_ref());
            rt.record_violation(
                &mut st,
                ViolationKind::Panic,
                format!("simulated thread t{me} panicked: {msg}"),
            );
        }
    }
    st.threads[me].status = Status::Finished;
    for t in st.threads.iter_mut() {
        if t.status == Status::BlockedJoin(me) {
            t.status = Status::Runnable;
        }
    }
    if st.aborting {
        rt.cv.notify_all();
        return;
    }
    let next = rt.choose_next(&mut st);
    if next != me {
        st.current = next;
        rt.cv.notify_all();
    }
}

#[cfg(test)]
mod tests;
