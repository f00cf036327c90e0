//! The cooperative scheduling runtime.
//!
//! One [`Runtime`] drives one *execution*: real OS threads serialized by a
//! baton so that exactly one simulated thread runs at a time. Control can
//! transfer only at *decision points* — the entry of every shim sync
//! operation ([`crate::sync`]) — so the set of reachable interleavings is
//! exactly the set of decision sequences, which the explorer enumerates.
//!
//! Besides serialization the runtime tracks, per thread, a vector clock
//! that release stores / acquire loads / mutex hand-offs propagate. Each
//! shim cell records the clock of its creator ("birth"); an access by a
//! thread whose clock has not caught up to the birth means the cell was
//! published without a happens-before edge from its initialization — the
//! classic relaxed-publish bug — and is reported as a violation even
//! though the interleaving semantics here are sequentially consistent.

use std::panic::panic_any;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomOrd};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

/// Number of simulations currently running anywhere in the process. Lets
/// the shim fast path skip the thread-local probe entirely in normal runs.
pub(crate) static ACTIVE_SIMS: AtomicUsize = AtomicUsize::new(0);

/// Monotonic id distinguishing executions, so cell metadata left over from
/// a previous execution is recognized as stale instead of misread.
pub(crate) static EXEC_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    pub(crate) static CTX: std::cell::RefCell<Option<SimCtx>> =
        const { std::cell::RefCell::new(None) };
}

/// Per-OS-thread simulation context: which runtime, which simulated tid.
#[derive(Clone)]
pub(crate) struct SimCtx {
    pub rt: Arc<Runtime>,
    pub tid: usize,
}

pub(crate) fn current_ctx() -> Option<SimCtx> {
    if ACTIVE_SIMS.load(AtomOrd::Relaxed) == 0 {
        return None;
    }
    CTX.with(|c| c.borrow().clone())
}

/// Panic payload used to tear down sibling threads after a violation or at
/// the end of an execution with leaked threads. Caught (and swallowed) by
/// the per-thread wrapper and by the explorer.
pub(crate) struct SimAbort;

/// A vector clock over simulated thread ids.
pub(crate) type Vc = Vec<u32>;

pub(crate) fn vc_join(into: &mut Vc, other: &Vc) {
    if into.len() < other.len() {
        into.resize(other.len(), 0);
    }
    for (i, &v) in other.iter().enumerate() {
        if into[i] < v {
            into[i] = v;
        }
    }
}

pub(crate) fn vc_leq(a: &Vc, b: &Vc) -> bool {
    a.iter()
        .enumerate()
        .all(|(i, &v)| v <= b.get(i).copied().unwrap_or(0))
}

/// What went wrong in an execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// An oracle assertion (or any other panic) fired inside the scenario.
    Panic,
    /// No runnable thread remains but some are blocked.
    Deadlock,
    /// A shim cell was accessed by a thread with no happens-before edge to
    /// the cell's initialization (relaxed-publish class of bug).
    InitRace,
    /// A replayed decision trace asked for a thread that is not enabled.
    ReplayDivergence,
    /// The scenario returned while spawned threads were still unfinished.
    LeakedThread,
}

/// A violation plus the decision trace that produces it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Classification of the failure.
    pub kind: ViolationKind,
    /// Human-readable description (panic message, lock cycle, cell info).
    pub message: String,
}

/// One recorded scheduling decision: the enabled set at a branching point
/// (len > 1 always — unforced points only) and the index chosen.
#[derive(Debug, Clone)]
pub(crate) struct Decision {
    pub enabled: Vec<u16>,
    pub chosen_idx: usize,
}

/// How the runtime picks among enabled threads at a decision point.
pub(crate) enum Decider {
    /// Follow `prefix` by index, then always pick index 0 (run-to-block).
    Dfs { prefix: Vec<usize>, pos: usize },
    /// Seeded splitmix64 choices.
    Random(crate::explore::SplitMix64),
    /// Follow recorded tids exactly; divergence is a violation.
    Replay { choices: Vec<u16>, pos: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    Runnable,
    /// Waiting for a shim mutex identified by its address.
    BlockedMutex(usize),
    /// Waiting for another simulated thread to finish.
    BlockedJoin(usize),
    /// Waiting on a shim condition variable identified by its address.
    BlockedCondvar(usize),
    Finished,
}

pub(crate) struct ThreadSlot {
    pub status: Status,
    pub vc: Vc,
}

pub(crate) struct RtState {
    pub threads: Vec<ThreadSlot>,
    /// The simulated tid currently holding the baton.
    pub current: usize,
    pub decider: Decider,
    pub trace: Vec<Decision>,
    pub preemptions: usize,
    pub steps: u64,
    pub violation: Option<Violation>,
    pub aborting: bool,
    /// Serialized log of scenario-level annotations, in execution order.
    pub op_log: Vec<(usize, [u64; 4])>,
}

/// One deterministic execution: the baton, the shared state, the config.
pub struct Runtime {
    pub(crate) exec_id: u64,
    pub(crate) state: StdMutex<RtState>,
    pub(crate) cv: Condvar,
    pub(crate) max_preemptions: Option<usize>,
    pub(crate) max_steps: u64,
    pub(crate) mutants: Vec<String>,
    /// OS handles of spawned threads, joined by the explorer at teardown.
    pub(crate) os_handles: StdMutex<Vec<std::thread::JoinHandle<()>>>,
}

fn lock_recover<T>(m: &StdMutex<T>) -> StdMutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl Runtime {
    pub(crate) fn new(
        decider: Decider,
        max_preemptions: Option<usize>,
        max_steps: u64,
        mutants: Vec<String>,
    ) -> Self {
        Runtime {
            exec_id: EXEC_IDS.fetch_add(1, AtomOrd::Relaxed),
            state: StdMutex::new(RtState {
                threads: vec![ThreadSlot {
                    status: Status::Runnable,
                    vc: vec![1],
                }],
                current: 0,
                decider,
                trace: Vec::new(),
                preemptions: 0,
                steps: 0,
                violation: None,
                aborting: false,
                op_log: Vec::new(),
            }),
            cv: Condvar::new(),
            max_preemptions,
            max_steps,
            mutants,
            os_handles: StdMutex::new(Vec::new()),
        }
    }

    pub(crate) fn lock_state(&self) -> StdMutexGuard<'_, RtState> {
        lock_recover(&self.state)
    }

    pub(crate) fn record_violation(&self, st: &mut RtState, kind: ViolationKind, message: String) {
        if st.violation.is_none() {
            st.violation = Some(Violation { kind, message });
        }
        st.aborting = true;
        self.cv.notify_all();
    }

    /// Enabled threads at a decision point, in deterministic order:
    /// the previously-running thread first when runnable (so index 0 is
    /// always "don't preempt"), then the rest by ascending tid.
    fn enabled_set(st: &RtState) -> Vec<u16> {
        let prev = st.current;
        let mut out = Vec::new();
        if st.threads[prev].status == Status::Runnable {
            out.push(prev as u16);
        }
        for (tid, t) in st.threads.iter().enumerate() {
            if tid != prev && t.status == Status::Runnable {
                out.push(tid as u16);
            }
        }
        out
    }

    /// Pick the next thread to run and hand it the baton. Called with the
    /// state locked, by whichever thread is giving up the baton. Returns
    /// the chosen tid; the caller updates `st.current` and notifies.
    ///
    /// Only *branching* points (more than one enabled thread, preemption
    /// budget permitting) consume a decision and are recorded in the trace;
    /// forced moves keep traces small and the DFS frontier exact.
    pub(crate) fn choose_next(&self, st: &mut RtState) -> usize {
        let mut enabled = Self::enabled_set(st);
        if enabled.is_empty() {
            if st.threads.iter().all(|t| t.status == Status::Finished) {
                // Nothing left to schedule; callers handle this only
                // from thread-exit, where it is legal.
                return st.current;
            }
            let blocked: Vec<String> = st
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.status != Status::Finished)
                .map(|(i, t)| format!("t{} {:?}", i, t.status))
                .collect();
            self.record_violation(
                st,
                ViolationKind::Deadlock,
                format!("deadlock: no runnable thread ({})", blocked.join(", ")),
            );
            return st.current;
        }

        let prev = st.current;
        let prev_enabled = enabled.first() == Some(&(prev as u16));
        // Preemption budget exhausted: keep running the current thread.
        if prev_enabled
            && enabled.len() > 1
            && self
                .max_preemptions
                .is_some_and(|max| st.preemptions >= max)
        {
            enabled.truncate(1);
        }

        if enabled.len() == 1 {
            return enabled[0] as usize;
        }

        let chosen_idx = match &mut st.decider {
            Decider::Dfs { prefix, pos } => {
                let idx = prefix.get(*pos).copied().unwrap_or(0);
                *pos += 1;
                idx.min(enabled.len() - 1)
            }
            Decider::Random(rng) => (rng.next_u64() % enabled.len() as u64) as usize,
            Decider::Replay { choices, pos } => {
                let want = choices.get(*pos).copied();
                *pos += 1;
                match want.and_then(|w| enabled.iter().position(|&e| e == w)) {
                    Some(idx) => idx,
                    None => {
                        self.record_violation(
                            st,
                            ViolationKind::ReplayDivergence,
                            format!(
                                "replay divergence at decision {}: wanted {:?}, enabled {:?}",
                                st.trace.len(),
                                want,
                                enabled
                            ),
                        );
                        return st.current;
                    }
                }
            }
        };
        let chosen = enabled[chosen_idx] as usize;
        if prev_enabled && chosen != prev {
            st.preemptions += 1;
        }
        st.trace.push(Decision {
            enabled,
            chosen_idx,
        });
        chosen
    }

    /// Transfer the baton to `next` and, unless it is `me`, park until the
    /// baton comes back (or the execution aborts, in which case unwind).
    pub(crate) fn hand_off(&self, mut st: StdMutexGuard<'_, RtState>, me: usize, next: usize) {
        if next != me {
            st.current = next;
            self.cv.notify_all();
            while st.current != me && !st.aborting {
                st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        }
        if st.aborting {
            drop(st);
            panic_any(SimAbort);
        }
    }

    /// The decision point entered by every shim operation. Advances the
    /// thread's clock component, then possibly reschedules.
    pub(crate) fn yield_point(&self, me: usize) {
        if std::thread::panicking() {
            // Shim ops that run during unwind (Drop impls) must not
            // reschedule: a SimAbort here would double-panic and abort.
            return;
        }
        let mut st = self.lock_state();
        debug_assert_eq!(st.current, me, "yield from a thread without the baton");
        st.steps += 1;
        st.threads[me].vc[me] += 1;
        if st.steps > self.max_steps {
            self.record_violation(
                &mut st,
                ViolationKind::Panic,
                format!(
                    "execution exceeded {} steps (runaway scenario?)",
                    self.max_steps
                ),
            );
            drop(st);
            panic_any(SimAbort);
        }
        let next = self.choose_next(&mut st);
        self.hand_off(st, me, next);
    }

    /// Block the calling thread with the given status and schedule someone
    /// else; returns when the baton is handed back.
    pub(crate) fn block_current(&self, me: usize, status: Status) {
        let mut st = self.lock_state();
        st.threads[me].status = status;
        let next = self.choose_next(&mut st);
        self.hand_off(st, me, next);
    }

    /// Make the threads blocked with `status` runnable: the lowest tid
    /// alone, or all of them.
    pub(crate) fn wake(&self, status: Status, all: bool) {
        let mut st = self.lock_state();
        for t in st.threads.iter_mut().filter(|t| t.status == status) {
            t.status = Status::Runnable;
            if !all {
                break;
            }
        }
    }

    /// Append a ground-truth annotation to the serialized op log. No
    /// rescheduling happens here, so a shim op followed immediately by its
    /// annotation is atomic with respect to the explored interleavings.
    pub(crate) fn annotate(&self, me: usize, data: [u64; 4]) {
        let mut st = self.lock_state();
        st.op_log.push((me, data));
    }
}

/// State attached to every shim cell (atomic or mutex): birth clock and
/// the release clock of the last release-store / unlock, plus for mutexes
/// the holder. Guarded by a plain mutex — only the baton holder touches it.
#[derive(Debug, Default)]
pub(crate) struct CellMeta {
    inner: StdMutex<CellState>,
}

#[derive(Debug, Default)]
struct CellState {
    exec: u64,
    birth: Option<Vc>,
    rel: Option<Vc>,
    held_by: Option<usize>,
}

impl CellMeta {
    /// Record the creating thread's clock, if a simulation is active.
    pub fn on_create(ctx: &SimCtx) -> Self {
        let meta = CellMeta::default();
        {
            let mut cs = lock_recover(&meta.inner);
            let st = ctx.rt.lock_state();
            cs.exec = ctx.rt.exec_id;
            cs.birth = Some(st.threads[ctx.tid].vc.clone());
        }
        meta
    }

    fn with_state<R>(&self, ctx: &SimCtx, f: impl FnOnce(&mut CellState) -> R) -> R {
        let mut cs = lock_recover(&self.inner);
        if cs.exec != ctx.rt.exec_id {
            // Cell created outside this execution (or before any sim):
            // treat as pre-existing with no constraints.
            *cs = CellState {
                exec: ctx.rt.exec_id,
                ..CellState::default()
            };
        }
        f(&mut cs)
    }

    /// Check the initialization happens-before edge for an in-sim access.
    pub fn check_birth(&self, ctx: &SimCtx, what: &str) {
        let bad = self.with_state(ctx, |cs| {
            let st = ctx.rt.lock_state();
            match &cs.birth {
                Some(birth) => !vc_leq(birth, &st.threads[ctx.tid].vc),
                None => false,
            }
        });
        if bad {
            let mut st = ctx.rt.lock_state();
            ctx.rt.record_violation(
                &mut st,
                ViolationKind::InitRace,
                format!(
                    "t{} accessed a {} with no happens-before edge to its \
                     initialization (pointer published without release/acquire?)",
                    ctx.tid, what
                ),
            );
            drop(st);
            panic_any(SimAbort);
        }
    }

    /// Acquire-side of a load/RMW/lock: join the cell's release clock.
    pub fn acquire_from(&self, ctx: &SimCtx, acquire: bool) {
        if !acquire {
            return;
        }
        self.with_state(ctx, |cs| {
            if let Some(rel) = &cs.rel {
                let mut st = ctx.rt.lock_state();
                let rel = rel.clone();
                vc_join(&mut st.threads[ctx.tid].vc, &rel);
            }
        });
    }

    /// Release-side of a store/RMW/unlock. For RMWs (`continue_seq`) the
    /// previous release clock stays visible — the release sequence
    /// continues through the RMW; plain stores replace it.
    pub fn release_to(&self, ctx: &SimCtx, release: bool, continue_seq: bool) {
        self.with_state(ctx, |cs| {
            let st = ctx.rt.lock_state();
            let my = st.threads[ctx.tid].vc.clone();
            drop(st);
            match (release, continue_seq) {
                (true, true) => match &mut cs.rel {
                    Some(rel) => vc_join(rel, &my),
                    None => cs.rel = Some(my),
                },
                (true, false) => cs.rel = Some(my),
                (false, true) => {} // relaxed RMW: sequence continues as-is
                (false, false) => cs.rel = None,
            }
        });
    }

    /// Simulated mutex acquire attempt. Returns true when the lock was
    /// free (now held by `ctx.tid`, clocks joined).
    pub fn try_lock_sim(&self, ctx: &SimCtx) -> bool {
        self.with_state(ctx, |cs| {
            if cs.held_by.is_some() {
                return false;
            }
            cs.held_by = Some(ctx.tid);
            if let Some(rel) = &cs.rel {
                let mut st = ctx.rt.lock_state();
                let rel = rel.clone();
                vc_join(&mut st.threads[ctx.tid].vc, &rel);
            }
            true
        })
    }

    /// Simulated mutex release: publish the holder's clock and wake
    /// threads blocked on this mutex (identified by its address `key`).
    pub fn unlock_sim(&self, ctx: &SimCtx, key: usize) {
        self.with_state(ctx, |cs| {
            let mut st = ctx.rt.lock_state();
            let my = st.threads[ctx.tid].vc.clone();
            match &mut cs.rel {
                Some(rel) => vc_join(rel, &my),
                None => cs.rel = Some(my),
            }
            cs.held_by = None;
            for t in st.threads.iter_mut() {
                if t.status == Status::BlockedMutex(key) {
                    t.status = Status::Runnable;
                }
            }
        });
    }
}
