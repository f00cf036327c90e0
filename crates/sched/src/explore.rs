//! Schedule-space exploration: exhaustive DFS, seeded random sampling,
//! trace replay, and greedy minimization of failing schedules.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering as AtomOrd;
use std::sync::Arc;

use crate::rt::{
    current_ctx, Decider, Runtime, SimAbort, SimCtx, Status, Violation, ViolationKind, ACTIVE_SIMS,
    CTX,
};

/// Deterministic splitmix64 stream for seeded random exploration.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next pseudo-random value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// Exploration configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// DFS preemption bound: maximum number of decisions that switch away
    /// from a still-runnable thread, per execution. `None` = unbounded.
    pub max_preemptions: Option<usize>,
    /// Hard per-execution step cap (runaway-scenario guard).
    pub max_steps: u64,
    /// Hard cap on executions per exhaustive exploration; exceeded sets
    /// `truncated` in the report instead of running forever.
    pub max_schedules: u64,
    /// Fault mutants to activate inside the simulation (see
    /// [`crate::mutant_active`]).
    pub mutants: Vec<String>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_preemptions: Some(2),
            max_steps: 100_000,
            max_schedules: 100_000,
            mutants: Vec::new(),
        }
    }
}

/// A schedule as the sequence of thread ids chosen at each branching
/// decision point — sufficient to replay the execution exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleTrace {
    /// Chosen simulated tid at each recorded (branching) decision.
    pub choices: Vec<u16>,
    /// Preemptions the schedule used.
    pub preemptions: usize,
    /// Total decision-point steps the execution took.
    pub steps: u64,
}

impl ScheduleTrace {
    /// One-line serialization (`choices=1,0,2;preemptions=1;steps=40`),
    /// parseable by [`ScheduleTrace::parse_line`] for replay.
    pub fn to_line(&self) -> String {
        let cs: Vec<String> = self.choices.iter().map(|c| c.to_string()).collect();
        format!(
            "choices={};preemptions={};steps={}",
            cs.join(","),
            self.preemptions,
            self.steps
        )
    }

    /// Parse the output of [`ScheduleTrace::to_line`].
    pub fn parse_line(line: &str) -> Option<ScheduleTrace> {
        let mut choices = None;
        let mut preemptions = 0usize;
        let mut steps = 0u64;
        for part in line.trim().split(';') {
            let (k, v) = part.split_once('=')?;
            match k {
                "choices" => {
                    let cs: Result<Vec<u16>, _> = if v.is_empty() {
                        Ok(Vec::new())
                    } else {
                        v.split(',').map(|c| c.parse()).collect()
                    };
                    choices = Some(cs.ok()?);
                }
                "preemptions" => preemptions = v.parse().ok()?,
                "steps" => steps = v.parse().ok()?,
                _ => return None,
            }
        }
        Some(ScheduleTrace {
            choices: choices?,
            preemptions,
            steps,
        })
    }
}

/// A violation found during exploration, with its repro traces.
#[derive(Debug, Clone)]
pub struct ViolationReport {
    /// Failure classification.
    pub kind: ViolationKind,
    /// Human-readable description.
    pub message: String,
    /// 0-based index of the failing schedule within the exploration.
    pub schedule_index: u64,
    /// The failing schedule as recorded.
    pub trace: ScheduleTrace,
    /// Greedily minimized variant (fewer non-default choices), when
    /// minimization could re-reproduce the failure.
    pub minimized: Option<ScheduleTrace>,
}

/// Result of an exploration run.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Number of executions performed.
    pub schedules: u64,
    /// True when the exhaustive frontier was cut off by `max_schedules`.
    pub truncated: bool,
    /// Maximum decision-point steps over all executions.
    pub max_steps_seen: u64,
    /// Maximum branching-decision count over all executions.
    pub max_decisions: u64,
    /// First violation found, if any (exploration stops at the first).
    pub violation: Option<ViolationReport>,
}

impl ExploreReport {
    /// True when no violation was found.
    pub fn ok(&self) -> bool {
        self.violation.is_none()
    }
}

struct ExecOutcome {
    decisions: Vec<(Vec<u16>, usize)>,
    violation: Option<Violation>,
    preemptions: usize,
    steps: u64,
}

impl ExecOutcome {
    fn schedule(&self) -> ScheduleTrace {
        ScheduleTrace {
            choices: self
                .decisions
                .iter()
                .map(|(enabled, idx)| enabled[*idx])
                .collect(),
            preemptions: self.preemptions,
            steps: self.steps,
        }
    }
}

/// Drives scenarios through the schedule space.
pub struct Explorer {
    cfg: SimConfig,
}

impl Explorer {
    /// Build an explorer with the given configuration.
    pub fn new(cfg: SimConfig) -> Self {
        Explorer { cfg }
    }

    /// Run `scenario` once under the given decider, as simulated thread 0.
    fn run_one<F: Fn()>(&self, scenario: &F, decider: Decider) -> ExecOutcome {
        assert!(
            current_ctx().is_none(),
            "nested simulations are not supported"
        );
        let rt = Arc::new(Runtime::new(
            decider,
            self.cfg.max_preemptions,
            self.cfg.max_steps,
            self.cfg.mutants.clone(),
        ));
        ACTIVE_SIMS.fetch_add(1, AtomOrd::SeqCst);
        CTX.with(|c| {
            *c.borrow_mut() = Some(SimCtx {
                rt: Arc::clone(&rt),
                tid: 0,
            })
        });
        let r = catch_unwind(AssertUnwindSafe(scenario));
        {
            let mut st = rt.lock_state();
            match r {
                Ok(()) => {
                    let leaked = st
                        .threads
                        .iter()
                        .skip(1)
                        .filter(|t| t.status != Status::Finished)
                        .count();
                    if leaked > 0 && st.violation.is_none() {
                        rt.record_violation(
                            &mut st,
                            ViolationKind::LeakedThread,
                            format!("scenario returned with {leaked} unfinished thread(s)"),
                        );
                    }
                }
                Err(p) => {
                    if p.downcast_ref::<SimAbort>().is_none() && st.violation.is_none() {
                        let msg = crate::panic_message(p.as_ref());
                        rt.record_violation(
                            &mut st,
                            ViolationKind::Panic,
                            format!("scenario panicked: {msg}"),
                        );
                    }
                }
            }
            // Tear down any still-parked threads.
            st.aborting = true;
            rt.cv.notify_all();
        }
        let handles: Vec<_> = rt
            .os_handles
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
        CTX.with(|c| *c.borrow_mut() = None);
        ACTIVE_SIMS.fetch_sub(1, AtomOrd::SeqCst);
        let st = rt.lock_state();
        ExecOutcome {
            decisions: st
                .trace
                .iter()
                .map(|d| (d.enabled.clone(), d.chosen_idx))
                .collect(),
            violation: st.violation.clone(),
            preemptions: st.preemptions,
            steps: st.steps,
        }
    }

    fn report_violation<F: Fn()>(
        &self,
        scenario: &F,
        exec: &ExecOutcome,
        schedule_index: u64,
    ) -> ViolationReport {
        let v = exec.violation.clone().expect("violation present");
        let trace = exec.schedule();
        let minimized = self.minimize(scenario, exec);
        ViolationReport {
            kind: v.kind,
            message: v.message,
            schedule_index,
            trace,
            minimized,
        }
    }

    /// Exhaustive DFS over branching decisions, depth-first backtracking
    /// from the last decision with unexplored alternatives. Stops at the
    /// first violation (reported with a minimized repro) or when the
    /// frontier is exhausted / `max_schedules` is hit.
    pub fn explore_exhaustive<F: Fn()>(&self, scenario: F) -> ExploreReport {
        let mut prefix: Vec<usize> = Vec::new();
        let mut report = ExploreReport {
            schedules: 0,
            truncated: false,
            max_steps_seen: 0,
            max_decisions: 0,
            violation: None,
        };
        loop {
            let exec = self.run_one(
                &scenario,
                Decider::Dfs {
                    prefix: prefix.clone(),
                    pos: 0,
                },
            );
            report.schedules += 1;
            report.max_steps_seen = report.max_steps_seen.max(exec.steps);
            report.max_decisions = report.max_decisions.max(exec.decisions.len() as u64);
            if exec.violation.is_some() {
                report.violation =
                    Some(self.report_violation(&scenario, &exec, report.schedules - 1));
                return report;
            }
            if report.schedules >= self.cfg.max_schedules {
                report.truncated = true;
                return report;
            }
            // Backtrack: deepest decision with an unexplored alternative.
            let mut stack = exec.decisions;
            loop {
                let Some((enabled, chosen_idx)) = stack.pop() else {
                    return report; // frontier exhausted
                };
                if chosen_idx + 1 < enabled.len() {
                    prefix = stack.iter().map(|(_, idx)| *idx).collect();
                    prefix.push(chosen_idx + 1);
                    break;
                }
            }
        }
    }

    /// `n` independent executions with seeded random decisions
    /// (deterministic per seed). Stops at the first violation.
    pub fn explore_random<F: Fn()>(&self, seed: u64, n: u64, scenario: F) -> ExploreReport {
        let mut report = ExploreReport {
            schedules: 0,
            truncated: false,
            max_steps_seen: 0,
            max_decisions: 0,
            violation: None,
        };
        for i in 0..n {
            let exec = self.run_one(
                &scenario,
                Decider::Random(SplitMix64(
                    seed.wrapping_add(i).wrapping_mul(0x2545F4914F6CDD1D),
                )),
            );
            report.schedules += 1;
            report.max_steps_seen = report.max_steps_seen.max(exec.steps);
            report.max_decisions = report.max_decisions.max(exec.decisions.len() as u64);
            if exec.violation.is_some() {
                report.violation =
                    Some(self.report_violation(&scenario, &exec, report.schedules - 1));
                return report;
            }
        }
        report
    }

    /// Replay one recorded schedule. Divergence (the trace asking for a
    /// thread that is not enabled) is itself reported as a violation.
    pub fn replay<F: Fn()>(&self, trace: &ScheduleTrace, scenario: F) -> ExploreReport {
        let exec = self.run_one(
            &scenario,
            Decider::Replay {
                choices: trace.choices.clone(),
                pos: 0,
            },
        );
        let violation = exec.violation.clone().map(|v| ViolationReport {
            kind: v.kind,
            message: v.message,
            schedule_index: 0,
            trace: exec.schedule(),
            minimized: None,
        });
        ExploreReport {
            schedules: 1,
            truncated: false,
            max_steps_seen: exec.steps,
            max_decisions: exec.decisions.len() as u64,
            violation,
        }
    }

    /// Greedy minimization: for each decision that deviated from the
    /// default (index 0, "don't switch"), try forcing the default there
    /// and rerunning with default continuation; keep any variant that
    /// still fails. Converges to a schedule where every remaining switch
    /// is necessary for the failure.
    fn minimize<F: Fn()>(&self, scenario: &F, failing: &ExecOutcome) -> Option<ScheduleTrace> {
        let mut best: Vec<usize> = failing.decisions.iter().map(|(_, idx)| *idx).collect();
        let mut best_trace: Option<ScheduleTrace> = None;
        let mut budget = 256u32; // replays, not schedules: keep repros cheap
        loop {
            let mut improved = false;
            for i in 0..best.len() {
                if best[i] == 0 {
                    continue;
                }
                if budget == 0 {
                    return best_trace;
                }
                budget -= 1;
                // Force the default at i, truncate the suffix (the enabled
                // sets beyond i may differ), continue with defaults.
                let mut candidate = best[..i].to_vec();
                candidate.push(0);
                let exec = self.run_one(
                    scenario,
                    Decider::Dfs {
                        prefix: candidate,
                        pos: 0,
                    },
                );
                if exec.violation.is_some() {
                    best = exec.decisions.iter().map(|(_, idx)| *idx).collect();
                    best_trace = Some(exec.schedule());
                    improved = true;
                    break;
                }
            }
            if !improved {
                return best_trace.or_else(|| {
                    // Nothing shrank; the original trace is already minimal.
                    Some(failing.schedule())
                });
            }
        }
    }
}
