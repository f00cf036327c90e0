//! Unit tests for the scheduler itself: determinism, mutual exclusion,
//! deadlock detection, the init-race (relaxed publish) detector, replay
//! and minimization. Scenario-level model checks for the signature memory
//! live in the workspace root's `tests/sched_model_check.rs`.

use std::sync::Arc;

use crate::sync::{AtomicBool, AtomicPtr, AtomicU64, Condvar, Mutex, Ordering};
use crate::{Explorer, ScheduleTrace, SimConfig};

fn cfg(max_preemptions: Option<usize>) -> SimConfig {
    SimConfig {
        max_preemptions,
        ..SimConfig::default()
    }
}

#[test]
fn shim_atomics_work_outside_any_simulation() {
    let a = AtomicU64::new(1);
    assert_eq!(a.fetch_add(2, Ordering::Relaxed), 1);
    assert_eq!(a.load(Ordering::Acquire), 3);
    a.store(9, Ordering::Release);
    assert_eq!(a.swap(4, Ordering::AcqRel), 9);
    assert_eq!(
        a.compare_exchange(4, 5, Ordering::AcqRel, Ordering::Acquire),
        Ok(4)
    );
    let m = Mutex::new(7u32);
    *m.lock() += 1;
    assert_eq!(*m.try_lock().expect("uncontended"), 8);
}

#[test]
fn two_increments_explore_multiple_schedules_and_never_lose_updates() {
    let explorer = Explorer::new(cfg(None));
    let report = explorer.explore_exhaustive(|| {
        let c = Arc::new(AtomicU64::new(0));
        let mut hs = Vec::new();
        for _ in 0..2 {
            let c = Arc::clone(&c);
            hs.push(crate::spawn(move || {
                c.fetch_add(1, Ordering::Relaxed);
                c.fetch_add(1, Ordering::Relaxed);
            }));
        }
        for h in hs {
            h.join();
        }
        assert_eq!(c.load(Ordering::Relaxed), 4);
    });
    assert!(report.ok(), "violation: {:?}", report.violation);
    // 2 threads x 2 ops: at minimum the C(4,2)=6 op interleavings exist.
    assert!(
        report.schedules >= 6,
        "expected >= 6 schedules, got {}",
        report.schedules
    );
    assert!(!report.truncated);
}

#[test]
fn exploration_is_deterministic() {
    let run = || {
        Explorer::new(cfg(Some(2))).explore_exhaustive(|| {
            let c = Arc::new(AtomicU64::new(0));
            let c2 = Arc::clone(&c);
            let h = crate::spawn(move || {
                c2.fetch_add(5, Ordering::Relaxed);
            });
            c.fetch_add(3, Ordering::Relaxed);
            h.join();
            assert_eq!(c.load(Ordering::Relaxed), 8);
        })
    };
    let (a, b) = (run(), run());
    assert_eq!(a.schedules, b.schedules);
    assert_eq!(a.max_steps_seen, b.max_steps_seen);
    assert_eq!(a.max_decisions, b.max_decisions);
}

#[test]
fn mutex_provides_mutual_exclusion_in_every_schedule() {
    let explorer = Explorer::new(cfg(None));
    let report = explorer.explore_exhaustive(|| {
        let m = Arc::new(Mutex::new(0u64));
        let mut hs = Vec::new();
        for _ in 0..2 {
            let m = Arc::clone(&m);
            hs.push(crate::spawn(move || {
                // Non-atomic read-modify-write under the lock: any failure
                // of mutual exclusion loses an update.
                let mut g = m.lock();
                let v = *g;
                *g = v + 1;
            }));
        }
        for h in hs {
            h.join();
        }
        assert_eq!(*m.lock(), 2);
    });
    assert!(report.ok(), "violation: {:?}", report.violation);
    assert!(report.schedules > 1);
}

#[test]
fn abba_lock_order_deadlock_is_detected_and_replayable() {
    let explorer = Explorer::new(cfg(None));
    let scenario = || {
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(Mutex::new(0u32));
        let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
        let h1 = crate::spawn(move || {
            let _ga = a1.lock();
            let _gb = b1.lock();
        });
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let h2 = crate::spawn(move || {
            let _gb = b2.lock();
            let _ga = a2.lock();
        });
        h1.join();
        h2.join();
    };
    let report = explorer.explore_exhaustive(scenario);
    let v = report.violation.expect("ABBA deadlock must be found");
    assert_eq!(v.kind, crate::ViolationKind::Deadlock, "{}", v.message);
    // The recorded trace reproduces the deadlock on replay.
    let replay = explorer.replay(&v.trace, scenario);
    let rv = replay.violation.expect("replay reproduces");
    assert_eq!(rv.kind, crate::ViolationKind::Deadlock);
    // And so does the minimized trace, when one was produced.
    if let Some(min) = &v.minimized {
        let replay = explorer.replay(min, scenario);
        assert!(replay.violation.is_some(), "minimized trace reproduces");
        assert!(min.choices.len() <= v.trace.choices.len());
    }
}

/// One thread waits for a flag a second one sets and notifies. With the
/// flag checked under the mutex, every schedule ends; checked before the
/// mutex is taken, a notify can land between the check and the wait and
/// the waiter blocks for good, which the runtime reports as a deadlock.
fn handshake(check_under_lock: bool) {
    let pair = Arc::new((Mutex::new(false), Condvar::new(), AtomicBool::new(false)));
    let waiter = {
        let pair = Arc::clone(&pair);
        crate::spawn(move || {
            let (m, cv, seen) = &*pair;
            if check_under_lock {
                let mut g = m.lock();
                while !*g {
                    g = cv.wait(g);
                }
            } else if !seen.load(Ordering::Acquire) {
                drop(cv.wait(m.lock()));
            }
        })
    };
    let (m, cv, seen) = &*pair;
    *m.lock() = true;
    seen.store(true, Ordering::Release);
    cv.notify_one();
    waiter.join();
}

#[test]
fn condvar_wait_ends_in_every_schedule_unless_a_wakeup_can_be_lost() {
    let report = Explorer::new(cfg(None)).explore_exhaustive(|| handshake(true));
    assert!(report.ok(), "violation: {:?}", report.violation);
    assert!(report.schedules > 1);
    let report = Explorer::new(cfg(None)).explore_exhaustive(|| handshake(false));
    let v = report.violation.expect("the lost wake-up must be found");
    assert_eq!(v.kind, crate::ViolationKind::Deadlock, "{}", v.message);
    assert!(v.message.contains("BlockedCondvar"), "{}", v.message);
}

/// Publish an atomic through a pointer. With a release store + acquire
/// load every schedule is clean; with relaxed orderings the consumer can
/// reach the cell without a happens-before edge to its initialization,
/// which the vector-clock birth check reports.
fn publish_scenario(store_order: Ordering, load_order: Ordering) {
    let slot: Arc<AtomicPtr<AtomicU64>> = Arc::new(AtomicPtr::new(std::ptr::null_mut()));
    let producer = {
        let slot = Arc::clone(&slot);
        crate::spawn(move || {
            let cell = Box::into_raw(Box::new(AtomicU64::new(41)));
            slot.store(cell, store_order);
        })
    };
    let consumer = {
        let slot = Arc::clone(&slot);
        crate::spawn(move || {
            let p = slot.load(load_order);
            if !p.is_null() {
                // Safety: points at the producer's leaked box, freed below.
                unsafe { &*p }.fetch_add(1, Ordering::Relaxed);
            }
        })
    };
    producer.join();
    consumer.join();
    let p = slot.load(Ordering::Acquire);
    assert!(!p.is_null());
    // Safety: both threads joined; sole owner now.
    let cell = unsafe { Box::from_raw(p) };
    let v = cell.load(Ordering::Relaxed);
    assert!(v == 41 || v == 42, "unexpected value {v}");
}

#[test]
fn release_acquire_publish_is_clean_in_every_schedule() {
    let report = Explorer::new(cfg(None))
        .explore_exhaustive(|| publish_scenario(Ordering::Release, Ordering::Acquire));
    assert!(report.ok(), "violation: {:?}", report.violation);
    assert!(report.schedules > 1);
}

#[test]
fn relaxed_publish_is_caught_as_init_race() {
    let explorer = Explorer::new(cfg(None));
    let report =
        explorer.explore_exhaustive(|| publish_scenario(Ordering::Relaxed, Ordering::Relaxed));
    let v = report.violation.expect("relaxed publish must be caught");
    assert_eq!(v.kind, crate::ViolationKind::InitRace, "{}", v.message);
    assert!(
        v.message.contains("happens-before"),
        "diagnostic names the missing edge: {}",
        v.message
    );
}

#[test]
fn seeded_random_exploration_is_deterministic_per_seed() {
    let run = |seed: u64| {
        Explorer::new(cfg(None)).explore_random(seed, 20, || {
            publish_scenario(Ordering::Release, Ordering::Acquire)
        })
    };
    let (a, b) = (run(7), run(7));
    assert_eq!(a.schedules, b.schedules);
    assert_eq!(a.max_steps_seen, b.max_steps_seen);
    assert_eq!(a.ok(), b.ok());
}

#[test]
fn schedule_trace_round_trips_through_text() {
    let t = ScheduleTrace {
        choices: vec![1, 0, 2, 1],
        preemptions: 2,
        steps: 37,
    };
    assert_eq!(ScheduleTrace::parse_line(&t.to_line()), Some(t));
    let empty = ScheduleTrace {
        choices: vec![],
        preemptions: 0,
        steps: 4,
    };
    assert_eq!(ScheduleTrace::parse_line(&empty.to_line()), Some(empty));
    assert_eq!(ScheduleTrace::parse_line("garbage"), None);
}

#[test]
fn annotations_form_a_serialized_op_log() {
    let report = Explorer::new(cfg(None)).explore_exhaustive(|| {
        let c = Arc::new(AtomicU64::new(0));
        let mut hs = Vec::new();
        for t in 0..2u64 {
            let c = Arc::clone(&c);
            hs.push(crate::spawn(move || {
                c.fetch_add(1, Ordering::Relaxed);
                crate::annotate([1, t, 0, 0]);
            }));
        }
        for h in hs {
            h.join();
        }
        let log = crate::op_log();
        assert_eq!(log.len(), 2, "both annotations recorded");
        let tids: Vec<u64> = log.iter().map(|(_, d)| d[1]).collect();
        assert!(tids.contains(&0) && tids.contains(&1));
    });
    assert!(report.ok(), "violation: {:?}", report.violation);
}

#[test]
fn preemption_bound_zero_still_covers_blocking_switches() {
    // With no preemptions allowed a thread is never switched away from
    // while runnable, but forced switches (block/finish) still branch
    // among successors — so the space stays correct, just much smaller
    // than the unbounded one.
    let scenario = || {
        let c = Arc::new(AtomicU64::new(0));
        let mut hs = Vec::new();
        for _ in 0..2 {
            let c = Arc::clone(&c);
            hs.push(crate::spawn(move || {
                c.fetch_add(1, Ordering::Relaxed);
            }));
        }
        for h in hs {
            h.join();
        }
        assert_eq!(c.load(Ordering::Relaxed), 2);
    };
    let bounded = Explorer::new(cfg(Some(0))).explore_exhaustive(scenario);
    assert!(bounded.ok(), "violation: {:?}", bounded.violation);
    let unbounded = Explorer::new(cfg(None)).explore_exhaustive(scenario);
    assert!(unbounded.ok(), "violation: {:?}", unbounded.violation);
    assert!(
        bounded.schedules < unbounded.schedules,
        "bound 0 ({}) must shrink the space vs unbounded ({})",
        bounded.schedules,
        unbounded.schedules
    );
}

#[test]
fn mutant_flag_is_scoped_to_the_simulation() {
    assert!(!crate::mutant_active("anything"));
    let report = Explorer::new(SimConfig {
        mutants: vec!["demo-mutant".into()],
        ..SimConfig::default()
    })
    .explore_exhaustive(|| {
        assert!(crate::mutant_active("demo-mutant"));
        assert!(!crate::mutant_active("other"));
    });
    assert!(report.ok(), "violation: {:?}", report.violation);
    assert!(!crate::mutant_active("demo-mutant"));
}
