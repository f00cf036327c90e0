//! Bounded model checking of the concurrency core (ISSUE 5 tentpole).
//!
//! Drives the [`loopcomm::simtest`] scenarios — the slot signature, the
//! loop-matrix registry, the bounded hand-off ring under `serve`'s
//! tenants and the other workers, the coherence shard pool, and
//! checkpoint publication —
//! through the [`lc_sched`] deterministic scheduler: exhaustive DFS over
//! schedule decision points (with a preemption bound where the space is
//! large) and seeded random exploration, with every explored interleaving
//! validated in-scenario against the perfect oracle. Also proves the
//! harness has teeth: eight deliberately seeded mutants (a lost-update
//! bit set, a blind registry publish, a dropped contended frame, an idle
//! check blind to a received frame, a lost ring wake-up, a buffer counted
//! home before it is consumed, a claim of a held shard, a torn checkpoint
//! write) are each caught,
//! and the failing schedule replays from its decision trace.
//!
//! Runs under plain `cargo test` (`--test sched_model_check` to select
//! it): `sched` is not a default feature, but the root package's self
//! dev-dependency enables it for every test target. Without the feature
//! the whole file vanishes.

#![cfg(feature = "sched")]

use lc_sched::{Explorer, SimConfig, ViolationKind};
use loopcomm::simtest;

/// Exhaustively explore a registered scenario under `cfg`.
fn explore(name: &str, cfg: SimConfig) -> lc_sched::ExploreReport {
    let scenario = simtest::find(name).expect("scenario registered");
    Explorer::new(cfg).explore_exhaustive(|| scenario.run())
}

/// Config for clean (mutant-free) exploration of `name`, using the
/// scenario's suggested preemption bound.
fn clean_cfg(name: &str) -> SimConfig {
    SimConfig {
        max_preemptions: simtest::find(name)
            .expect("scenario registered")
            .default_preemption_bound,
        ..SimConfig::default()
    }
}

/// Same, with one mutant enabled for this simulation only.
fn mutant_cfg(name: &str, mutant: &str) -> SimConfig {
    SimConfig {
        mutants: vec![mutant.to_string()],
        ..clean_cfg(name)
    }
}

fn assert_clean_and_multi_schedule(name: &str) {
    let report = explore(name, clean_cfg(name));
    assert!(
        report.ok(),
        "scenario `{name}` must satisfy the oracle in every explored \
         schedule, but: {:?}",
        report.violation
    );
    assert!(!report.truncated, "scenario `{name}` exploration truncated");
    assert!(
        report.schedules > 1,
        "scenario `{name}` must actually branch (got {} schedule)",
        report.schedules
    );
}

// ---------------------------------------------------------------------------
// Exhaustive clean exploration: every interleaving satisfies the oracle.
// ---------------------------------------------------------------------------

#[test]
fn write_signature_two_threads_two_records_is_exhaustively_clean() {
    assert_clean_and_multi_schedule("write-sig");
}

/// The slot signature has no lazily published filter any more; the race
/// left on the read path is two readers' bit ORs into one shared word.
#[test]
fn read_signature_publication_race_is_clean_under_preemption_bound() {
    assert_clean_and_multi_schedule("read-sig");
}

#[test]
fn slot_signature_two_threads_two_accesses_is_exhaustively_clean() {
    assert_clean_and_multi_schedule("slot-sig");
}

#[test]
fn registry_publish_race_is_exhaustively_exact() {
    assert_clean_and_multi_schedule("registry");
}

#[test]
fn ingest_queue_producer_racing_drain_is_exhaustively_fifo() {
    assert_clean_and_multi_schedule("ingest");
}

#[test]
fn quiesce_idle_check_never_hides_a_popped_frame() {
    assert_clean_and_multi_schedule("quiesce");
}

#[test]
fn handoff_fillers_racing_close_lose_and_duplicate_nothing() {
    assert_clean_and_multi_schedule("handoff");
}

#[test]
fn shard_pool_runs_each_shard_in_order_on_one_thread_and_loses_nothing() {
    assert_clean_and_multi_schedule("shards");
}

/// Held by the tests that explore `checkpoint`, so one can look for the
/// scenario's files while the other is not making any.
static CHECKPOINT_FILES: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn checkpoint_publication_racing_reader_is_exhaustively_atomic() {
    let _files = CHECKPOINT_FILES.lock().unwrap_or_else(|e| e.into_inner());
    assert_clean_and_multi_schedule("checkpoint");
}

#[test]
fn exploration_counts_are_deterministic() {
    let a = explore("read-sig", clean_cfg("read-sig"));
    let b = explore("read-sig", clean_cfg("read-sig"));
    assert_eq!(a.schedules, b.schedules);
    assert_eq!(a.max_decisions, b.max_decisions);
    assert_eq!(a.max_steps_seen, b.max_steps_seen);
}

// ---------------------------------------------------------------------------
// Seeded random exploration: same oracle, sampled schedules.
// ---------------------------------------------------------------------------

#[test]
fn seeded_random_exploration_of_every_scenario_is_clean() {
    for scenario in simtest::scenarios() {
        let cfg = clean_cfg(scenario.name);
        let report = Explorer::new(cfg).explore_random(0xC0FFEE, 64, || scenario.run());
        assert!(
            report.ok(),
            "random exploration of `{}` violated the oracle: {:?}",
            scenario.name,
            report.violation
        );
        assert_eq!(report.schedules, 64);
    }
}

// ---------------------------------------------------------------------------
// Mutants: the harness must catch each seeded bug and replay the schedule.
// ---------------------------------------------------------------------------

/// Explore `name` with `mutant` active; assert a violation is found,
/// replay its decision trace (and the minimized trace, when present) and
/// check the replays reproduce a violation deterministically.
fn assert_mutant_caught(name: &str, mutant: &str) {
    let scenario = simtest::find(name).expect("scenario registered");
    assert!(
        scenario.catchable_mutants.contains(&mutant),
        "registry must advertise that `{name}` catches `{mutant}`"
    );
    let cfg = mutant_cfg(name, mutant);
    let report = Explorer::new(cfg.clone()).explore_exhaustive(|| scenario.run());
    let violation = report
        .violation
        .as_ref()
        .unwrap_or_else(|| panic!("mutant `{mutant}` must be caught by scenario `{name}`"));

    // The failing schedule replays from its recorded decision trace.
    let replay = Explorer::new(cfg.clone()).replay(&violation.trace, || scenario.run());
    let replayed = replay
        .violation
        .as_ref()
        .expect("replaying the failing trace must reproduce a violation");
    assert_ne!(
        replayed.kind,
        ViolationKind::ReplayDivergence,
        "replay must follow the recorded schedule, not diverge"
    );

    // The minimized repro (when minimization shrank anything) also fails.
    if let Some(min) = &violation.minimized {
        assert!(
            min.choices.len() <= violation.trace.choices.len(),
            "minimized trace must not be longer than the original"
        );
        let min_replay = Explorer::new(cfg).replay(min, || scenario.run());
        assert!(
            min_replay.violation.is_some(),
            "minimized trace must still reproduce a violation"
        );
    }
}

#[test]
fn lost_update_mutant_is_also_caught_through_the_read_signature() {
    assert_mutant_caught("read-sig", "bitvec-lost-update");
}

#[test]
fn lost_update_mutant_is_also_caught_through_the_slot_signature() {
    assert_mutant_caught("slot-sig", "bitvec-lost-update");
}

#[test]
fn blind_publish_mutant_is_caught_via_registry_oracle() {
    assert_mutant_caught("registry", "registry-blind-publish");
}

#[test]
fn dropped_contended_frame_mutant_is_caught_via_ingest_fifo_oracle() {
    assert_mutant_caught("ingest", "ingest-drop-contended-frame");
}

/// The mutant is the emptiness check `Tenant::quiet` made before the
/// queue counted a popped frame as unfinished.
#[test]
fn idle_when_empty_mutant_is_caught_via_quiesce_oracle() {
    assert_mutant_caught("quiesce", "queue-idle-when-empty");
}

/// A send that does not wake the parked drainer leaves every thread
/// blocked: the runtime's deadlock check, not the oracle, catches it.
#[test]
fn lost_wakeup_mutant_is_caught_as_a_deadlock_via_handoff() {
    assert_mutant_caught("handoff", "ring-lost-wakeup");
    let scenario = simtest::find("handoff").expect("scenario registered");
    let report = Explorer::new(mutant_cfg("handoff", "ring-lost-wakeup"))
        .explore_exhaustive(|| scenario.run());
    assert_eq!(
        report.violation.expect("caught").kind,
        ViolationKind::Deadlock
    );
}

#[test]
fn recycle_before_consumed_mutant_is_caught_via_handoff_bound() {
    assert_mutant_caught("handoff", "ring-recycle-before-consumed");
}

/// A worker claiming a shard another one holds runs one shard on two
/// threads: the pool's own lock check fails the run, or the shard runs a
/// later chunk first.
#[test]
fn claim_of_a_held_shard_mutant_is_caught_via_shards_oracle() {
    assert_mutant_caught("shards", "pool-claim-held-shard");
}

#[test]
fn torn_checkpoint_write_mutant_is_caught_via_reader_oracle() {
    let _files = CHECKPOINT_FILES.lock().unwrap_or_else(|e| e.into_inner());
    assert_mutant_caught("checkpoint", "checkpoint-torn-write");
    // Every schedule the violation cut short removed its files too.
    let prefix = simtest::checkpoint_file_prefix();
    let left: Vec<_> = (std::fs::read_dir(std::env::temp_dir()).expect("temp dir lists"))
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with(&prefix))
        .collect();
    assert!(
        left.is_empty(),
        "checkpoint scenario files left behind: {left:?}"
    );
}

#[test]
fn mutants_do_not_leak_between_simulations() {
    // A mutant run followed by a clean run of the same scenario: the
    // clean run must not observe the mutant.
    assert_mutant_caught("read-sig", "bitvec-lost-update");
    assert_clean_and_multi_schedule("read-sig");
}
