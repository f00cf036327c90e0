//! Bounded model checking of the concurrency core (ISSUE 5 tentpole).
//!
//! Drives the [`loopcomm::simtest`] scenarios — the concurrent Bloom
//! filter, both signatures, and the loop-matrix registry — through the
//! [`lc_sched`] deterministic scheduler: exhaustive DFS over schedule
//! decision points (with a preemption bound where the space is large) and
//! seeded random exploration, with every explored interleaving validated
//! in-scenario against the perfect oracle. Also proves the harness has
//! teeth: five deliberately seeded mutants (a lost-update bit set, a
//! relaxed-ordering publish, a blind registry publish, a dropped
//! contended frame, a torn checkpoint write) are each caught, and the
//! failing schedule replays from its decision trace.
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
fn bloom_two_threads_two_inserts_is_exhaustively_clean() {
    assert_clean_and_multi_schedule("bloom");
}

#[test]
fn write_signature_two_threads_two_records_is_exhaustively_clean() {
    assert_clean_and_multi_schedule("write-sig");
}

#[test]
fn read_signature_publication_race_is_clean_under_preemption_bound() {
    assert_clean_and_multi_schedule("read-sig");
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
fn checkpoint_publication_racing_reader_is_exhaustively_atomic() {
    assert_clean_and_multi_schedule("checkpoint");
}

#[test]
fn exploration_counts_are_deterministic() {
    let a = explore("bloom", clean_cfg("bloom"));
    let b = explore("bloom", clean_cfg("bloom"));
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
fn lost_update_mutant_in_bit_vector_is_caught_via_bloom_oracle() {
    assert_mutant_caught("bloom", "bitvec-lost-update");
}

#[test]
fn lost_update_mutant_is_also_caught_through_the_read_signature() {
    assert_mutant_caught("read-sig", "bitvec-lost-update");
}

#[test]
fn relaxed_publish_mutant_in_read_signature_is_caught_as_init_race() {
    let scenario = simtest::find("read-sig").unwrap();
    let cfg = mutant_cfg("read-sig", "readsig-relaxed-publish");
    let report = Explorer::new(cfg).explore_exhaustive(|| scenario.run());
    let violation = report
        .violation
        .expect("relaxed publication of the lazily allocated filter must be caught");
    assert_eq!(
        violation.kind,
        ViolationKind::InitRace,
        "the defect is a missing happens-before edge to the filter's \
         initialization; got: {}",
        violation.message
    );
}

#[test]
fn blind_publish_mutant_is_caught_via_registry_oracle() {
    assert_mutant_caught("registry", "registry-blind-publish");
}

#[test]
fn dropped_contended_frame_mutant_is_caught_via_ingest_fifo_oracle() {
    assert_mutant_caught("ingest", "ingest-drop-contended-frame");
}

#[test]
fn torn_checkpoint_write_mutant_is_caught_via_reader_oracle() {
    assert_mutant_caught("checkpoint", "checkpoint-torn-write");
}

#[test]
fn mutants_do_not_leak_between_simulations() {
    // A mutant run followed by a clean run of the same scenario: the
    // clean run must not observe the mutant.
    assert_mutant_caught("bloom", "bitvec-lost-update");
    assert_clean_and_multi_schedule("bloom");
}
