//! Property tests over the coherence backend's MESI protocol and its
//! determinism guarantees.
//!
//! Random multi-thread access scripts are streamed through a
//! [`CoherenceBackend`] one event at a time, and after *every* event the
//! full per-line cache-state vector is checked against a protocol oracle:
//! never two writable copies, exclusive states tolerate no other valid
//! copy, and every per-cache transition must be one the engine is allowed
//! to take. The oracle is expressed as three predicates over the state
//! enum rather than hard-coded matches, so a write-update protocol (e.g.
//! Dragon, with its Sm/Sc owned-shared states) can slot in later by
//! supplying its own predicates over its own enum.
//!
//! A further property pins the determinism contract the CLI relies on:
//! block-split invariance (any chunking of the stream yields a
//! byte-identical canonical report).

use lc_cachesim::{canonical_coherence_report, CoherenceBackend, CoherenceConfig, Mesi};
use lc_profiler::{PerfectProfiler, ProfilerConfig};
use lc_trace::{AccessEvent, AccessKind, FuncId, LoopId, StampedEvent, Trace};
use proptest::prelude::*;

const THREADS: usize = 4;
const SLOTS: u64 = 24;
const BASE: u64 = 0x1000;

/// Geometry small enough that random scripts exercise evictions: 1 KiB,
/// direct-mapped-ish 2-way, 64-byte lines → 8 sets.
const CFG: CoherenceConfig = CoherenceConfig {
    line_bytes: 64,
    cache_kib: 1,
    assoc: 2,
};

/// `(tid, slot, is_write, loop)` — a small slot pool maximizes ping-pong
/// and eviction interleavings over just a few cache lines.
fn arb_event() -> impl Strategy<Value = (u32, u64, bool, u32)> {
    (0..THREADS as u32, 0u64..SLOTS, any::<bool>(), 0u32..3)
}

fn script_to_trace(script: &[(u32, u64, bool, u32)]) -> Trace {
    Trace::new(
        script
            .iter()
            .enumerate()
            .map(|(i, &(tid, slot, is_write, lid))| StampedEvent {
                seq: i as u64,
                event: AccessEvent {
                    tid,
                    addr: BASE + slot * 8,
                    size: 8,
                    kind: if is_write {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                    loop_id: LoopId(lid + 1),
                    parent_loop: LoopId::NONE,
                    func: FuncId::NONE,
                    site: 0,
                },
            })
            .collect(),
    )
}

/// Every line a script of this shape can touch.
fn all_lines() -> impl Iterator<Item = u64> {
    let lo = BASE / CFG.line_bytes;
    let hi = (BASE + SLOTS * 8 - 1) / CFG.line_bytes;
    lo..=hi
}

/// Invariant oracle for one coherence protocol, as the predicates that
/// vary between protocols. `legal` judges one cache's observed transition
/// for a line (`None` = not resident); a single bus event may move several
/// caches at once, and each per-cache step must be legal on its own.
struct ProtocolOracle<S> {
    /// States that grant write permission (dirty or upgradeable-in-place).
    is_writable: fn(S) -> bool,
    /// States that promise no other cache holds a valid copy.
    is_exclusive: fn(S) -> bool,
    /// Allowed per-cache transitions, including self-loops.
    legal: fn(Option<S>, Option<S>) -> bool,
}

const MESI_ORACLE: ProtocolOracle<Mesi> = ProtocolOracle {
    is_writable: |s| matches!(s, Mesi::Modified),
    is_exclusive: |s| matches!(s, Mesi::Modified | Mesi::Exclusive),
    legal: |from, to| {
        use Mesi::*;
        match (from, to) {
            // Self-loops: an access that doesn't move this cache.
            (a, b) if a == b => true,
            // Fill: read-miss → E (sole) or S (replicated); write-miss → M.
            (None, Some(Exclusive | Shared | Modified)) => true,
            // Silent upgrade on owned write; downgrade on remote read.
            (Some(Exclusive), Some(Modified | Shared)) => true,
            (Some(Shared), Some(Modified)) => true,
            (Some(Modified), Some(Shared)) => true,
            // Eviction or invalidation drops any state.
            (Some(_), None) => true,
            // Everything else (S→E, M→E, …) the engine must never do.
            _ => false,
        }
    },
};

/// Check the single-writer / exclusive-means-alone invariants for one
/// line's state vector.
fn check_state_vector<S: Copy + std::fmt::Debug>(
    oracle: &ProtocolOracle<S>,
    line: u64,
    states: &[Option<S>],
) {
    let valid = states.iter().flatten().count();
    let writable = states
        .iter()
        .flatten()
        .filter(|&&s| (oracle.is_writable)(s))
        .count();
    assert!(
        writable <= 1,
        "line {line:#x}: {writable} writable copies in {states:?}"
    );
    if states.iter().flatten().any(|&s| (oracle.is_exclusive)(s)) {
        assert!(
            valid == 1,
            "line {line:#x}: exclusive state with {valid} valid copies in {states:?}"
        );
    }
}

proptest! {
    #[test]
    fn mesi_invariants_hold_after_every_event(
        script in prop::collection::vec(arb_event(), 1..400),
    ) {
        let trace = script_to_trace(&script);
        let mut b = CoherenceBackend::new(CFG, THREADS);
        let mut prev: Vec<Vec<Option<Mesi>>> =
            all_lines().map(|l| b.line_states(l)).collect();
        for ev in trace.access_events() {
            b.on_access(ev);
            for (i, line) in all_lines().enumerate() {
                let now = b.line_states(line);
                check_state_vector(&MESI_ORACLE, line, &now);
                for (tid, (&f, &t)) in prev[i].iter().zip(&now).enumerate() {
                    prop_assert!(
                        (MESI_ORACLE.legal)(f, t),
                        "illegal transition {f:?} -> {t:?} for tid {tid} line {line:#x}"
                    );
                }
                prev[i] = now;
            }
        }
    }

    #[test]
    fn any_block_split_yields_identical_report(
        script in prop::collection::vec(arb_event(), 1..300),
        chunk in 1usize..40,
    ) {
        let trace = script_to_trace(&script);
        let mut whole = CoherenceBackend::new(CFG, THREADS);
        whole.on_block(trace.access_events());
        let mut split = CoherenceBackend::new(CFG, THREADS);
        for block in trace.access_events().chunks(chunk) {
            split.on_block(block);
        }
        prop_assert_eq!(
            canonical_coherence_report(&whole.report()),
            canonical_coherence_report(&split.report())
        );
    }

    #[test]
    fn raw_never_exceeds_transfers_per_loop_cell(
        script in prop::collection::vec(arb_event(), 1..300),
    ) {
        // First-touch word attribution survives evictions, so on
        // word-aligned traces every RAW dependence the perfect profiler
        // sees is matched by an attributed transfer in the same loop cell.
        let trace = script_to_trace(&script);
        let p = PerfectProfiler::perfect(ProfilerConfig {
            threads: THREADS,
            track_nested: false,
            phase_window: None,
        });
        trace.replay(&p);
        let mut b = CoherenceBackend::new(CFG, THREADS);
        b.on_block(trace.access_events());
        let rep = b.report();
        for lid in 1..=3u32 {
            let raw = p.loop_matrix_snapshot(LoopId(lid));
            let Some(coh) = rep.loops.get(&lid) else {
                prop_assert!(raw.total() == 0, "loop {} has RAW but no coherence entry", lid);
                continue;
            };
            for w in 0..THREADS {
                for r in 0..THREADS {
                    prop_assert!(
                        raw.get(w, r) <= coh.transfers.get(w, r),
                        "loop {} cell ({w},{r}): RAW {} > transfers {}",
                        lid, raw.get(w, r), coh.transfers.get(w, r)
                    );
                }
            }
        }
    }
}
