//! Model-checking scenarios for the concurrency core.
//!
//! Each scenario is a closed concurrent program over the signature memory,
//! the loop-matrix registry, the serve queue or checkpoint publication,
//! built to run under the [`lc_sched`] deterministic scheduler: worker
//! threads are [`lc_sched::spawn`]ed, every logical operation is annotated
//! into the runtime's serialized op log, and after joining, the scenario
//! *validates the explored interleaving against the perfect oracle*
//! ([`PerfectReaderSet`]/[`PerfectWriterMap`], driven from the log) — no
//! false negatives in reader sets, valid last writers, loop matrices
//! published once with exact sums. A violated oracle panics, which the
//! explorer reports with the schedule's decision trace.
//!
//! The same scenarios back `tests/sched_model_check.rs` and the
//! `loopcomm simtest` CLI subcommand, so CI and developers explore the
//! same space. See DESIGN.md §11.

use std::sync::Arc;

use lc_profiler::LoopRegistry;
use lc_sigmem::{
    BloomGeometry, ConcurrentBloom, PerfectReaderSet, PerfectWriterMap, ReadSignature, ReaderSet,
    WriteSignature, WriterMap,
};

/// Op-log record kinds (`data[0]` of [`lc_sched::annotate`]).
mod op {
    /// `[BLOOM_INSERT, item, 0, 0]`
    pub const BLOOM_INSERT: u64 = 1;
    /// `[READ_INSERT, addr, tid, 0]`
    pub const READ_INSERT: u64 = 2;
    /// `[WRITE_RECORD, addr, tid, 0]`
    pub const WRITE_RECORD: u64 = 3;
    /// `[LOOP_INSERT, loop_id, published, bytes]` — one registry insert
    /// and the bytes added to its loop's cell.
    pub const LOOP_INSERT: u64 = 4;
    /// `[Q_PUSH, frame_id, 0, 0]` — ingest queue accepted a frame.
    pub const Q_PUSH: u64 = 5;
    /// `[Q_FULL, frame_id, 0, 0]` — ingest queue refused a frame (full).
    pub const Q_FULL: u64 = 6;
    /// `[Q_POP, frame_id, 0, 0]` — drain popped a frame.
    pub const Q_POP: u64 = 7;
    /// `[CP_OBSERVE, which, len, 0]` — a reader observed the checkpoint
    /// file (`which`: 0 = old, 1 = new, 2 = torn/other).
    pub const CP_OBSERVE: u64 = 8;
}

/// A named model-checking scenario.
pub struct Scenario {
    /// Stable name used by `loopcomm simtest <name>` and the tests.
    pub name: &'static str,
    /// One-line description for `simtest list` output.
    pub about: &'static str,
    /// Suggested preemption bound for exhaustive exploration (`None` =
    /// unbounded is still tractable for this scenario).
    pub default_preemption_bound: Option<usize>,
    /// Mutants (see [`lc_sched::mutant_active`]) this scenario's oracle
    /// provably catches — exercised by tests and `simtest --all-mutants`.
    pub catchable_mutants: &'static [&'static str],
    run: fn(),
}

impl Scenario {
    /// Execute the scenario body once (must be called inside a simulation,
    /// i.e. from an [`lc_sched::Explorer`] run).
    pub fn run(&self) {
        (self.run)()
    }
}

/// The scenario registry.
pub fn scenarios() -> &'static [Scenario] {
    &[
        Scenario {
            name: "bloom",
            about: "2 threads x 2 inserts into one tiny concurrent Bloom filter; \
                    oracle: no false negatives after join",
            default_preemption_bound: Some(2),
            catchable_mutants: &["bitvec-lost-update"],
            run: bloom_scenario,
        },
        Scenario {
            name: "write-sig",
            about: "2 threads x 2 records into a 2-slot write signature; \
                    oracle: exact slot-aliased last writer vs the perfect map",
            default_preemption_bound: None,
            catchable_mutants: &[],
            run: write_sig_scenario,
        },
        Scenario {
            name: "read-sig",
            about: "2 threads x 2 inserts into a 2-slot read signature (lazy \
                    filter publication race); oracle: no false negatives",
            default_preemption_bound: Some(2),
            catchable_mutants: &["readsig-relaxed-publish", "bitvec-lost-update"],
            run: read_sig_scenario,
        },
        Scenario {
            name: "registry",
            about: "2 threads x 2 inserts into a capacity-2 loop registry, \
                    racing on the same and on different ids; oracle: each \
                    id published once, exact per-loop sums",
            default_preemption_bound: Some(2),
            catchable_mutants: &["registry-blind-publish"],
            run: registry_scenario,
        },
        Scenario {
            name: "ingest",
            about: "bounded serve queue: producer try_push racing a drain \
                    try_pop at capacity 2; oracle: popped ids are exactly \
                    the accepted ids, FIFO",
            default_preemption_bound: Some(2),
            catchable_mutants: &["ingest-drop-contended-frame"],
            run: ingest_scenario,
        },
        Scenario {
            name: "checkpoint",
            about: "atomic checkpoint publication racing a concurrent \
                    reader; oracle: every observed file is fully-old or \
                    fully-new, never torn",
            default_preemption_bound: None,
            catchable_mutants: &["checkpoint-torn-write"],
            run: checkpoint_scenario,
        },
    ]
}

/// Look up a scenario by name.
pub fn find(name: &str) -> Option<&'static Scenario> {
    scenarios().iter().find(|s| s.name == name)
}

/// 2 threads × 2 inserts into one shared filter sized for 4 items at a
/// loose rate (one 64-bit word, so concurrent `fetch_or`s genuinely
/// collide). Every insert that completed before the join must be visible:
/// Bloom filters have false positives, never false negatives.
fn bloom_scenario() {
    // One 64-bit word, two derived hashes: every insert's `fetch_or`s land
    // in the same atomic word, so concurrent inserts genuinely collide and
    // the schedule count stays small enough for unbounded exhaustion.
    let geometry = BloomGeometry {
        m_bits: 64,
        k: 2,
        block_bits: 64,
    };
    let bloom = Arc::new(ConcurrentBloom::new(geometry));
    let mut handles = Vec::new();
    for t in 0..2u64 {
        let bloom = Arc::clone(&bloom);
        handles.push(lc_sched::spawn(move || {
            for i in 0..2u64 {
                let item = t * 2 + i;
                bloom.insert(item);
                lc_sched::annotate([op::BLOOM_INSERT, item, 0, 0]);
            }
        }));
    }
    for h in handles {
        h.join();
    }
    // Oracle: drive the perfect reader set from the serialized log (item
    // plays the role of tid at a single pseudo-address).
    let perfect = PerfectReaderSet::new();
    for (_, data) in lc_sched::op_log() {
        if data[0] == op::BLOOM_INSERT {
            perfect.insert(0, data[1] as u32);
        }
    }
    for item in 0..4u64 {
        if perfect.contains(0, item as u32) {
            assert!(
                bloom.contains(item),
                "false negative: item {item} was inserted (per the op log) \
                 but the filter does not contain it"
            );
        }
    }
}

/// 2 threads × 2 records into a 2-slot write signature. Because a record
/// and its annotation are atomic with respect to scheduling, the op log's
/// order is the execution order and the signature must agree *exactly*
/// with the last aliasing write in the log (validity of the last writer),
/// which itself must match the perfect writer map's per-address answer
/// for the address that wrote the slot last.
fn write_sig_scenario() {
    const N_SLOTS: usize = 2;
    let sig = Arc::new(WriteSignature::new(N_SLOTS));
    let addrs: [u64; 4] = [0x10, 0x11, 0x12, 0x13];
    let mut handles = Vec::new();
    for t in 0..2u32 {
        let sig = Arc::clone(&sig);
        handles.push(lc_sched::spawn(move || {
            for i in 0..2 {
                let addr = addrs[(t as usize) * 2 + i];
                sig.record(addr, t);
                lc_sched::annotate([op::WRITE_RECORD, addr, t as u64, 0]);
            }
        }));
    }
    for h in handles {
        h.join();
    }
    let log = lc_sched::op_log();
    let perfect = PerfectWriterMap::new();
    for (_, data) in &log {
        if data[0] == op::WRITE_RECORD {
            perfect.record(data[1], data[2] as u32);
        }
    }
    for &addr in &addrs {
        let slot = lc_sigmem::slot_index(addr, N_SLOTS);
        // The last log record whose address aliases this slot.
        let last = log.iter().rfind(|(_, d)| {
            d[0] == op::WRITE_RECORD && lc_sigmem::slot_index(d[1], N_SLOTS) == slot
        });
        let (last_addr, expect) = match last {
            Some((_, d)) => (d[1], Some(d[2] as u32)),
            None => (addr, None),
        };
        assert_eq!(
            sig.last_writer(addr),
            expect,
            "slot-aliased last writer for {addr:#x} must be the log's last \
             aliasing write"
        );
        if let Some(w) = expect {
            assert_eq!(
                perfect.last_writer(last_addr),
                Some(w),
                "signature answer must match the perfect map at the aliased \
                 address {last_addr:#x}"
            );
        }
    }
}

/// 2 threads × 2 inserts into a 2-slot read signature with a tiny filter
/// geometry, so the lazy filter allocation races on publication and the
/// Bloom bits race on `fetch_or`. Oracle: every insert recorded in the op
/// log is contained after the join — the signature's no-false-negative
/// contract (§IV-D2).
fn read_sig_scenario() {
    const N_SLOTS: usize = 2;
    let sig = Arc::new(ReadSignature::new(N_SLOTS, 4, 0.05));
    let addrs: [u64; 2] = [0x20, 0x21];
    let mut handles = Vec::new();
    for t in 0..2u32 {
        let sig = Arc::clone(&sig);
        handles.push(lc_sched::spawn(move || {
            for &addr in &addrs {
                sig.insert(addr, t);
                lc_sched::annotate([op::READ_INSERT, addr, t as u64, 0]);
            }
        }));
    }
    for h in handles {
        h.join();
    }
    let perfect = PerfectReaderSet::new();
    for (_, data) in lc_sched::op_log() {
        if data[0] == op::READ_INSERT {
            perfect.insert(data[1], data[2] as u32);
        }
    }
    for &addr in &addrs {
        for t in 0..2u32 {
            if perfect.contains(addr, t) {
                assert!(
                    sig.contains(addr, t),
                    "false negative: ({addr:#x}, t{t}) was inserted (per the \
                     op log) but the signature does not contain it"
                );
            }
        }
    }
    assert!(
        sig.allocated_filters() <= N_SLOTS,
        "publish race must never allocate more than one filter per slot"
    );
}

/// 2 threads × 2 inserts into a capacity-2 [`LoopRegistry`]: thread 0
/// touches loops 1 then 2, thread 1 loops 2 then 1, so the first inserts
/// race on different ids (and on one slot when both hash there) and the
/// second ones race on the same id. Each insert adds a distinct byte
/// count to its loop's cell and logs whether it published the slot. The
/// slot publish is a shim `AtomicPtr` CAS, so it is a decision point.
/// Oracle: each id is published exactly once, `len()` equals the number
/// of distinct ids, and each loop's cell equals its op-log sum — the
/// `registry-blind-publish` mutant's overwritten publication breaks all
/// three.
fn registry_scenario() {
    const IDS: [[u32; 2]; 2] = [[1, 2], [2, 1]];
    let reg = Arc::new(LoopRegistry::new(2, 2));
    let mut handles = Vec::new();
    for t in 0..2u32 {
        let reg = Arc::clone(&reg);
        handles.push(lc_sched::spawn(move || {
            for (i, &id) in IDS[t as usize].iter().enumerate() {
                let bytes = 8 + 2 * t as u64 + i as u64;
                let (m, _, inserted) = reg
                    .get_or_insert_lossy(lc_trace::LoopId(id))
                    .expect("two ids fit a capacity-2 registry");
                m.add(0, 1, bytes);
                lc_sched::annotate([op::LOOP_INSERT, id as u64, inserted as u64, bytes]);
            }
        }));
    }
    for h in handles {
        h.join();
    }
    let mut published = std::collections::HashMap::new();
    let mut sums = std::collections::HashMap::new();
    for (_, data) in lc_sched::op_log() {
        if data[0] == op::LOOP_INSERT {
            *published.entry(data[1] as u32).or_insert(0u64) += data[2];
            *sums.entry(data[1] as u32).or_insert(0u64) += data[3];
        }
    }
    for (&id, &n) in &published {
        assert_eq!(n, 1, "loop {id} must be published exactly once, got {n}");
    }
    assert_eq!(reg.len(), published.len(), "len() counts distinct ids");
    assert!(reg.overflow().is_none(), "no insert overflowed");
    for (&id, &want) in &sums {
        let got = reg.get(lc_trace::LoopId(id)).map_or(0, |m| m.get(0, 1));
        assert_eq!(got, want, "loop {id}'s cell must equal its op-log sum");
    }
}

/// The serve ingest seam: a producer `try_push`es 3 frames into a
/// capacity-2 [`FrameQueue`] while a drain thread `try_pop`s, then the
/// main thread drains the leftovers after both join. Annotations are tied
/// to the outcome each caller *observed* (accepted / full / popped), and
/// pops are serialized (one popper at a time), so the log's `Q_POP`
/// subsequence is the true dequeue order. Oracle: the popped ids are
/// exactly the accepted ids in FIFO order, and the queue's own counters
/// agree — an accepted-but-never-delivered frame (the
/// `ingest-drop-contended-frame` mutant turns lock contention into
/// exactly that) breaks it.
fn ingest_scenario() {
    use crate::serve::queue::{FrameQueue, PushError};

    let q = Arc::new(FrameQueue::new(2));
    let producer = {
        let q = Arc::clone(&q);
        lc_sched::spawn(move || {
            for id in 1..=3u64 {
                match q.try_push(id) {
                    Ok(()) => lc_sched::annotate([op::Q_PUSH, id, 0, 0]),
                    Err(PushError::Full(_)) => lc_sched::annotate([op::Q_FULL, id, 0, 0]),
                    Err(PushError::Closed(_)) => unreachable!("queue is never closed here"),
                }
            }
        })
    };
    let drain = {
        let q = Arc::clone(&q);
        lc_sched::spawn(move || {
            for _ in 0..3 {
                if let Some(id) = q.try_pop() {
                    lc_sched::annotate([op::Q_POP, id, 0, 0]);
                }
            }
        })
    };
    producer.join();
    drain.join();
    // Leftover frames drain here, with no concurrency: pop order stays
    // the true order.
    while let Some(id) = q.try_pop() {
        lc_sched::annotate([op::Q_POP, id, 0, 0]);
    }
    let log = lc_sched::op_log();
    let accepted: Vec<u64> = log
        .iter()
        .filter(|(_, d)| d[0] == op::Q_PUSH)
        .map(|(_, d)| d[1])
        .collect();
    let refused: Vec<u64> = log
        .iter()
        .filter(|(_, d)| d[0] == op::Q_FULL)
        .map(|(_, d)| d[1])
        .collect();
    let popped: Vec<u64> = log
        .iter()
        .filter(|(_, d)| d[0] == op::Q_POP)
        .map(|(_, d)| d[1])
        .collect();
    assert_eq!(
        accepted.len() + refused.len(),
        3,
        "every push attempt resolved exactly once"
    );
    assert_eq!(
        popped, accepted,
        "delivered frames must be exactly the accepted frames, in FIFO \
         order (an accepted frame that never arrives is a dropped frame)"
    );
    assert_eq!(q.pushed(), accepted.len() as u64, "push counter honest");
    assert_eq!(q.popped(), popped.len() as u64, "pop counter honest");
    assert!(q.is_empty(), "nothing left behind");
}

/// The checkpoint publication seam: a writer replaces an existing
/// checkpoint via [`lc_profiler::write_atomic_blob`] (temp + fsync +
/// rename, with a facade-atomic publication clock between the durable
/// write and the rename) while a reader polls the file — the
/// crash-during-checkpoint reader from the recovery story, compressed to
/// one decision window. Oracle: every observation is the *complete* old
/// blob or the *complete* new blob. The `checkpoint-torn-write` mutant
/// rewrites the file in place in two halves with a scheduling point
/// between them, and a reader interleaved there sees a torn prefix.
fn checkpoint_scenario() {
    use crate::serve::sync::{AtomicU64, Ordering};
    use lc_faults::FaultSite;
    use lc_profiler::write_atomic_blob;

    // Unique file per run: exploration re-enters this body once per
    // schedule (and concurrent tests may explore it in parallel), so each
    // run sets up and tears down its own file.
    static RUN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let run = RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path =
        std::env::temp_dir().join(format!("lc_cp_scenario_{}_{run}.lccp", std::process::id()));
    let old: Arc<Vec<u8>> = Arc::new(vec![0xAA; 64]);
    let new: Arc<Vec<u8>> = Arc::new(vec![0xBB; 64]);
    std::fs::write(&path, old.as_slice()).expect("seed old checkpoint");

    let writer = {
        let (path, new) = (path.clone(), Arc::clone(&new));
        lc_sched::spawn(move || {
            write_atomic_blob(&path, &new, FaultSite::CheckpointWrite, None)
                .expect("publish new checkpoint");
        })
    };
    let reader = {
        let (path, old, new) = (path.clone(), Arc::clone(&old), Arc::clone(&new));
        // The reader's own clock: each bump is a decision point, so the
        // explorer can place each observation anywhere in the writer's
        // publication protocol.
        let clock = AtomicU64::new(0);
        lc_sched::spawn(move || {
            for _ in 0..2 {
                clock.fetch_add(1, Ordering::SeqCst);
                let bytes = std::fs::read(&path).expect("checkpoint file exists");
                let which = if bytes == *old {
                    0
                } else if bytes == *new {
                    1
                } else {
                    2
                };
                lc_sched::annotate([op::CP_OBSERVE, which, bytes.len() as u64, 0]);
                assert!(
                    which < 2,
                    "torn checkpoint observed: {} bytes that are neither the \
                     old nor the new blob — atomic publication violated",
                    bytes.len()
                );
            }
        })
    };
    writer.join();
    reader.join();
    let final_bytes = std::fs::read(&path).expect("checkpoint file exists");
    assert_eq!(
        final_bytes, *new,
        "after the writer joins, the published checkpoint is the new blob"
    );
    let _ = std::fs::remove_file(&path);
}
