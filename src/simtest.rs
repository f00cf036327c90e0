//! Model-checking scenarios for the concurrency core.
//!
//! Each scenario is a closed concurrent program over the signature memory,
//! the loop-matrix registry, the bounded hand-off ring under every worker
//! (`lc_trace::handoff`), the coherence backend's shard pool
//! (`lc_trace::pool`) or checkpoint publication,
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
use lc_sched::sync::{AtomicU64, Ordering};
use lc_sigmem::murmur::fmix64;
use lc_sigmem::{PerfectReaderSet, PerfectWriterMap, Signature, SlotSignature};
use lc_trace::handoff;
use lc_trace::pool::{Shard, ShardPool};

/// Op-log record kinds (`data[0]` of [`lc_sched::annotate`]).
mod op {
    /// `[SIG_READ, addr, tid, 0]`
    pub const SIG_READ: u64 = 2;
    /// `[SIG_WRITE, addr, tid, 0]`
    pub const SIG_WRITE: u64 = 3;
    /// `[LOOP_INSERT, loop_id, published, bytes]` — one registry insert
    /// and the bytes added to its loop's cell.
    pub const LOOP_INSERT: u64 = 4;
    /// `[Q_PUSH, frame_id, 0, 0]` — the ring accepted a frame.
    pub const Q_PUSH: u64 = 5;
    /// `[Q_FULL, frame_id, 0, 0]` — the ring had no free buffer.
    pub const Q_FULL: u64 = 6;
    /// `[Q_POP, frame_id, 0, 0]` — the drain received a frame.
    pub const Q_POP: u64 = 7;
    /// `[CP_OBSERVE, which, len, 0]` — a reader observed the checkpoint
    /// file (`which`: 0 = old, 1 = new, 2 = torn/other).
    pub const CP_OBSERVE: u64 = 8;
    /// `[Q_IDLE, analyzed, 0, 0]` — a scraper found every ring buffer
    /// home after seeing `analyzed` frames analysed.
    pub const Q_IDLE: u64 = 9;
    /// `[RING_SENT, filler, k, 0]` — filler `filler`'s `k`-th send
    /// succeeded.
    pub const RING_SENT: u64 = 10;
    /// `[RING_RECV, filler, k, 0]` — the drainer received it.
    pub const RING_RECV: u64 = 11;
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
            name: "write-sig",
            about: "2 threads x 2 writes into a 2-slot signature; oracle: \
                    exact slot-aliased last writer vs the perfect map",
            default_preemption_bound: None,
            catchable_mutants: &[],
            run: write_sig_scenario,
        },
        Scenario {
            name: "read-sig",
            about: "2 threads x 2 reads of the same 2 addresses in a 2-slot \
                    signature (racing reader-bit ORs on one word); oracle: \
                    no false negatives",
            default_preemption_bound: Some(2),
            catchable_mutants: &["bitvec-lost-update"],
            run: read_sig_scenario,
        },
        Scenario {
            name: "slot-sig",
            about: "2 threads x 2 accesses (a write and a read each) into a \
                    2-slot signature; oracle: exact slot-aliased last writer \
                    and no false-negative reader",
            default_preemption_bound: None,
            catchable_mutants: &["bitvec-lost-update"],
            run: slot_sig_scenario,
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
            about: "a durable tenant's producer: try_empty + send into a \
                    2-buffer ring racing the drain's recv/recycle; oracle: \
                    received ids are exactly the accepted ids, FIFO",
            default_preemption_bound: Some(2),
            catchable_mutants: &["ingest-drop-contended-frame"],
            run: ingest_scenario,
        },
        Scenario {
            name: "quiesce",
            about: "a drain receives, analyses and recycles 2 frames while \
                    a scraper polls the ring's every-buffer-home check; \
                    oracle: all home means every sent frame analysed",
            default_preemption_bound: Some(2),
            catchable_mutants: &["queue-idle-when-empty"],
            run: quiesce_scenario,
        },
        Scenario {
            name: "handoff",
            about: "2 fillers x 1 drainer on a 1-buffer ring, one filler \
                    closing it racing the other's sends; oracle: no loss, \
                    no duplication, FIFO per filler, at most 1 buffer out",
            default_preemption_bound: Some(1),
            catchable_mutants: &["ring-lost-wakeup", "ring-recycle-before-consumed"],
            run: handoff_scenario,
        },
        Scenario {
            name: "shards",
            about: "a router pushes 3 one-item chunks to 2 shards of a \
                    3-buffer pool, running and waiting as it must, beside \
                    1 helper, then finishes; oracle: each shard ran its \
                    chunks in push order, none twice, none lost, and never \
                    on two threads at once",
            default_preemption_bound: Some(2),
            catchable_mutants: &["pool-claim-held-shard"],
            run: shards_scenario,
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

/// 2 threads × 2 writes into a 2-slot signature. Because a write and its
/// annotation are atomic with respect to scheduling, the op log's order
/// is the execution order and the signature must agree *exactly* with the
/// last aliasing write in the log (validity of the last writer), which
/// itself must match the perfect writer map's per-address answer for the
/// address that wrote the slot last.
fn write_sig_scenario() {
    const N_SLOTS: usize = 2;
    let sig = Arc::new(SlotSignature::new(N_SLOTS, 2));
    let addrs: [u64; 4] = [0x10, 0x11, 0x12, 0x13];
    let mut handles = Vec::new();
    for t in 0..2u32 {
        let sig = Arc::clone(&sig);
        handles.push(lc_sched::spawn(move || {
            for i in 0..2 {
                let addr = addrs[(t as usize) * 2 + i];
                sig.write(addr, fmix64(addr), t);
                lc_sched::annotate([op::SIG_WRITE, addr, t as u64, 0]);
            }
        }));
    }
    for h in handles {
        h.join();
    }
    let log = lc_sched::op_log();
    let perfect = PerfectWriterMap::new();
    for (_, data) in &log {
        if data[0] == op::SIG_WRITE {
            perfect.record(data[1], data[2] as u32);
        }
    }
    for &addr in &addrs {
        let slot = lc_sigmem::slot_index(addr, N_SLOTS);
        // The last log record whose address aliases this slot.
        let last = log
            .iter()
            .rfind(|(_, d)| d[0] == op::SIG_WRITE && lc_sigmem::slot_index(d[1], N_SLOTS) == slot);
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

/// 2 threads × 2 reads of the same two addresses in a 2-slot, 2-reader
/// signature: both readers' bits live in one word per slot, so the two
/// threads' load-test-OR sequences race on it. With no writes nothing is
/// ever cleared, so the oracle is that every read recorded in the op log
/// is still in the reader set after the join — the signature's
/// no-false-negative contract (§IV-D2). The `bitvec-lost-update`
/// mutant's load+store drops one of two racing bits and fails it.
fn read_sig_scenario() {
    const N_SLOTS: usize = 2;
    let sig = Arc::new(SlotSignature::new(N_SLOTS, 2));
    let addrs: [u64; 2] = [0x20, 0x21];
    let mut handles = Vec::new();
    for t in 0..2u32 {
        let sig = Arc::clone(&sig);
        handles.push(lc_sched::spawn(move || {
            for &addr in &addrs {
                sig.read(addr, fmix64(addr), t);
                lc_sched::annotate([op::SIG_READ, addr, t as u64, 0]);
            }
        }));
    }
    for h in handles {
        h.join();
    }
    let perfect = PerfectReaderSet::new();
    for (_, data) in lc_sched::op_log() {
        if data[0] == op::SIG_READ {
            perfect.insert(data[1], data[2] as u32);
        }
    }
    for &addr in &addrs {
        for t in 0..2u32 {
            if perfect.contains(addr, t) {
                assert!(
                    sig.has_reader(addr, t),
                    "false negative: ({addr:#x}, t{t}) was read (per the op \
                     log) but the signature does not contain it"
                );
            }
        }
    }
}

/// 2 threads × 2 accesses into a 2-slot, 2-reader signature: thread 0
/// writes `A` then reads `B`, thread 1 reads `B` then writes `A`, so the
/// writes race on one slot and the reads on one reader word (and, when
/// `A` and `B` alias, each write races the reads). Each access and its
/// annotation are atomic with respect to scheduling — the annotation
/// follows the access's last atomic operation — so the op log's order is
/// the execution order. Oracle, per slot: the last writer is exactly the
/// log's last aliasing write, and every read logged after that write is
/// still in the reader set — the signature never loses a reader
/// (§IV-D2). A lost reader bit and a writer overwritten by a reader's
/// stale word (the `bitvec-lost-update` mutant's load+store) both fail
/// it.
fn slot_sig_scenario() {
    const N_SLOTS: usize = 2;
    const A: u64 = 0x10;
    const B: u64 = 0x11;
    let sig = Arc::new(SlotSignature::new(N_SLOTS, 2));
    let mut handles = Vec::new();
    for t in 0..2u32 {
        let sig = Arc::clone(&sig);
        handles.push(lc_sched::spawn(move || {
            let write = |addr: u64| {
                sig.write(addr, fmix64(addr), t);
                lc_sched::annotate([op::SIG_WRITE, addr, t as u64, 0]);
            };
            let read = |addr: u64| {
                sig.read(addr, fmix64(addr), t);
                lc_sched::annotate([op::SIG_READ, addr, t as u64, 0]);
            };
            if t == 0 {
                write(A);
                read(B);
            } else {
                read(B);
                write(A);
            }
        }));
    }
    for h in handles {
        h.join();
    }
    let log = lc_sched::op_log();
    let slot = |addr| lc_sigmem::slot_index(addr, N_SLOTS);
    for addr in [A, B] {
        // The accesses aliasing this slot, in execution order; the oracle
        // is the perfect signature replayed over them at the slot's one
        // pseudo-address.
        let accesses = log.iter().filter(|(_, d)| {
            (d[0] == op::SIG_WRITE || d[0] == op::SIG_READ) && slot(d[1]) == slot(addr)
        });
        let writers = PerfectWriterMap::new();
        let readers = PerfectReaderSet::new();
        for (_, d) in accesses {
            if d[0] == op::SIG_WRITE {
                readers.clear_addr(0);
                writers.record(0, d[2] as u32);
            } else {
                readers.insert(0, d[2] as u32);
            }
        }
        assert_eq!(
            sig.last_writer(addr),
            writers.last_writer(0),
            "slot-aliased last writer for {addr:#x} must be the log's last \
             aliasing write"
        );
        for t in 0..2u32 {
            if readers.contains(0, t) {
                assert!(
                    sig.has_reader(addr, t),
                    "false negative: t{t} read {addr:#x}'s slot after its last \
                     write (per the op log) but the signature lost it"
                );
            }
        }
    }
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
                let (m, inserted) = reg
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

/// The serve ingest seam of a durable tenant: a producer offers 3 frames
/// to a 2-buffer [`handoff::ring`], each through `try_empty` + `send`
/// (no buffer free: refused, as the tenant then spills), while a drain
/// thread receives and recycles until the producer's end closes.
/// Annotations are tied to the outcome each caller *observed*, and there
/// is one receiver, so the log's `Q_POP` subsequence is the true receive
/// order. Oracle: the received ids are exactly the accepted ids in FIFO
/// order — an accepted-but-never-delivered frame (the
/// `ingest-drop-contended-frame` mutant turns lock contention into
/// exactly that) breaks it.
fn ingest_scenario() {
    let (tx, rx) = handoff::ring::<u64>(2, 2);
    let producer = lc_sched::spawn(move || {
        for id in 1..=3u64 {
            if tx.try_empty().is_none() {
                lc_sched::annotate([op::Q_FULL, id, 0, 0]);
            } else if tx.send(id).is_ok() {
                lc_sched::annotate([op::Q_PUSH, id, 0, 0]);
            } else {
                unreachable!("the ring closes only when the producer is done");
            }
        }
    });
    let drain = lc_sched::spawn(move || {
        while let Some(id) = rx.recv() {
            lc_sched::annotate([op::Q_POP, id, 0, 0]);
            rx.recycle(id);
        }
    });
    producer.join();
    drain.join();
    let (accepted, refused) = (logged(op::Q_PUSH), logged(op::Q_FULL));
    let popped = logged(op::Q_POP);
    assert_eq!(
        accepted.len() + refused.len(),
        3,
        "every offer resolved exactly once"
    );
    assert_eq!(
        popped, accepted,
        "delivered frames must be exactly the accepted frames, in FIFO \
         order (an accepted frame that never arrives is a dropped frame)"
    );
}

/// The serve quiescence seam: 2 frames are sent into a 2-buffer ring, a
/// drain thread receives each, counts it analysed (a shim atomic) and
/// recycles it, while a scraper polls [`handoff::Filler::all_home`] —
/// what `Tenant::quiet` asks before a `?wait=1` report or a metrics
/// scrape reads totals. Each all-home reading is logged with the analysed
/// count it then sees. Oracle: every such reading saw both frames
/// analysed. The `queue-idle-when-empty` mutant answers "nothing waits to
/// be received" instead, and a scrape between a receive and its analysis
/// catches it.
fn quiesce_scenario() {
    let (tx, rx) = handoff::ring::<u64>(2, 2);
    for id in 1..=2u64 {
        tx.empty().expect("2 buffers hold both frames");
        assert!(tx.send(id).is_ok());
    }
    let analyzed = Arc::new(AtomicU64::new(0));
    let drain = {
        let analyzed = Arc::clone(&analyzed);
        lc_sched::spawn(move || {
            for _ in 0..2 {
                let id = rx.recv().expect("2 frames sent");
                analyzed.fetch_add(1, Ordering::AcqRel);
                rx.recycle(id);
            }
        })
    };
    let tx = Arc::new(tx);
    let scraper = {
        let (tx, analyzed) = (Arc::clone(&tx), Arc::clone(&analyzed));
        lc_sched::spawn(move || {
            for _ in 0..2 {
                if tx.all_home() {
                    let seen = analyzed.load(Ordering::Acquire);
                    lc_sched::annotate([op::Q_IDLE, seen, 0, 0]);
                }
            }
        })
    };
    drain.join();
    scraper.join();
    for (_, data) in lc_sched::op_log() {
        if data[0] == op::Q_IDLE {
            assert_eq!(
                data[1], 2,
                "every buffer read home with a received frame not yet analysed"
            );
        }
    }
    assert!(tx.all_home(), "every frame finished after the drain joined");
}

/// The hand-off itself: two fillers share one end of a 1-buffer
/// [`handoff::ring`] — filler 0 sends twice, filler 1 once and then
/// closes the ring, racing filler 0 — and one drainer receives until the
/// ring is closed and empty. Filler `f`'s `k`-th successful send and its
/// receipt are logged as `(f, k)`. A shim counter holds the buffers
/// between a filler's take and the drainer's finish with it. Oracle:
/// what was received is exactly what was sent (no loss, no duplication),
/// in each filler's send order, and the counter never passes the ring's
/// one buffer. The `ring-lost-wakeup` mutant leaves the drainer parked
/// while both fillers wait for the buffer it should have drained — a
/// deadlock; `ring-recycle-before-consumed` lets a filler take a second
/// buffer while the drainer still holds the first.
fn handoff_scenario() {
    let (tx, rx) = handoff::ring::<u64>(1, 1);
    let tx = Arc::new(tx);
    let held = Arc::new(AtomicU64::new(0));
    let filler = |f: u64, sends: u64| {
        let (tx, held) = (Arc::clone(&tx), Arc::clone(&held));
        lc_sched::spawn(move || {
            for k in 0..sends {
                if tx.empty().is_none() {
                    break;
                }
                let out = held.fetch_add(1, Ordering::AcqRel) + 1;
                assert!(out <= 1, "{out} buffers out of a 1-buffer ring");
                if tx.send((f << 8) | k).is_err() {
                    held.fetch_sub(1, Ordering::AcqRel);
                    break;
                }
                lc_sched::annotate([op::RING_SENT, f, k, 0]);
            }
            if f == 1 {
                tx.close();
            }
        })
    };
    let fillers = [filler(0, 2), filler(1, 1)];
    let drainer = {
        let held = Arc::clone(&held);
        lc_sched::spawn(move || {
            while let Some(id) = rx.recv() {
                lc_sched::annotate([op::RING_RECV, id >> 8, id & 0xff, 0]);
                held.fetch_sub(1, Ordering::AcqRel);
                rx.recycle(id);
            }
        })
    };
    for f in fillers {
        f.join();
    }
    drainer.join();
    // A stable sort by filler keeps each filler's own order.
    let by_filler = |kind: u64| {
        let mut v = logged(kind);
        v.sort_by_key(|&(f, _)| f);
        v
    };
    assert_eq!(
        by_filler(op::RING_RECV),
        by_filler(op::RING_SENT),
        "each filler's sends must be received exactly once, in its order"
    );
    assert!(tx.all_home(), "every buffer home once the drainer is done");
}

/// A shard of the `shards` scenario: the ids it ran, in order.
#[derive(Default)]
struct Ids(Vec<u64>);

impl Shard for Ids {
    type Item = u64;
    type Report = Vec<u64>;
    fn run_chunk(&mut self, chunk: &[u64]) {
        self.0.extend_from_slice(chunk);
    }
    fn into_report(self) -> Vec<u64> {
        self.0
    }
}

/// The coherence backend's shard pool ([`ShardPool`]) at its smallest:
/// 2 shards, 1 helper running [`ShardPool::serve`], one-item chunks, a
/// backlog of 1 and 3 buffers, so the router both runs queued chunks
/// itself and waits for a buffer. It pushes chunks 1 and 2 to shard 0
/// and 3 to shard 1, then finishes, building the reports alongside the
/// helper. A worker that finds a claimed shard already locked fails the
/// pool, so an `Ok` from every push and from `finish` means no shard was
/// ever held by two threads. Oracle: that, and each shard's report is its
/// chunks in push order — none lost by `finish`, none run twice. The
/// `pool-claim-held-shard` mutant claims a shard another worker holds:
/// either its lock check fails the pool or shard 0 runs chunk 2 first.
fn shards_scenario() {
    let (pool, mut fill) = ShardPool::new(vec![Ids::default(), Ids::default()], 1, 1, 1, 1);
    let pool = Arc::new(pool);
    let helper = {
        let pool = Arc::clone(&pool);
        lc_sched::spawn(move || pool.serve())
    };
    for (k, id) in [(0, 1), (0, 2), (1, 3)] {
        fill[k].push(id);
        let full = std::mem::take(&mut fill[k]);
        match pool.push(k, full) {
            Ok(empty) => fill[k] = empty,
            Err(f) => panic!("shard {} held by two workers: {}", f.shard, f.why),
        }
    }
    let reports = pool.finish(fill);
    helper.join();
    assert_eq!(
        reports,
        Ok(vec![vec![1, 2], vec![3]]),
        "each shard runs its chunks once, in push order, on one thread at a time"
    );
}

/// The op-log records of `kind` in log order, as `(data[1], data[2])`.
fn logged(kind: u64) -> Vec<(u64, u64)> {
    (lc_sched::op_log().into_iter())
        .filter(|(_, d)| d[0] == kind)
        .map(|(_, d)| (d[1], d[2]))
        .collect()
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
    use lc_faults::FaultSite;
    use lc_profiler::write_atomic_blob;

    // Unique file per run: exploration re-enters this body once per
    // schedule (and concurrent tests may explore it in parallel), so each
    // run sets up and tears down its own file.
    static RUN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let run = RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("{}{run}.lccp", checkpoint_file_prefix()));
    let _cleanup = RemoveOnDrop([path.clone(), path.with_extension("lccp.tmp")]);
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
}

/// The name every file of this process's `checkpoint` scenario runs
/// starts with, in [`std::env::temp_dir`].
pub fn checkpoint_file_prefix() -> String {
    format!("lc_cp_scenario_{}_", std::process::id())
}

/// Removes its files when dropped, however the scope ends: a schedule the
/// explorer cuts short, or a mutant's violation, unwinds through it.
struct RemoveOnDrop([std::path::PathBuf; 2]);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        for path in &self.0 {
            let _ = std::fs::remove_file(path);
        }
    }
}
