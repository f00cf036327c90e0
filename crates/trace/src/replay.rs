//! Recorded traces and deterministic replay — sequential and slot-sharded.
//!
//! Algorithm 1 "should process memory accesses in temporal order". Online
//! profiling gets that order from the hardware; offline analysis gets it
//! from the stamps the [`crate::sink::RecordingSink`] attached. Replaying
//! one recorded trace into several analyzers is how the FPR study (§V-A3)
//! guarantees the approximate and perfect detectors see identical input.
//!
//! Two observations make offline analysis parallel and cheap without
//! giving up exactness (correctness argument in DESIGN.md §10):
//!
//! * **Slot sharding** ([`Trace::par_replay`]): RAW detection only couples
//!   events whose addresses land in the same detector state class (the
//!   signature slot for the asymmetric detector, the exact address for the
//!   perfect baseline). Partitioning events by class onto workers — each
//!   stream preserving temporal order — and summing the per-worker matrix
//!   deltas reproduces sequential replay byte for byte.
//! * **Run coalescing** ([`coalesce_events`]): consecutive same-thread,
//!   same-kind accesses within one class are detector no-ops after the
//!   first (first-read-only semantics for reads, last-writer overwrites
//!   for writes), so a run folds to its first event before detection.

use std::collections::HashSet;
use std::sync::OnceLock;

use crate::event::{AccessEvent, AccessKind, StampedEvent};
use crate::sink::AccessSink;

/// Events per block fed through [`AccessSink::on_batch`] by the replay
/// paths. 1024 events ≈ 48 KiB of scratch — L1/L2-resident, large enough
/// to amortize dyn dispatch and counter traffic to noise.
pub const REPLAY_BATCH_EVENTS: usize = 1024;

/// An immutable, temporally ordered access trace.
///
/// Stored struct-of-arrays: the replay hot paths feed contiguous
/// [`AccessEvent`] slices straight into [`AccessSink::on_batch`] with zero
/// copying, while the stamped view [`Trace::events`] is materialized
/// lazily (and cached) for the writers and tests that need the seq field.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    events: Vec<AccessEvent>,
    seqs: Vec<u64>,
    stamped: OnceLock<Vec<StampedEvent>>,
}

/// Summary statistics of a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceStats {
    /// Read events.
    pub reads: u64,
    /// Write events.
    pub writes: u64,
    /// Total bytes touched (Σ sizes).
    pub bytes: u64,
    /// Number of distinct addresses.
    pub distinct_addrs: usize,
    /// Number of distinct thread ids.
    pub threads: usize,
}

/// What one run-coalescing pre-pass folded away.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoalesceStats {
    /// Runs of length ≥ 2 that were folded to their first event.
    pub runs_folded: u64,
    /// Events removed by folding (Σ over runs of `len − 1`).
    pub events_folded: u64,
}

impl CoalesceStats {
    /// Accumulate another pre-pass's folding counts into this one.
    pub fn merge(&mut self, other: CoalesceStats) {
        self.runs_folded += other.runs_folded;
        self.events_folded += other.events_folded;
    }
}

/// Tuning for [`Trace::par_replay`].
pub struct ParReplayOptions<'a> {
    /// Events per [`AccessSink::on_batch`] block.
    pub batch_events: usize,
    /// When set, each worker stream is run-coalesced before feeding:
    /// consecutive events with equal thread, kind, loop and
    /// `class(addr)` fold to the run's first event. The class function
    /// must match the detector's state granularity — signature slot for
    /// the asymmetric detector, identity for the perfect baseline — or
    /// folding is not semantics-preserving (DESIGN.md §10).
    pub coalesce_class: Option<&'a (dyn Fn(u64) -> u64 + Sync)>,
}

impl Default for ParReplayOptions<'_> {
    fn default() -> Self {
        Self {
            batch_events: REPLAY_BATCH_EVENTS,
            coalesce_class: None,
        }
    }
}

/// What one [`Trace::par_replay`] run did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParReplayStats {
    /// Worker count (= number of sinks).
    pub jobs: usize,
    /// Events delivered to sinks, after any coalescing.
    pub replayed_events: u64,
    /// `on_batch` blocks delivered.
    pub batches: u64,
    /// Coalescing summary (zero when coalescing was off).
    pub coalesce: CoalesceStats,
}

/// Fold runs of consecutive events sharing thread, kind, loop and address
/// class down to each run's first event, in place.
///
/// Legality (DESIGN.md §10): after a run's first event, every later member
/// is a detector no-op — a repeat read by the same thread is suppressed by
/// the first-read-only rule and its signature insert is idempotent (the
/// reader bit is keyed by tid); a repeat write re-records the same writer
/// into the same slot and re-clears an already-cleared reader set. The folded
/// event therefore keeps the *first* event's address and size: those are
/// the bytes the sequential detector would have attributed.
pub fn coalesce_events(
    events: &mut Vec<AccessEvent>,
    class: &(dyn Fn(u64) -> u64 + Sync),
) -> CoalesceStats {
    let mut stats = CoalesceStats::default();
    if events.len() < 2 {
        return stats;
    }
    let mut out = 1usize; // events[0] always survives
    let mut run_class = class(events[0].addr);
    let mut run_open = false; // did the current run fold anything yet?
    for i in 1..events.len() {
        let ev = events[i];
        let prev = events[out - 1];
        let ev_class = class(ev.addr);
        if prev.tid == ev.tid
            && prev.kind == ev.kind
            && prev.loop_id == ev.loop_id
            && run_class == ev_class
        {
            stats.events_folded += 1;
            if !run_open {
                stats.runs_folded += 1;
                run_open = true;
            }
            continue;
        }
        events[out] = ev;
        out += 1;
        run_class = ev_class;
        run_open = false;
    }
    events.truncate(out);
    stats
}

impl Trace {
    /// Build from stamped events; they are sorted by stamp.
    pub fn new(mut events: Vec<StampedEvent>) -> Self {
        events.sort_unstable_by_key(|e| e.seq);
        Self {
            seqs: events.iter().map(|e| e.seq).collect(),
            events: events.into_iter().map(|e| e.event).collect(),
            stamped: OnceLock::new(),
        }
    }

    /// The ordered events with their stamps. Materialized on first call
    /// and cached; the analysis paths ([`Trace::replay`],
    /// [`Trace::par_replay`], [`Trace::stats`]) never pay for it.
    pub fn events(&self) -> &[StampedEvent] {
        self.stamped.get_or_init(|| {
            self.seqs
                .iter()
                .zip(&self.events)
                .map(|(&seq, &event)| StampedEvent { seq, event })
                .collect()
        })
    }

    /// The ordered events without their stamps — the contiguous slice the
    /// replay paths batch from.
    pub fn access_events(&self) -> &[AccessEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Feed every event, in temporal order, into `sink` as fixed-size
    /// blocks through [`AccessSink::on_batch`] (identical semantics to the
    /// historical per-event loop; the default `on_batch` *is* that loop).
    /// Blocks are zero-copy slices of the trace's own storage. Uses the
    /// [`REPLAY_BATCH_EVENTS`] default block size; [`Trace::replay_batched`]
    /// takes an explicit one.
    pub fn replay(&self, sink: &dyn AccessSink) {
        self.replay_batched(sink, REPLAY_BATCH_EVENTS);
    }

    /// [`Trace::replay`] with an explicit block size — the single knob the
    /// CLI's `--batch` flag and the bench sweep turn. Semantics are
    /// independent of `batch_events` (clamped to ≥ 1): every block split
    /// produces the same event order, so reports are byte-identical across
    /// sizes; only throughput changes.
    pub fn replay_batched(&self, sink: &dyn AccessSink, batch_events: usize) {
        feed_blocks(sink, &self.events, batch_events.max(1));
    }

    /// Partition events into `jobs` per-worker streams by `worker_of(addr)`,
    /// preserving temporal order within each stream. `worker_of` must
    /// return values below `jobs` and must be a pure function of the
    /// address, so every event that can touch one piece of detector state
    /// lands in one stream.
    pub fn partition(
        &self,
        jobs: usize,
        worker_of: &(dyn Fn(u64) -> usize + Sync),
    ) -> Vec<Vec<AccessEvent>> {
        assert!(jobs >= 1, "need at least one worker");
        // Pre-size assuming a roughly balanced split (the router hashes).
        let guess = self.events.len() / jobs + 1;
        let mut parts: Vec<Vec<AccessEvent>> = (0..jobs)
            .map(|_| Vec::with_capacity(guess.min(self.events.len())))
            .collect();
        for e in &self.events {
            let w = worker_of(e.addr);
            debug_assert!(w < jobs, "worker_of returned {w} for {jobs} jobs");
            parts[w].push(*e);
        }
        parts
    }

    /// Slot-sharded parallel replay: partition by `worker_of`, optionally
    /// run-coalesce each stream, then feed stream *i* into `sinks[i]` as
    /// [`AccessSink::on_batch`] blocks from its own thread, ending with a
    /// flush. With one sink and no coalescing this is exactly
    /// [`Trace::replay`].
    ///
    /// Exactness requires `worker_of` to partition at (or finer than) the
    /// granularity of the sinks' detector state — see DESIGN.md §10; the
    /// detector-aware entry points in `lc-profiler` pick the right router.
    pub fn par_replay(
        &self,
        sinks: &[&dyn AccessSink],
        worker_of: &(dyn Fn(u64) -> usize + Sync),
        opts: &ParReplayOptions<'_>,
    ) -> ParReplayStats {
        let jobs = sinks.len();
        assert!(jobs >= 1, "need at least one sink");
        let batch = opts.batch_events.max(1);
        let mut stats = ParReplayStats {
            jobs,
            ..ParReplayStats::default()
        };

        if jobs == 1 && opts.coalesce_class.is_none() {
            // No partitioning needed — but the configured batch size still
            // applies. (This used to call `self.replay`, silently feeding
            // the REPLAY_BATCH_EVENTS default while reporting `batches`
            // computed from `opts.batch_events` — the one path where the
            // knob didn't reach the sink.)
            feed_blocks(sinks[0], &self.events, batch);
            stats.replayed_events = self.len() as u64;
            stats.batches = self.len().div_ceil(batch) as u64;
            return stats;
        }

        let mut parts = self.partition(jobs, worker_of);
        if let Some(class) = opts.coalesce_class {
            for p in &mut parts {
                stats.coalesce.merge(coalesce_events(p, class));
            }
        }
        for p in &parts {
            stats.replayed_events += p.len() as u64;
            stats.batches += p.len().div_ceil(batch) as u64;
        }

        if jobs == 1 {
            feed_blocks(sinks[0], &parts[0], batch);
            return stats;
        }
        std::thread::scope(|s| {
            for (part, sink) in parts.iter().zip(sinks) {
                s.spawn(move || feed_blocks(*sink, part, batch));
            }
        });
        stats
    }

    /// Compute summary statistics in a single pass with pre-sized sets.
    pub fn stats(&self) -> TraceStats {
        let mut reads = 0;
        let mut writes = 0;
        let mut bytes = 0;
        // Every insert below would otherwise re-hash through a growth
        // cascade; traces routinely hold millions of events over at most
        // a few hundred thousand distinct addresses.
        let mut addrs = HashSet::with_capacity((self.events.len() / 4).clamp(16, 1 << 20));
        let mut tids: HashSet<u32> = HashSet::with_capacity(64);
        for e in &self.events {
            match e.kind {
                AccessKind::Read => reads += 1,
                AccessKind::Write => writes += 1,
            }
            bytes += e.size as u64;
            addrs.insert(e.addr);
            tids.insert(e.tid);
        }
        TraceStats {
            reads,
            writes,
            bytes,
            distinct_addrs: addrs.len(),
            threads: tids.len(),
        }
    }
}

/// Deliver `events` to `sink` in `batch`-sized blocks, then flush.
fn feed_blocks(sink: &dyn AccessSink, events: &[AccessEvent], batch: usize) {
    for chunk in events.chunks(batch) {
        sink.on_batch(chunk);
    }
    sink.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AccessEvent, FuncId, LoopId};
    use crate::sink::{CountingSink, RecordingSink};

    fn ev(seq: u64, tid: u32, addr: u64, kind: AccessKind) -> StampedEvent {
        StampedEvent {
            seq,
            event: AccessEvent {
                tid,
                addr,
                size: 8,
                kind,
                loop_id: LoopId::NONE,
                parent_loop: LoopId::NONE,
                func: FuncId::NONE,
                site: 0,
            },
        }
    }

    #[test]
    fn construction_sorts_by_stamp() {
        let t = Trace::new(vec![
            ev(2, 0, 0x10, AccessKind::Read),
            ev(0, 1, 0x20, AccessKind::Write),
            ev(1, 0, 0x10, AccessKind::Write),
        ]);
        let seqs: Vec<u64> = t.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn stats_are_correct() {
        let t = Trace::new(vec![
            ev(0, 0, 0x10, AccessKind::Write),
            ev(1, 1, 0x10, AccessKind::Read),
            ev(2, 2, 0x20, AccessKind::Read),
        ]);
        let s = t.stats();
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes, 24);
        assert_eq!(s.distinct_addrs, 2);
        assert_eq!(s.threads, 3);
    }

    #[test]
    fn replay_delivers_everything_in_order() {
        let t = Trace::new((0..50).map(|i| ev(i, 0, i, AccessKind::Read)).collect());
        let c = CountingSink::new();
        t.replay(&c);
        assert_eq!(c.reads(), 50);
    }

    #[test]
    fn replay_batches_span_block_boundaries() {
        // More events than one block: every event must still arrive once.
        let n = (REPLAY_BATCH_EVENTS * 2 + 37) as u64;
        let t = Trace::new((0..n).map(|i| ev(i, 0, i, AccessKind::Write)).collect());
        let c = CountingSink::new();
        t.replay(&c);
        assert_eq!(c.writes(), n);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.stats().threads, 0);
    }

    #[test]
    fn partition_preserves_order_and_loses_nothing() {
        let t = Trace::new(
            (0..200)
                .map(|i| ev(i, (i % 3) as u32, i * 8, AccessKind::Read))
                .collect(),
        );
        let parts = t.partition(4, &|addr| (addr / 8 % 4) as usize);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 200);
        for (w, part) in parts.iter().enumerate() {
            // Each stream holds exactly its class, in temporal order.
            assert!(part.iter().all(|e| (e.addr / 8 % 4) as usize == w));
            let addrs: Vec<u64> = part.iter().map(|e| e.addr).collect();
            let mut sorted = addrs.clone();
            sorted.sort_unstable(); // temporal order == addr order here
            assert_eq!(addrs, sorted);
        }
    }

    #[test]
    fn par_replay_single_job_equals_replay() {
        let t = Trace::new((0..500).map(|i| ev(i, 0, i, AccessKind::Read)).collect());
        let seq = CountingSink::new();
        t.replay(&seq);
        let par = CountingSink::new();
        let stats = t.par_replay(&[&par], &|_| 0, &ParReplayOptions::default());
        assert_eq!(par.reads(), seq.reads());
        assert_eq!(stats.jobs, 1);
        assert_eq!(stats.replayed_events, 500);
        assert_eq!(stats.coalesce, CoalesceStats::default());
    }

    #[test]
    fn par_replay_delivers_each_partition_to_its_sink() {
        let t = Trace::new(
            (0..400)
                .map(|i| ev(i, 0, i, AccessKind::Write))
                .collect::<Vec<_>>(),
        );
        let sinks: Vec<CountingSink> = (0..4).map(|_| CountingSink::new()).collect();
        let refs: Vec<&dyn AccessSink> = sinks.iter().map(|s| s as &dyn AccessSink).collect();
        let stats = t.par_replay(
            &refs,
            &|addr| (addr % 4) as usize,
            &ParReplayOptions {
                batch_events: 32,
                coalesce_class: None,
            },
        );
        for s in &sinks {
            assert_eq!(s.writes(), 100);
        }
        assert_eq!(stats.replayed_events, 400);
        assert_eq!(stats.batches, 4 * 100u64.div_ceil(32));
    }

    #[test]
    fn par_replay_recording_reconstructs_partitions() {
        // Recording through par_replay keeps every event exactly once.
        let t = Trace::new(
            (0..300)
                .map(|i| ev(i, (i % 2) as u32, i, AccessKind::Read))
                .collect::<Vec<_>>(),
        );
        let rec: Vec<RecordingSink> = (0..3).map(|_| RecordingSink::new()).collect();
        let refs: Vec<&dyn AccessSink> = rec.iter().map(|s| s as &dyn AccessSink).collect();
        t.par_replay(
            &refs,
            &|addr| (addr % 3) as usize,
            &ParReplayOptions::default(),
        );
        assert_eq!(rec.iter().map(|r| r.len()).sum::<usize>(), 300);
    }

    fn evl(tid: u32, addr: u64, kind: AccessKind, l: u32) -> AccessEvent {
        AccessEvent {
            tid,
            addr,
            size: 8,
            kind,
            loop_id: LoopId(l),
            parent_loop: LoopId::NONE,
            func: FuncId::NONE,
            site: 0,
        }
    }

    #[test]
    fn coalesce_folds_same_class_runs_to_first_event() {
        // Same thread, kind, loop, class: a stride-8 sweep in one class.
        let mut evs = vec![
            evl(0, 0x100, AccessKind::Read, 1),
            evl(0, 0x108, AccessKind::Read, 1),
            evl(0, 0x110, AccessKind::Read, 1),
            evl(1, 0x118, AccessKind::Read, 1), // thread change breaks the run
            evl(1, 0x118, AccessKind::Write, 1), // kind change breaks the run
            evl(1, 0x120, AccessKind::Write, 1),
        ];
        let stats = coalesce_events(&mut evs, &|_| 0);
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0], evl(0, 0x100, AccessKind::Read, 1));
        assert_eq!(evs[1], evl(1, 0x118, AccessKind::Read, 1));
        assert_eq!(evs[2], evl(1, 0x118, AccessKind::Write, 1));
        // Two runs folded anything: the 3-read sweep and the 2-write pair.
        assert_eq!(stats.runs_folded, 2);
        assert_eq!(stats.events_folded, 3);
    }

    #[test]
    fn coalesce_respects_class_boundaries() {
        // Alternating classes: nothing may fold even though tid/kind match.
        let mut evs: Vec<AccessEvent> = (0..10)
            .map(|i| evl(0, 0x100 + i * 8, AccessKind::Read, 1))
            .collect();
        let stats = coalesce_events(&mut evs, &|addr| addr / 8 % 2);
        assert_eq!(evs.len(), 10);
        assert_eq!(stats, CoalesceStats::default());
    }

    /// Records the length of every `on_batch` block it receives.
    struct BatchSpySink {
        sizes: std::sync::Mutex<Vec<usize>>,
    }

    impl BatchSpySink {
        fn new() -> Self {
            Self {
                sizes: std::sync::Mutex::new(Vec::new()),
            }
        }
    }

    impl AccessSink for BatchSpySink {
        fn on_access(&self, _ev: &AccessEvent) {}
        fn on_batch(&self, evs: &[AccessEvent]) {
            self.sizes.lock().unwrap().push(evs.len());
        }
    }

    #[test]
    fn replay_batched_honors_requested_block_size() {
        let t = Trace::new((0..100).map(|i| ev(i, 0, i, AccessKind::Read)).collect());
        for batch in [1usize, 7, 32, 1000] {
            let spy = BatchSpySink::new();
            t.replay_batched(&spy, batch);
            let sizes = spy.sizes.lock().unwrap().clone();
            assert_eq!(sizes.iter().sum::<usize>(), 100);
            assert!(sizes[..sizes.len() - 1].iter().all(|&s| s == batch));
            assert!(*sizes.last().unwrap() <= batch);
        }
        // batch 0 is clamped to 1, not a panic or an infinite loop.
        let spy = BatchSpySink::new();
        t.replay_batched(&spy, 0);
        assert_eq!(spy.sizes.lock().unwrap().len(), 100);
    }

    #[test]
    fn par_replay_single_job_fast_path_honors_batch_size() {
        // Regression test: jobs == 1 without coalescing used to ignore
        // `batch_events` and feed the REPLAY_BATCH_EVENTS default, while
        // reporting `batches` computed from the requested size.
        let t = Trace::new((0..100).map(|i| ev(i, 0, i, AccessKind::Read)).collect());
        let spy = BatchSpySink::new();
        let stats = t.par_replay(
            &[&spy],
            &|_| 0,
            &ParReplayOptions {
                batch_events: 8,
                coalesce_class: None,
            },
        );
        let sizes = spy.sizes.lock().unwrap().clone();
        assert_eq!(sizes.len() as u64, stats.batches);
        assert_eq!(stats.batches, 100u64.div_ceil(8));
        assert!(sizes[..sizes.len() - 1].iter().all(|&s| s == 8));
    }

    #[test]
    fn coalesce_respects_loop_boundaries() {
        let mut evs = vec![
            evl(0, 0x100, AccessKind::Read, 1),
            evl(0, 0x100, AccessKind::Read, 2),
        ];
        let stats = coalesce_events(&mut evs, &|_| 0);
        assert_eq!(evs.len(), 2);
        assert_eq!(stats.runs_folded, 0);
    }
}
