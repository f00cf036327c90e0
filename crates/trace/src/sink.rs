//! Access sinks — consumers of the instrumentation event stream.
//!
//! The profiler of `lc-profiler`, the baselines of `lc-baselines` and the
//! recording/replay machinery all implement [`AccessSink`]. Online analysis
//! (the paper's mode: "we use the same threads in the program... the
//! dependencies will be identified as the program is running without any
//! need to any extra threads", §IV-D3) is simply a sink whose `on_access`
//! runs the analysis inline on the application thread.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::event::{AccessEvent, AccessKind, StampedEvent};
use crate::replay::Trace;

/// Consumer of instrumented memory accesses. Called inline from application
/// threads; implementations must be thread-safe and should be lock-free on
/// the hot path.
pub trait AccessSink: Send + Sync {
    /// Observe one access. `ev.tid` is the dense id of the calling thread.
    fn on_access(&self, ev: &AccessEvent);

    /// Observe a block of accesses in order. Semantically identical to
    /// calling [`AccessSink::on_access`] once per event (which is the
    /// default implementation); sinks override it to amortize per-event
    /// costs — dyn dispatch, atomic counter traffic, per-event hashing —
    /// across the block. [`Trace::replay`] and `Trace::par_replay` feed
    /// fixed-size blocks through this entry point.
    fn on_batch(&self, evs: &[AccessEvent]) {
        for ev in evs {
            self.on_access(ev);
        }
    }

    /// Drain any internally buffered state so subsequent reads observe
    /// every event delivered so far. Sinks that accumulate in per-thread
    /// buffers (e.g. the sharded profiler) override this; the default is a
    /// no-op. Called by [`Trace::replay`] after the last event, and by
    /// wrapper sinks forwarding a flush downstream. Must be idempotent and
    /// safe under concurrent `on_access` traffic.
    fn flush(&self) {}

    /// Whether live capture may deliver this sink's accesses late, one
    /// thread's tile at a time through [`AccessSink::on_batch`], instead of
    /// one `on_access` call per traced load or store (see [`crate::tile`]).
    /// Each thread's accesses still arrive in program order, and nothing
    /// an instrumented synchronisation orders is reordered; accesses of
    /// different threads in between may interleave differently. Read once
    /// by [`crate::TraceCtx::new`]. The default is `false`: sinks that
    /// depend on fine interleaving (a cache-coherence model) or that are
    /// read synchronously keep per-access delivery.
    fn accepts_tiles(&self) -> bool {
        false
    }
}

/// Discards every event. Used to measure native (uninstrumented-analysis)
/// run time for the slowdown experiments — the event *generation* cost
/// remains, which is the honest baseline for profiler-analysis overhead.
#[derive(Debug, Default)]
pub struct NoopSink;

impl AccessSink for NoopSink {
    #[inline]
    fn on_access(&self, _ev: &AccessEvent) {}

    #[inline]
    fn on_batch(&self, _evs: &[AccessEvent]) {}
}

/// Counts accesses and bytes; the cheapest real sink.
#[derive(Debug, Default)]
pub struct CountingSink {
    reads: AtomicU64,
    writes: AtomicU64,
    bytes: AtomicU64,
}

impl CountingSink {
    /// New zeroed counter sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of read events observed.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Number of write events observed.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Total accesses.
    pub fn total(&self) -> u64 {
        self.reads() + self.writes()
    }

    /// Total bytes touched (sum of access sizes).
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

impl AccessSink for CountingSink {
    #[inline]
    fn on_access(&self, ev: &AccessEvent) {
        match ev.kind {
            AccessKind::Read => self.reads.fetch_add(1, Ordering::Relaxed),
            AccessKind::Write => self.writes.fetch_add(1, Ordering::Relaxed),
        };
        self.bytes.fetch_add(ev.size as u64, Ordering::Relaxed);
    }

    /// Three atomic adds per block instead of two per event.
    fn on_batch(&self, evs: &[AccessEvent]) {
        let mut reads = 0u64;
        let mut writes = 0u64;
        let mut bytes = 0u64;
        for ev in evs {
            match ev.kind {
                AccessKind::Read => reads += 1,
                AccessKind::Write => writes += 1,
            }
            bytes += ev.size as u64;
        }
        if reads > 0 {
            self.reads.fetch_add(reads, Ordering::Relaxed);
        }
        if writes > 0 {
            self.writes.fetch_add(writes, Ordering::Relaxed);
        }
        if bytes > 0 {
            self.bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }
}

/// Number of buffer shards (indexed by tid) to keep recording contention low.
const RECORD_SHARDS: usize = 64;

/// Records every event with a global total-order stamp, for deterministic
/// offline replay (the FPR study needs the approximate and perfect
/// detectors to observe the *identical* access stream).
pub struct RecordingSink {
    seq: AtomicU64,
    shards: Box<[Mutex<Vec<StampedEvent>>]>,
}

impl Default for RecordingSink {
    fn default() -> Self {
        Self::new()
    }
}

impl RecordingSink {
    /// New empty recorder.
    pub fn new() -> Self {
        let shards = (0..RECORD_SHARDS).map(|_| Mutex::new(Vec::new())).collect();
        Self {
            seq: AtomicU64::new(0),
            shards,
        }
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain into a [`Trace`] sorted by stamp.
    pub fn finish(&self) -> Trace {
        let mut events: Vec<StampedEvent> = Vec::with_capacity(self.len());
        for shard in self.shards.iter() {
            events.append(&mut shard.lock());
        }
        events.sort_unstable_by_key(|e| e.seq);
        Trace::new(events)
    }
}

impl AccessSink for RecordingSink {
    fn on_access(&self, ev: &AccessEvent) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.shards[ev.tid as usize % RECORD_SHARDS]
            .lock()
            .push(StampedEvent { seq, event: *ev });
    }

    /// Reserve the block's whole stamp range with one atomic add, then take
    /// each shard lock once per same-shard run instead of once per event.
    fn on_batch(&self, evs: &[AccessEvent]) {
        if evs.is_empty() {
            return;
        }
        let mut seq = self.seq.fetch_add(evs.len() as u64, Ordering::Relaxed);
        let mut i = 0;
        while i < evs.len() {
            let shard = evs[i].tid as usize % RECORD_SHARDS;
            let mut j = i + 1;
            while j < evs.len() && evs[j].tid as usize % RECORD_SHARDS == shard {
                j += 1;
            }
            let mut buf = self.shards[shard].lock();
            buf.reserve(j - i);
            for ev in &evs[i..j] {
                buf.push(StampedEvent { seq, event: *ev });
                seq += 1;
            }
            drop(buf);
            i = j;
        }
    }
}

/// Broadcasts each event to several sinks (e.g. profile *and* record in the
/// same run).
pub struct ForkSink {
    sinks: Vec<std::sync::Arc<dyn AccessSink>>,
}

impl ForkSink {
    /// Build from a list of shared sinks.
    pub fn new(sinks: Vec<std::sync::Arc<dyn AccessSink>>) -> Self {
        Self { sinks }
    }
}

impl AccessSink for ForkSink {
    #[inline]
    fn on_access(&self, ev: &AccessEvent) {
        for s in &self.sinks {
            s.on_access(ev);
        }
    }

    fn on_batch(&self, evs: &[AccessEvent]) {
        for s in &self.sinks {
            s.on_batch(evs);
        }
    }

    fn flush(&self) {
        for s in &self.sinks {
            s.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FuncId, LoopId};
    use std::sync::Arc;

    fn ev(tid: u32, kind: AccessKind) -> AccessEvent {
        AccessEvent {
            tid,
            addr: 0x100,
            size: 8,
            kind,
            loop_id: LoopId::NONE,
            parent_loop: LoopId::NONE,
            func: FuncId::NONE,
            site: 0,
        }
    }

    #[test]
    fn counting_sink_counts() {
        let s = CountingSink::new();
        s.on_access(&ev(0, AccessKind::Read));
        s.on_access(&ev(1, AccessKind::Write));
        s.on_access(&ev(1, AccessKind::Write));
        assert_eq!(s.reads(), 1);
        assert_eq!(s.writes(), 2);
        assert_eq!(s.total(), 3);
        assert_eq!(s.bytes(), 24);
    }

    #[test]
    fn recording_sink_orders_by_stamp() {
        let s = RecordingSink::new();
        for i in 0..100u32 {
            s.on_access(&ev(i % 4, AccessKind::Read));
        }
        let trace = s.finish();
        assert_eq!(trace.len(), 100);
        let seqs: Vec<u64> = trace.events().iter().map(|e| e.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
    }

    #[test]
    fn recording_from_many_threads_keeps_all_events() {
        let s = Arc::new(RecordingSink::new());
        let mut handles = Vec::new();
        for tid in 0..8u32 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..250 {
                    s.on_access(&ev(tid, AccessKind::Write));
                }
            }));
        }
        for h in handles {
            // A panicked recorder thread is a test failure with its own
            // message, not an opaque `unwrap` on the join result.
            if let Err(p) = h.join() {
                let msg = crate::handoff::panic_message(&*p);
                panic!("recorder thread panicked: {msg}");
            }
        }
        let trace = s.finish();
        assert_eq!(trace.len(), 2000);
        // Stamps are unique.
        let mut seqs: Vec<u64> = trace.events().iter().map(|e| e.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 2000);
    }

    #[test]
    fn batched_counting_equals_per_event() {
        let per_event = CountingSink::new();
        let batched = CountingSink::new();
        let evs: Vec<AccessEvent> = (0..10)
            .map(|i| {
                ev(
                    i % 3,
                    if i % 2 == 0 {
                        AccessKind::Read
                    } else {
                        AccessKind::Write
                    },
                )
            })
            .collect();
        for e in &evs {
            per_event.on_access(e);
        }
        batched.on_batch(&evs);
        assert_eq!(per_event.reads(), batched.reads());
        assert_eq!(per_event.writes(), batched.writes());
        assert_eq!(per_event.bytes(), batched.bytes());
    }

    #[test]
    fn batched_recording_stamps_in_call_order() {
        let s = RecordingSink::new();
        let evs: Vec<AccessEvent> = (0..100).map(|i| ev(i % 5, AccessKind::Read)).collect();
        s.on_batch(&evs[..60]);
        s.on_batch(&evs[60..]);
        let trace = s.finish();
        assert_eq!(trace.len(), 100);
        // Stamps are the contiguous range 0..100 and the replayed tid
        // sequence matches the submission order exactly.
        let tids: Vec<u32> = trace.events().iter().map(|e| e.event.tid).collect();
        let want: Vec<u32> = evs.iter().map(|e| e.tid).collect();
        assert_eq!(tids, want);
        assert_eq!(trace.events().last().unwrap().seq, 99);
    }

    #[test]
    fn fork_sink_broadcasts() {
        let a = Arc::new(CountingSink::new());
        let b = Arc::new(CountingSink::new());
        let f = ForkSink::new(vec![a.clone(), b.clone()]);
        f.on_access(&ev(0, AccessKind::Read));
        assert_eq!(a.total(), 1);
        assert_eq!(b.total(), 1);
    }
}
