//! Per-tenant ingest state: bounded queue, drain thread, live pipeline.
//!
//! One tenant = one isolated analysis domain. Connections for the tenant
//! decode frames and push them into its bounded [`FrameQueue`]; a single
//! drain thread pops frames into the tenant's [`Pipeline`] — so the
//! analyzer itself is single-writer and the per-tenant memory bound is
//! `jobs` signature pairs plus the loop registry, regardless of
//! connection count or stream length.
//!
//! Frame buffers circulate: a connection's decoder fills a spare from
//! the tenant's short list ([`SPARE_FRAMES`]), and every end of a frame's
//! life — analysed or counted lost by the drain, spilled, refused by a
//! closed queue — hands the buffer back (DESIGN.md §13.2).
//!
//! The drain step is a fault seam ([`FaultSite::TenantFlush`]): an
//! injected panic, I/O error, or bit-flip there loses exactly that frame
//! — counted in [`TenantStats`] as lost frames/events — and nothing
//! else; a stall there exercises the backpressure path end to end.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lc_faults::{FaultAction, FaultInjector, FaultSite};
use lc_profiler::{Checkpoint, ProfileReport};
use lc_trace::StampedEvent;
use parking_lot::Mutex;

use crate::pipeline::{Pipeline, Snapshot};

use super::durable::{self, PersistedStats, SpillWriter};
use super::queue::{FrameQueue, PushError};

/// Milliseconds since the process's first activity reading — the
/// monotonic base for idle-reaping decisions.
pub(crate) fn uptime_ms() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_millis() as u64
}

/// Spare frame buffers a tenant keeps for its connections' decoders. One
/// buffer fills on a connection thread while the drain analyses another,
/// so a short list covers the hand-back between them with slack for
/// jitter; a longer one would only hoard memory the bounded queue already
/// accounts for.
pub const SPARE_FRAMES: usize = 4;
/// A buffer that grew past this many events (an outsized client frame) is
/// dropped rather than kept as a spare.
const SPARE_MAX_EVENTS: usize = 1 << 16;

/// Live per-tenant counters — the "exact lost-frame accounting" surface.
#[derive(Default)]
pub struct TenantStats {
    /// Whole valid frames decoded off this tenant's connections.
    pub frames_received: AtomicU64,
    /// Events in those frames.
    pub events_received: AtomicU64,
    /// Frames that never reached the analyzer (queue closed under them
    /// or an injected drain fault consumed them).
    pub frames_lost: AtomicU64,
    /// Events in the lost frames.
    pub events_lost: AtomicU64,
    /// Stream bytes that never formed a valid frame (torn/corrupt
    /// suffixes, per-connection salvage accounting).
    pub bytes_dropped: AtomicU64,
    /// Total stream bytes received (hello excluded).
    pub bytes_received: AtomicU64,
    /// Connections currently open for this tenant.
    pub conns_active: AtomicU64,
    /// Connections ever opened for this tenant.
    pub conns_total: AtomicU64,
    /// Connections that ended degraded (decode damage, read fault, or
    /// handler panic).
    pub conns_faulted: AtomicU64,
    /// Frames currently spilled to the durable spool, awaiting replay at
    /// the drain's next catch-up pass or the tenant's next restore
    /// (durable tenants only).
    pub frames_spilled: AtomicU64,
    /// Events in the spilled frames.
    pub events_spilled: AtomicU64,
    /// Frames that ever took the spill path this incarnation (monotonic;
    /// not persisted — a diagnostic that overflow happened, even after
    /// catch-up replay returns `frames_spilled` to zero).
    pub frames_spilled_total: AtomicU64,
    /// Events in those frames (monotonic, not persisted).
    pub events_spilled_total: AtomicU64,
}

/// One tenant: queue + drain thread + live pipeline + counters.
pub struct Tenant {
    /// Tenant name (validated at hello time).
    pub name: String,
    queue: Arc<FrameQueue<Vec<StampedEvent>>>,
    /// At most [`SPARE_FRAMES`] emptied frame buffers.
    spares: Mutex<Vec<Vec<StampedEvent>>>,
    /// Frame buffers handed out fresh because no spare was left.
    fresh_buffers: AtomicU64,
    /// The analyzer and, with `--coherence`, a one-shard MESI backend.
    pipeline: Mutex<Pipeline>,
    /// Full coherence reports taken so far: `/tenants/<t>/coherence`
    /// moves it, metrics scrapes must not.
    coherence_snapshots: AtomicU64,
    /// Counters, readable at any time without touching the analyzer.
    pub stats: TenantStats,
    drain: Mutex<Option<JoinHandle<()>>>,
    /// The spill side of a durable tenant (`--durable-dir`).
    spill: Option<Mutex<SpillWriter>>,
    /// Last enqueue/creation instant (`uptime_ms`) — the idle-reaper's
    /// clock.
    pub last_activity: AtomicU64,
}

impl Tenant {
    /// Create the tenant and start its drain thread. `spill` arms
    /// spill-to-disk overflow and checkpointing in its directory; `seed`
    /// restores the ingest ledger a previous incarnation checkpointed.
    pub fn spawn(
        name: String,
        pipeline: Pipeline,
        queue_frames: usize,
        faults: Option<Arc<FaultInjector>>,
        spill: Option<SpillWriter>,
        seed: Option<PersistedStats>,
    ) -> Arc<Self> {
        let stats = TenantStats::default();
        if let Some(s) = &seed {
            s.seed(&stats);
        }
        let tenant = Arc::new(Self {
            name: name.clone(),
            queue: Arc::new(FrameQueue::new(queue_frames)),
            spares: Mutex::new(Vec::with_capacity(SPARE_FRAMES)),
            fresh_buffers: AtomicU64::new(0),
            pipeline: Mutex::new(pipeline),
            coherence_snapshots: AtomicU64::new(0),
            stats,
            drain: Mutex::new(None),
            spill: spill.map(Mutex::new),
            last_activity: AtomicU64::new(uptime_ms()),
        });
        let t = Arc::clone(&tenant);
        let handle = std::thread::Builder::new()
            .name(format!("lc-drain-{name}"))
            .spawn(move || t.drain_loop(faults))
            .expect("spawn drain thread");
        *tenant.drain.lock() = Some(handle);
        tenant
    }

    /// A buffer for the next decoded frame: a spare when one is left, a
    /// fresh one otherwise. The decoder clears it before filling it.
    pub fn spare_frame(&self) -> Vec<StampedEvent> {
        if let Some(buf) = self.spares.lock().pop() {
            return buf;
        }
        self.fresh_buffers.fetch_add(1, Ordering::Relaxed);
        Vec::new()
    }

    /// A frame's life is over: keep its buffer as a spare, or drop it once
    /// [`SPARE_FRAMES`] are kept. A dropped buffer is freed after the lock
    /// is released, not under it.
    fn recycle(&self, frame: Vec<StampedEvent>) {
        if frame.capacity() > SPARE_MAX_EVENTS {
            return;
        }
        let mut spares = self.spares.lock();
        if spares.len() < SPARE_FRAMES {
            spares.push(frame);
        }
    }

    /// Count a decoded frame as received and hand it to the drain.
    ///
    /// Without durability a full queue blocks (backpressure to this
    /// tenant's producers only). A durable tenant never stalls producers:
    /// overflow frames spill to its v3 spool instead, counted spilled and
    /// replayed into the analyzer at the drain's next catch-up pass (or
    /// the tenant's next restore, if the server dies first). Spilling is
    /// **sticky**: once one frame has spilled, every later frame spills
    /// too (the spill lock serializes the decision), so the analyzer sees
    /// a live prefix and the spool holds the contiguous suffix — replay
    /// in generation order reproduces exact arrival order, which the
    /// byte-identity guarantee requires. A frame neither queued nor
    /// spilled is counted lost — so `received == analyzed + spilled +
    /// lost` at every quiescent point. A spilled or refused frame's buffer
    /// goes back to the spares.
    pub fn enqueue(&self, frame: Vec<StampedEvent>) {
        let events = frame.len() as u64;
        self.stats.frames_received.fetch_add(1, Ordering::Relaxed);
        self.stats
            .events_received
            .fetch_add(events, Ordering::Relaxed);
        self.last_activity.store(uptime_ms(), Ordering::Relaxed);
        let lost = match &self.spill {
            Some(spill) => {
                let mut spill = spill.lock();
                let overflow = if spill.has_pending() {
                    // Earlier frames are already on disk awaiting replay;
                    // admitting this one to the queue would analyze it
                    // ahead of them.
                    Some(frame)
                } else {
                    match self.queue.try_push(frame) {
                        Ok(()) => None,
                        Err(PushError::Full(frame)) | Err(PushError::Closed(frame)) => Some(frame),
                    }
                };
                match overflow {
                    None => false,
                    Some(frame) => {
                        let appended = spill.append(&frame);
                        self.recycle(frame);
                        match appended {
                            Ok(()) => {
                                self.stats.frames_spilled.fetch_add(1, Ordering::Relaxed);
                                self.stats
                                    .events_spilled
                                    .fetch_add(events, Ordering::Relaxed);
                                self.stats
                                    .frames_spilled_total
                                    .fetch_add(1, Ordering::Relaxed);
                                self.stats
                                    .events_spilled_total
                                    .fetch_add(events, Ordering::Relaxed);
                                false
                            }
                            Err(e) => {
                                eprintln!(
                                    "warning: tenant `{}`: spill write failed ({e}); frame lost",
                                    self.name
                                );
                                true
                            }
                        }
                    }
                }
            }
            None => match self.queue.push_blocking(frame) {
                Ok(()) => false,
                Err(frame) => {
                    self.recycle(frame);
                    true
                }
            },
        };
        if lost {
            self.stats.frames_lost.fetch_add(1, Ordering::Relaxed);
            self.stats.events_lost.fetch_add(events, Ordering::Relaxed);
        }
    }

    /// Whether this tenant persists to disk.
    pub fn is_durable(&self) -> bool {
        self.spill.is_some()
    }

    /// Milliseconds since the last enqueue (or creation).
    pub fn idle_ms(&self) -> u64 {
        uptime_ms().saturating_sub(self.last_activity.load(Ordering::Relaxed))
    }

    /// Persist the tenant: seal the open spill generation (its index
    /// becomes durable) and atomically write the ingest ledger plus a full
    /// analyzer checkpoint. Returns `Ok(false)` for non-durable tenants.
    /// Failure leaves the previous state file intact (temp + rename).
    pub fn checkpoint_to_disk(&self) -> std::io::Result<bool> {
        let Some(spill) = &self.spill else {
            return Ok(false);
        };
        let mut spill = spill.lock();
        spill.seal()?;
        let cp = Checkpoint::capture(self.pipeline.lock().analyzer());
        spill.write_state(&PersistedStats::capture(&self.stats), &cp)?;
        Ok(true)
    }

    /// Pop the next frame, interleaving spill catch-up: whenever the
    /// queue runs dry while spilled frames await replay, drain them from
    /// disk before blocking again. The queue holds only frames *older*
    /// than the oldest spill (enqueue spills sticky), so "queue first,
    /// then spool" is exact arrival order. Returns `None` once the queue
    /// is closed and drained — the drain thread's exit condition.
    fn next_frame(&self) -> Option<Vec<StampedEvent>> {
        loop {
            if let Some(frame) = self.queue.try_pop() {
                return Some(frame);
            }
            if self.queue.is_closed() {
                // Re-check after observing closed: a racing push may have
                // landed between the failed pop and the flag read. Spills
                // beyond this point stay on disk for the next restore.
                return self.queue.try_pop();
            }
            if self.spill_pending() {
                self.spill_catch_up();
                continue;
            }
            super::sync::backoff();
        }
    }

    /// Whether spilled frames await replay (always false when not
    /// durable).
    fn spill_pending(&self) -> bool {
        (self.spill.as_ref()).is_some_and(|s| s.lock().has_pending())
    }

    /// Replay every sealed spill generation into the live pipeline, in
    /// order ([`durable::replay_spills`]), and move the replayed counts
    /// from `spilled` to analyzed or lost. Runs on the drain thread with
    /// the queue empty; concurrent enqueues keep spilling into a *newer*
    /// generation (sticky), so the replayed files are immutable and the
    /// order invariant holds. The tenant is not quiet meanwhile: the spill
    /// stays pending until `refresh_pending` finds the replayed files
    /// gone. Crash-consistency matches restore: a file is deleted only
    /// after its frames reached the pipeline, and the checkpoint on disk
    /// still precedes those frames, so a crash between replay and the
    /// next checkpoint re-replays from the old checkpoint instead of
    /// double-counting.
    fn spill_catch_up(&self) {
        let Some(spill) = &self.spill else { return };
        // Listed under the spill lock: an enqueue after it opens a newer
        // generation, which this pass neither replays nor deletes.
        let sealed = spill.lock().seal_for_replay();
        match sealed {
            Err(e) => eprintln!(
                "warning: tenant `{}`: cannot seal spill for catch-up ({e}); \
                 frames stay spooled for the next restore",
                self.name
            ),
            Ok(files) => {
                let r = durable::replay_spills(files, &self.pipeline);
                let s = &self.stats;
                s.frames_spilled.fetch_sub(r.frames, Ordering::Relaxed);
                s.events_spilled.fetch_sub(r.events, Ordering::Relaxed);
                s.frames_lost.fetch_add(r.lost_frames, Ordering::Relaxed);
                s.events_lost.fetch_add(r.lost_events, Ordering::Relaxed);
            }
        }
        spill.lock().refresh_pending();
    }

    fn drain_loop(&self, faults: Option<Arc<FaultInjector>>) {
        while let Some(frame) = self.next_frame() {
            let events = frame.len() as u64;
            let action = faults
                .as_ref()
                .and_then(|f| f.check(FaultSite::TenantFlush));
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                match action {
                    Some(FaultAction::Panic) => {
                        panic!("injected fault: panic at tenant_flush")
                    }
                    // Stall *inside* the drain: the queue fills and
                    // producers stall behind it — the backpressure path,
                    // not a loss.
                    Some(FaultAction::Stall { ms }) => {
                        std::thread::sleep(Duration::from_millis(ms))
                    }
                    // An I/O-flavored fault at the drain seam consumes
                    // the frame (analysis "write" failed).
                    Some(_) => return false,
                    None => {}
                }
                self.pipeline.lock().on_frame(&frame).is_ok()
            }));
            if !matches!(outcome, Ok(true)) {
                self.stats.frames_lost.fetch_add(1, Ordering::Relaxed);
                self.stats.events_lost.fetch_add(events, Ordering::Relaxed);
            }
            // Back before `done`, so a quiet tenant holds every buffer.
            self.recycle(frame);
            self.queue.done();
        }
    }

    /// True when no connection is open, no frame is queued, spooled or
    /// popped but unfinished — every received frame is either analyzed or
    /// counted lost.
    pub fn quiet(&self) -> bool {
        self.stats.conns_active.load(Ordering::Acquire) == 0
            && self.queue.is_idle()
            && !self.spill_pending()
    }

    /// Poll until [`Tenant::quiet`] or the deadline passes. Returns
    /// whether quiescence was reached.
    pub fn wait_quiet(&self, deadline: Duration) -> bool {
        let start = Instant::now();
        while !self.quiet() {
            if start.elapsed() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }

    /// Snapshot the merged profile (non-destructive; callable live).
    pub fn report(&self) -> ProfileReport {
        self.pipeline.lock().analyzer().report()
    }

    /// The canonical plain-text report over the events actually analyzed
    /// — byte-identical to offline `loopcomm analyze --report-out` on the
    /// same events.
    pub fn canonical(&self) -> String {
        self.pipeline.lock().canonical()
    }

    /// The live counters, read under one lock: no report is built.
    pub fn snapshot(&self) -> Snapshot {
        self.pipeline.lock().snapshot()
    }

    /// Full coherence-report snapshots taken so far (0 with the backend
    /// off).
    pub fn coherence_snapshots(&self) -> u64 {
        self.coherence_snapshots.load(Ordering::Relaxed)
    }

    /// The canonical plain-text coherence report — byte-identical to
    /// offline `loopcomm analyze --coherence --coherence-out` on the same
    /// events. `None` when the backend is off.
    pub fn coherence_canonical(&self) -> Option<String> {
        let report = self.pipeline.lock().live_coherence()?;
        self.coherence_snapshots.fetch_add(1, Ordering::Relaxed);
        Some(lc_cachesim::canonical_coherence_report(&report))
    }

    /// Frames currently waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Close the queue and join the drain thread (idempotent).
    pub fn shutdown(&self) {
        self.queue.close();
        if let Some(h) = self.drain.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for Tenant {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::serve::ServeConfig;
    use lc_profiler::ProfilerConfig;
    use lc_sigmem::SignatureConfig;
    use lc_trace::{AccessEvent, AccessKind, FuncId, LoopId};

    /// A tenant's pipeline over 4 threads, 2 jobs.
    pub(in crate::serve) fn tenant_pipeline(
        coherence: Option<lc_cachesim::CoherenceConfig>,
    ) -> Pipeline {
        let cfg = ServeConfig {
            sig: SignatureConfig::paper_default(1 << 8, 4),
            prof: ProfilerConfig::nested(4),
            jobs: 2,
            coherence,
            ..ServeConfig::default()
        };
        Pipeline::new(&cfg.pipeline()).expect("small tables")
    }

    fn pipeline() -> Pipeline {
        tenant_pipeline(None)
    }

    /// `n` events from `seq` `base` on: writes and reads by 4 threads
    /// over 16 words of loop 1.
    pub(in crate::serve) fn frame(base: u64, n: u64) -> Vec<StampedEvent> {
        (0..n)
            .map(|i| StampedEvent {
                seq: base + i,
                event: AccessEvent {
                    tid: ((base + i) % 4) as u32,
                    addr: 0x100 + ((base + i) % 16) * 8,
                    size: 8,
                    kind: if (base + i) % 2 == 0 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                    loop_id: LoopId(1),
                    parent_loop: LoopId::NONE,
                    func: FuncId::NONE,
                    site: 0,
                },
            })
            .collect()
    }

    #[test]
    fn frames_flow_to_analyzer_and_quiesce() {
        let t = Tenant::spawn("t".into(), pipeline(), 4, None, None, None);
        for i in 0..10 {
            t.enqueue(frame(i * 8, 8));
        }
        assert!(t.wait_quiet(Duration::from_secs(10)));
        assert_eq!(t.stats.frames_received.load(Ordering::Relaxed), 10);
        assert_eq!(t.snapshot().events, 80);
        assert_eq!(t.stats.frames_lost.load(Ordering::Relaxed), 0);
        t.shutdown();
    }

    /// A frame naming a thread outside the 4 × 4 matrices is counted
    /// lost whole, and the frames around it are analyzed exactly.
    #[test]
    fn frame_with_a_thread_beyond_the_matrices_is_lost_whole() {
        let t = Tenant::spawn("t".into(), pipeline(), 4, None, None, None);
        let mut wild = frame(8, 8);
        wild[3].event.tid = 4;
        t.enqueue(frame(0, 8));
        t.enqueue(wild);
        t.enqueue(frame(16, 8));
        assert!(t.wait_quiet(Duration::from_secs(10)));
        assert_eq!(t.stats.frames_lost.load(Ordering::Relaxed), 1);
        assert_eq!(t.stats.events_lost.load(Ordering::Relaxed), 8);
        assert_eq!(t.snapshot().events, 16);
        let mut want = pipeline();
        want.on_frame(&frame(0, 8)).unwrap();
        want.on_frame(&frame(16, 8)).unwrap();
        assert_eq!(t.report().global, want.analyzer().report().global);
        t.shutdown();
    }

    /// Scrape as soon as the tenant reads quiet, frame after frame: the
    /// drain's pop empties the queue before the frame reaches either
    /// backend, and the coherence counters are fed last, so a quiet
    /// reading inside that window shows short totals.
    #[test]
    fn quiet_never_reads_true_between_a_pop_and_its_analysis() {
        let p = tenant_pipeline(Some(lc_cachesim::CoherenceConfig::default()));
        let t = Tenant::spawn("t".into(), p, 4, None, None, None);
        for i in 0..400 {
            t.enqueue(frame(i * 8, 8));
            while !t.quiet() {
                std::hint::spin_loop();
            }
            let totals = t.snapshot().coherence.expect("coherence on");
            assert_eq!(
                totals.accesses,
                (i + 1) * 8,
                "frame {i}: quiet before analysed"
            );
        }
        t.shutdown();
    }

    #[test]
    fn injected_drain_panic_loses_exactly_one_frame() {
        use lc_faults::{FaultPlan, FaultRule};
        let inj = Arc::new(FaultInjector::new(FaultPlan {
            seed: 0,
            rules: vec![FaultRule::once(
                FaultSite::TenantFlush,
                FaultAction::Panic,
                2,
            )],
        }));
        let t = Tenant::spawn("t".into(), pipeline(), 4, Some(inj), None, None);
        for i in 0..6 {
            t.enqueue(frame(i * 5, 5));
        }
        assert!(t.wait_quiet(Duration::from_secs(10)));
        assert_eq!(t.stats.frames_lost.load(Ordering::Relaxed), 1);
        assert_eq!(t.stats.events_lost.load(Ordering::Relaxed), 5);
        assert_eq!(t.snapshot().events, 25);
        t.shutdown();
    }

    /// A frame the way a connection builds it: in a buffer from the
    /// tenant's spares.
    fn spare_filled(t: &Tenant, base: u64, n: u64) -> Vec<StampedEvent> {
        let mut buf = t.spare_frame();
        buf.clear();
        buf.extend(frame(base, n));
        buf
    }

    /// `received == analyzed + spilled + lost`, in frames and in events.
    fn assert_ledger_balances(t: &Tenant) {
        let n = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let s = &t.stats;
        assert_eq!(
            n(&s.frames_received),
            t.snapshot().frames + n(&s.frames_spilled) + n(&s.frames_lost)
        );
        assert_eq!(
            n(&s.events_received),
            t.snapshot().events + n(&s.events_spilled) + n(&s.events_lost)
        );
    }

    fn spares(t: &Tenant) -> usize {
        t.spares.lock().len()
    }

    /// Every end of a frame's life on a non-durable tenant hands its
    /// buffer back: analysed, a wild-tid frame counted lost, an injected
    /// drain panic and I/O fault, and a push refused by a closed queue.
    /// With a queue of 2 at most 4 buffers are ever out at once (2 queued,
    /// one in the drain, one filling), so no spare is ever dropped and the
    /// 1 000-frame stream allocates at most that many.
    #[test]
    fn every_end_of_a_frames_life_recycles_its_buffer() {
        use lc_faults::{FaultPlan, FaultRule};
        const QUEUE: usize = 2;
        let inj = Arc::new(FaultInjector::new(FaultPlan {
            seed: 0,
            rules: vec![
                FaultRule::once(FaultSite::TenantFlush, FaultAction::Panic, 100),
                FaultRule::once(FaultSite::TenantFlush, FaultAction::IoError, 500),
            ],
        }));
        let t = Tenant::spawn("t".into(), pipeline(), QUEUE, Some(inj), None, None);
        let mut wild = 0;
        for i in 0..1000u64 {
            let mut f = spare_filled(&t, i * 8, 8);
            if i % 97 == 13 {
                f[5].event.tid = 9;
                wild += 1;
            }
            t.enqueue(f);
            assert!(spares(&t) <= SPARE_FRAMES);
        }
        assert!(t.wait_quiet(Duration::from_secs(30)));
        assert_ledger_balances(&t);
        assert_eq!(t.stats.frames_lost.load(Ordering::Relaxed), wild + 2);
        t.shutdown();
        for i in 0..3u64 {
            t.enqueue(spare_filled(&t, i * 8, 8));
        }
        assert_eq!(t.stats.frames_lost.load(Ordering::Relaxed), wild + 5);
        assert_ledger_balances(&t);
        let fresh = t.fresh_buffers.load(Ordering::Relaxed) as usize;
        assert!(fresh <= QUEUE + 2, "{fresh} buffers for 1 003 frames");
        assert!(fresh <= SPARE_FRAMES + QUEUE + 1);
        assert_eq!(spares(&t), fresh, "a quiet tenant holds every buffer");
    }

    /// A durable tenant whose drain stalls spills the overflow: the spill
    /// hands each buffer straight back, catch-up replays the spool, and
    /// the ledger balances with nothing left spilled.
    #[test]
    fn spilled_frames_recycle_their_buffers() {
        use lc_faults::{FaultPlan, FaultRule};
        const QUEUE: usize = 1;
        let dir = std::env::temp_dir().join(format!("lc_spare_spill_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let inj = Arc::new(FaultInjector::new(FaultPlan {
            seed: 0,
            rules: vec![FaultRule::once(
                FaultSite::TenantFlush,
                FaultAction::Stall { ms: 200 },
                0,
            )],
        }));
        let spill = SpillWriter::new(dir.clone(), None);
        let t = Tenant::spawn("t".into(), pipeline(), QUEUE, Some(inj), Some(spill), None);
        for i in 0..1000u64 {
            t.enqueue(spare_filled(&t, i * 8, 8));
            assert!(spares(&t) <= SPARE_FRAMES);
        }
        assert!(t.wait_quiet(Duration::from_secs(30)));
        assert!(t.stats.frames_spilled_total.load(Ordering::Relaxed) > 0);
        assert_eq!(t.stats.frames_spilled.load(Ordering::Relaxed), 0);
        assert_eq!(t.stats.frames_lost.load(Ordering::Relaxed), 0);
        assert_eq!(t.snapshot().events, 8000);
        assert_ledger_balances(&t);
        let fresh = t.fresh_buffers.load(Ordering::Relaxed) as usize;
        assert!(fresh <= SPARE_FRAMES + QUEUE + 1, "{fresh} buffers");
        t.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The spare list never grows past its cap, and an outsized buffer is
    /// dropped rather than kept.
    #[test]
    fn spares_are_capped_and_outsized_buffers_dropped() {
        let t = Tenant::spawn("t".into(), pipeline(), 4, None, None, None);
        t.recycle(Vec::with_capacity(SPARE_MAX_EVENTS + 1));
        assert_eq!(spares(&t), 0);
        for _ in 0..3 * SPARE_FRAMES {
            t.recycle(Vec::with_capacity(16));
        }
        assert_eq!(spares(&t), SPARE_FRAMES);
        for _ in 0..SPARE_FRAMES {
            assert!(t.spare_frame().capacity() >= 16);
        }
        assert_eq!(t.fresh_buffers.load(Ordering::Relaxed), 0);
        assert_eq!(t.spare_frame().capacity(), 0);
        assert_eq!(t.fresh_buffers.load(Ordering::Relaxed), 1);
        t.shutdown();
    }
}
