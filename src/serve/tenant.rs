//! Per-tenant ingest state: bounded hand-off, drain thread, live pipeline.
//!
//! One tenant = one isolated analysis domain. Connections for the tenant
//! decode frames and send each through the tenant's bounded ring of frame
//! buffers ([`lc_trace::handoff`], `--queue-frames` buffers); a single
//! drain thread receives them into the tenant's [`Pipeline`] — so the
//! analyzer itself is single-writer and the per-tenant memory bound is
//! `jobs` signature pairs plus the loop registry, regardless of
//! connection count or stream length.
//!
//! Frame buffers circulate: a connection decodes into its own buffer and
//! trades it for an empty one from the ring as it sends the frame, and
//! the drain recycles every buffer it received — analysed or counted
//! lost — keeping at most [`SPARE_FRAMES`] for reuse (DESIGN.md §13.2).
//!
//! The drain step is a fault seam ([`FaultSite::TenantFlush`]): an
//! injected panic, I/O error, or bit-flip there loses exactly that frame
//! — counted in [`TenantStats`] as lost frames/events — and nothing
//! else; a stall there exercises the backpressure path end to end.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use lc_faults::{FaultAction, FaultInjector, FaultSite};
use lc_profiler::{Checkpoint, ProfileReport};
use lc_trace::handoff::{self, Drainer, Filler, Helper};
use lc_trace::StampedEvent;
use parking_lot::Mutex;

use crate::pipeline::{Pipeline, Snapshot};

use super::durable::{self, PersistedStats, SpillWriter};

/// One decoded frame.
type Frame = Vec<StampedEvent>;

/// Milliseconds since the process's first activity reading — the
/// monotonic base for idle-reaping decisions.
pub(crate) fn uptime_ms() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_millis() as u64
}

/// Emptied frame buffers a tenant's ring keeps for reuse. One buffer
/// fills on a connection thread while the drain analyses another, so a
/// short list covers the hand-back between them with slack for jitter; a
/// longer one would only hoard memory a quiet tenant does not need.
pub const SPARE_FRAMES: usize = 4;
/// A buffer that grew past this many events (an outsized client frame) is
/// dropped rather than kept for reuse.
const SPARE_MAX_EVENTS: usize = 1 << 16;

/// Live per-tenant counters — the "exact lost-frame accounting" surface.
#[derive(Default)]
pub struct TenantStats {
    /// Whole valid frames decoded off this tenant's connections.
    pub frames_received: AtomicU64,
    /// Events in those frames.
    pub events_received: AtomicU64,
    /// Frames that never reached the analyzer (ring closed under them
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

/// One tenant: frame ring + drain thread + live pipeline + counters.
pub struct Tenant {
    /// Tenant name (validated at hello time).
    pub name: String,
    /// The filling end of the frame ring, shared by the connections.
    ring: Filler<Frame>,
    /// The analyzer and, with `--coherence`, a one-shard MESI backend.
    pipeline: Mutex<Pipeline>,
    /// Full coherence reports taken so far: `/tenants/<t>/coherence`
    /// moves it, metrics scrapes must not.
    coherence_snapshots: AtomicU64,
    /// Counters, readable at any time without touching the analyzer.
    pub stats: TenantStats,
    drain: Mutex<Option<Helper<()>>>,
    /// The spill side of a durable tenant (`--durable-dir`).
    spill: Option<Mutex<SpillWriter>>,
    /// Last enqueue/creation instant (`uptime_ms`) — the idle-reaper's
    /// clock.
    pub last_activity: AtomicU64,
}

impl Tenant {
    /// Create the tenant and start its drain thread over a ring of
    /// `queue_frames` frame buffers. `spill` arms spill-to-disk overflow
    /// and checkpointing in its directory; `seed` restores the ingest
    /// ledger a previous incarnation checkpointed.
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
        let (ring, drainer) = handoff::ring(queue_frames, SPARE_FRAMES);
        let tenant = Arc::new(Self {
            name: name.clone(),
            ring,
            pipeline: Mutex::new(pipeline),
            coherence_snapshots: AtomicU64::new(0),
            stats,
            drain: Mutex::new(None),
            spill: spill.map(Mutex::new),
            last_activity: AtomicU64::new(uptime_ms()),
        });
        let t = Arc::clone(&tenant);
        let drain = Helper::spawn(format!("lc-drain-{name}"), move || {
            t.drain_loop(&drainer, faults)
        })
        .expect("spawn drain thread");
        *tenant.drain.lock() = Some(drain);
        tenant
    }

    /// Count the decoded `frame` as received and hand it to the drain,
    /// leaving an emptied buffer from the ring in its place.
    ///
    /// Without durability this waits while every ring buffer is out
    /// (backpressure to this tenant's producers only). A durable tenant
    /// never stalls producers: overflow frames spill to its v3 spool
    /// instead, counted spilled and replayed into the analyzer at the
    /// drain's next catch-up pass (or the tenant's next restore, if the
    /// server dies first). Spilling is **sticky**: once one frame has
    /// spilled, every later frame spills too (the spill lock serializes
    /// the decision), so the analyzer sees a live prefix and the spool
    /// holds the contiguous suffix — replay in generation order
    /// reproduces exact arrival order, which the byte-identity guarantee
    /// requires. A frame neither sent nor spilled is counted lost — so
    /// `received == analyzed + spilled + lost` at every quiescent point.
    pub fn enqueue(&self, frame: &mut Frame) {
        let events = frame.len() as u64;
        self.stats.frames_received.fetch_add(1, Ordering::Relaxed);
        self.stats
            .events_received
            .fetch_add(events, Ordering::Relaxed);
        self.last_activity.store(uptime_ms(), Ordering::Relaxed);
        let lost = match &self.spill {
            Some(spill) => {
                let mut spill = spill.lock();
                // Pending spills hold earlier frames; sending this one
                // would analyze it ahead of them.
                if !spill.has_pending() && self.send(frame, self.ring.try_empty()) {
                    false
                } else {
                    match spill.append(frame) {
                        Ok(()) => {
                            let s = &self.stats;
                            s.frames_spilled.fetch_add(1, Ordering::Relaxed);
                            s.events_spilled.fetch_add(events, Ordering::Relaxed);
                            s.frames_spilled_total.fetch_add(1, Ordering::Relaxed);
                            s.events_spilled_total.fetch_add(events, Ordering::Relaxed);
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
            None => !self.send(frame, self.ring.empty()),
        };
        if lost {
            self.stats.frames_lost.fetch_add(1, Ordering::Relaxed);
            self.stats.events_lost.fetch_add(events, Ordering::Relaxed);
        }
    }

    /// Trade `frame` for the ring's `empty` buffer and send it; `false`,
    /// with `frame` as it was, when the ring had none to give or is closed.
    fn send(&self, frame: &mut Frame, empty: Option<Frame>) -> bool {
        let Some(buf) = empty else {
            return false;
        };
        match self.ring.send(std::mem::replace(frame, buf)) {
            Ok(()) => true,
            Err(sent) => {
                *frame = sent;
                false
            }
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

    /// Receive the next frame, interleaving spill catch-up: whenever
    /// nothing waits in the ring while spilled frames await replay, drain
    /// them from disk before waiting. The ring holds only frames *older*
    /// than the oldest spill (enqueue spills sticky), so "ring first,
    /// then spool" is exact arrival order. Returns `None` once the ring
    /// is closed and drained — the drain thread's exit condition; spills
    /// left then stay on disk for the next restore.
    ///
    /// The drain never waits on an empty ring with a spill pending: a
    /// spill either follows earlier ones (pending already seen here) or
    /// found every ring buffer out — sent and waiting, or in this
    /// thread's hands — so this thread recycles at least once more and
    /// looks again before it waits.
    fn next_frame(&self, drainer: &Drainer<Frame>) -> Option<Frame> {
        while self.spill_due() && !self.ring.is_closed() {
            self.spill_catch_up();
        }
        drainer.recv()
    }

    /// Whether spilled frames await replay with nothing in the ring ahead
    /// of them. Both are read under the spill lock, which every durable
    /// send holds too, so no frame can enter the ring between the reads
    /// and land behind a spill the catch-up would then replay first.
    fn spill_due(&self) -> bool {
        (self.spill.as_ref()).is_some_and(|s| {
            let spill = s.lock();
            spill.has_pending() && self.ring.is_empty()
        })
    }

    /// Whether spilled frames await replay (always false when not
    /// durable).
    fn spill_pending(&self) -> bool {
        (self.spill.as_ref()).is_some_and(|s| s.lock().has_pending())
    }

    /// Replay every sealed spill generation into the live pipeline, in
    /// order ([`durable::replay_spills`]), and move the replayed counts
    /// from `spilled` to analyzed or lost. Runs on the drain thread with
    /// the ring empty; concurrent enqueues keep spilling into a *newer*
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

    fn drain_loop(&self, drainer: &Drainer<Frame>, faults: Option<Arc<FaultInjector>>) {
        while let Some(mut frame) = self.next_frame(drainer) {
            let events = frame.len() as u64;
            let action = faults
                .as_ref()
                .and_then(|f| f.check(FaultSite::TenantFlush));
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                match action {
                    Some(FaultAction::Panic) => {
                        panic!("injected fault: panic at tenant_flush")
                    }
                    // Stall *inside* the drain: the ring's buffers run out
                    // and producers stall behind it — the backpressure
                    // path, not a loss.
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
            if frame.capacity() > SPARE_MAX_EVENTS {
                frame = Frame::new();
            }
            // Last, so a quiet tenant has counted this frame.
            drainer.recycle(frame);
        }
    }

    /// True when no connection is open, no frame is spooled, and every
    /// ring buffer is home — none waits to be received or is between the
    /// drain's receive and its recycle, so every received frame is either
    /// analyzed or counted lost.
    pub fn quiet(&self) -> bool {
        self.stats.conns_active.load(Ordering::Acquire) == 0
            && self.ring.all_home()
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

    /// Frames sent and not yet received by the drain.
    pub fn queue_len(&self) -> usize {
        self.ring.len()
    }

    /// Close the ring and join the drain thread (idempotent).
    pub fn shutdown(&self) {
        self.ring.close();
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
            t.enqueue(&mut frame(i * 8, 8));
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
        t.enqueue(&mut frame(0, 8));
        t.enqueue(&mut wild);
        t.enqueue(&mut frame(16, 8));
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
    /// drain's receive empties the ring before the frame reaches either
    /// backend, and the coherence counters are fed last, so a quiet
    /// reading inside that window shows short totals.
    #[test]
    fn quiet_never_reads_true_between_a_pop_and_its_analysis() {
        let p = tenant_pipeline(Some(lc_cachesim::CoherenceConfig::default()));
        let t = Tenant::spawn("t".into(), p, 4, None, None, None);
        for i in 0..400 {
            t.enqueue(&mut frame(i * 8, 8));
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
            t.enqueue(&mut frame(i * 5, 5));
        }
        assert!(t.wait_quiet(Duration::from_secs(10)));
        assert_eq!(t.stats.frames_lost.load(Ordering::Relaxed), 1);
        assert_eq!(t.stats.events_lost.load(Ordering::Relaxed), 5);
        assert_eq!(t.snapshot().events, 25);
        t.shutdown();
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

    /// Take every buffer out of a quiet tenant's ring and return the
    /// capacities of those that hold memory. The tenant takes no frame
    /// afterwards, so only a test's last step may call it.
    fn grown_buffers(t: &Tenant, queue: usize) -> Vec<usize> {
        assert!(t.quiet());
        let bufs: Vec<Frame> = (0..queue).map_while(|_| t.ring.try_empty()).collect();
        assert_eq!(bufs.len(), queue, "a quiet tenant holds every buffer");
        assert_eq!(t.ring.try_empty(), None, "and no more than that");
        bufs.iter().map(Vec::capacity).filter(|&c| c > 0).collect()
    }

    /// A plan that stalls the drain on its first frame for `ms`.
    fn stall_first(ms: u64) -> Option<Arc<FaultInjector>> {
        use lc_faults::{FaultPlan, FaultRule};
        Some(Arc::new(FaultInjector::new(FaultPlan {
            seed: 0,
            rules: vec![FaultRule::once(
                FaultSite::TenantFlush,
                FaultAction::Stall { ms },
                0,
            )],
        })))
    }

    /// A durable tenant over `queue` buffers whose drain stalls 200 ms on
    /// its first frame, spilling into a fresh directory named by `tag`.
    fn stalled_durable(tag: &str, queue: usize) -> (Arc<Tenant>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("lc_tenant_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let spill = Some(SpillWriter::new(dir.clone(), None));
        let t = Tenant::spawn("t".into(), pipeline(), queue, stall_first(200), spill, None);
        (t, dir)
    }

    /// Every end of a frame's life on a non-durable tenant hands its
    /// buffer back: analysed, a wild-tid frame counted lost, an injected
    /// drain panic and I/O fault. A frame refused by a closed ring is
    /// counted lost. With a ring of 2 the 1 000-frame stream never holds
    /// more than 2 buffers.
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
        let mut buf = Frame::new();
        for i in 0..1000u64 {
            buf.clear();
            buf.extend(frame(i * 8, 8));
            if i % 97 == 13 {
                buf[5].event.tid = 9;
                wild += 1;
            }
            t.enqueue(&mut buf);
        }
        assert!(t.wait_quiet(Duration::from_secs(30)));
        assert_ledger_balances(&t);
        assert_eq!(t.stats.frames_lost.load(Ordering::Relaxed), wild + 2);
        assert!(grown_buffers(&t, QUEUE).len() <= QUEUE);
        t.shutdown();
        for i in 0..3u64 {
            t.enqueue(&mut frame(i * 8, 8));
        }
        assert_eq!(t.stats.frames_lost.load(Ordering::Relaxed), wild + 5);
        assert_ledger_balances(&t);
    }

    /// A durable tenant whose drain stalls spills the overflow, catch-up
    /// replays the spool, and the ledger balances with nothing left
    /// spilled and no more than `SPARE_FRAMES` buffers kept.
    #[test]
    fn spilled_frames_recycle_their_buffers() {
        let (t, dir) = stalled_durable("spill", 1);
        for i in 0..1000u64 {
            t.enqueue(&mut frame(i * 8, 8));
        }
        assert!(t.wait_quiet(Duration::from_secs(30)));
        assert!(t.stats.frames_spilled_total.load(Ordering::Relaxed) > 0);
        assert_eq!(t.stats.frames_spilled.load(Ordering::Relaxed), 0);
        assert_eq!(t.stats.frames_lost.load(Ordering::Relaxed), 0);
        assert_eq!(t.snapshot().events, 8000);
        assert_ledger_balances(&t);
        assert!(grown_buffers(&t, 1).len() <= SPARE_FRAMES);
        t.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The drain must not wait on an empty ring while a spill is pending:
    /// here the last frame spills (the one buffer is in the stalled
    /// drain) and nothing arrives after it, so only the drain's own check
    /// after its recycle can replay it.
    #[test]
    fn a_spill_after_the_last_frame_is_replayed_without_more_traffic() {
        let (t, dir) = stalled_durable("last", 1);
        t.enqueue(&mut frame(0, 8));
        while t.queue_len() != 0 {
            std::thread::yield_now(); // the drain holds the only buffer
        }
        t.enqueue(&mut frame(8, 8));
        assert_eq!(t.stats.frames_spilled_total.load(Ordering::Relaxed), 1);
        assert!(
            t.wait_quiet(Duration::from_secs(10)),
            "the spill was never replayed"
        );
        assert_eq!(t.stats.frames_spilled.load(Ordering::Relaxed), 0);
        assert_eq!(t.snapshot().events, 16);
        assert_ledger_balances(&t);
        t.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// After a burst that fills the ring, a quiet tenant keeps at most
    /// `SPARE_FRAMES` grown buffers, and none past `SPARE_MAX_EVENTS`
    /// events, however many buffers the ring has.
    #[test]
    fn spares_are_capped_and_outsized_buffers_dropped() {
        const QUEUE: usize = 16;
        let t = Tenant::spawn("t".into(), pipeline(), QUEUE, stall_first(100), None, None);
        t.enqueue(&mut frame(0, SPARE_MAX_EVENTS as u64 + 1));
        for i in 0..3 * QUEUE as u64 {
            t.enqueue(&mut frame(100_000 + i * 8, 8));
        }
        assert!(t.wait_quiet(Duration::from_secs(30)));
        assert_eq!(t.stats.frames_lost.load(Ordering::Relaxed), 0);
        let grown = grown_buffers(&t, QUEUE);
        assert!(grown.len() <= SPARE_FRAMES, "{grown:?}");
        assert!(grown.iter().all(|&c| c <= SPARE_MAX_EVENTS), "{grown:?}");
        t.shutdown();
    }
}
