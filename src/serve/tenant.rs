//! Per-tenant ingest state: bounded queue, drain thread, live analyzer.
//!
//! One tenant = one isolated analysis domain. Connections for the tenant
//! decode frames and push them into its bounded [`FrameQueue`]; a single
//! drain thread pops frames into the tenant's
//! [`IncrementalAnalyzer`] — so the analyzer itself is single-writer and
//! the per-tenant memory bound is `jobs` signature pairs plus the loop
//! registry, regardless of connection count or stream length.
//!
//! The drain step is a fault seam ([`FaultSite::TenantFlush`]): an
//! injected panic, I/O error, or bit-flip there loses exactly that frame
//! — counted in [`TenantStats`] as lost frames/events — and nothing
//! else; a stall there exercises the backpressure path end to end.

use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lc_faults::{FaultAction, FaultInjector, FaultSite};
use lc_profiler::{canonical_report, Checkpoint, IncrementalAnalyzer, ProfileReport};
use lc_trace::StampedEvent;
use parking_lot::Mutex;

use super::durable::{self, PersistedStats, SpillWriter};
use super::queue::{FrameQueue, PushError};

/// Milliseconds since the process's first activity reading — the
/// monotonic base for idle-reaping decisions.
pub(crate) fn uptime_ms() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_millis() as u64
}

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

/// The on-disk half of a durable tenant: its directory and spill writer.
pub struct DurableTenant {
    /// `<durable_dir>/t_<name>`.
    pub dir: PathBuf,
    spill: Mutex<SpillWriter>,
    faults: Option<Arc<FaultInjector>>,
}

impl DurableTenant {
    /// Set up the durable side rooted at `dir`.
    pub fn new(dir: PathBuf, faults: Option<Arc<FaultInjector>>) -> Self {
        Self {
            spill: Mutex::new(SpillWriter::new(dir.clone(), faults.clone())),
            dir,
            faults,
        }
    }
}

/// One tenant: queue + drain thread + live analyzer + counters.
pub struct Tenant {
    /// Tenant name (validated at hello time).
    pub name: String,
    queue: Arc<FrameQueue<Vec<StampedEvent>>>,
    analyzer: Mutex<IncrementalAnalyzer>,
    /// Counters, readable at any time without touching the analyzer.
    pub stats: TenantStats,
    /// True while the drain thread is between pop and analyzer-done.
    in_flight: AtomicBool,
    drain: Mutex<Option<JoinHandle<()>>>,
    /// On-disk state, when the server runs with `--durable-dir`.
    durable: Option<DurableTenant>,
    /// Second analysis backend (`--coherence`): fed the same frames the
    /// analyzer drains. Not checkpointed — covers this incarnation only.
    coherence: Option<lc_cachesim::SharedCoherence>,
    /// Last enqueue/creation instant ([`uptime_ms`]) — the idle-reaper's
    /// clock.
    pub last_activity: AtomicU64,
}

impl Tenant {
    /// Create the tenant and start its drain thread. `durable` arms
    /// spill-to-disk overflow and checkpointing; `seed` restores the
    /// ingest ledger captured by a previous incarnation's checkpoint.
    pub fn spawn(
        name: String,
        analyzer: IncrementalAnalyzer,
        queue_frames: usize,
        faults: Option<Arc<FaultInjector>>,
        durable: Option<DurableTenant>,
        seed: Option<PersistedStats>,
        coherence: Option<lc_cachesim::SharedCoherence>,
    ) -> Arc<Self> {
        let stats = TenantStats::default();
        if let Some(s) = &seed {
            s.seed(&stats);
        }
        let tenant = Arc::new(Self {
            name: name.clone(),
            queue: Arc::new(FrameQueue::new(queue_frames)),
            analyzer: Mutex::new(analyzer),
            stats,
            in_flight: AtomicBool::new(false),
            drain: Mutex::new(None),
            durable,
            coherence,
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
    /// lost` at every quiescent point.
    pub fn enqueue(&self, frame: Vec<StampedEvent>) {
        let events = frame.len() as u64;
        self.stats.frames_received.fetch_add(1, Ordering::Relaxed);
        self.stats
            .events_received
            .fetch_add(events, Ordering::Relaxed);
        self.last_activity.store(uptime_ms(), Ordering::Relaxed);
        let lost = match &self.durable {
            Some(d) => {
                let mut spill = d.spill.lock();
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
                    Some(frame) => match spill.append(&frame) {
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
                    },
                }
            }
            None => !self.queue.push_blocking(frame),
        };
        if lost {
            self.stats.frames_lost.fetch_add(1, Ordering::Relaxed);
            self.stats.events_lost.fetch_add(events, Ordering::Relaxed);
        }
    }

    /// Whether this tenant persists to disk.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
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
        let Some(d) = &self.durable else {
            return Ok(false);
        };
        d.spill.lock().seal()?;
        let cp = Checkpoint::capture(&self.analyzer.lock());
        let stats = PersistedStats::capture(&self.stats);
        durable::write_state(&d.dir, &stats, &cp, d.faults.as_ref())?;
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
        self.durable
            .as_ref()
            .is_some_and(|d| d.spill.lock().has_pending())
    }

    /// Replay every sealed spill generation into the live analyzer, in
    /// order, then delete the replayed files and move their counts from
    /// `spilled` to analyzed. Runs on the drain thread with the queue
    /// empty; concurrent enqueues keep spilling into a *newer* generation
    /// (sticky), so the replayed files are immutable and the order
    /// invariant holds. Crash-consistency matches restore: a file is
    /// deleted only after its frames reached the analyzer, and the
    /// checkpoint on disk still precedes those frames, so a crash between
    /// replay and the next checkpoint re-replays from the old checkpoint
    /// instead of double-counting.
    fn spill_catch_up(&self) {
        let Some(d) = &self.durable else { return };
        self.in_flight.store(true, Ordering::Release);
        let files = {
            let mut spill = d.spill.lock();
            if let Err(e) = spill.seal() {
                eprintln!(
                    "warning: tenant `{}`: cannot seal spill for catch-up ({e}); \
                     frames stay spooled for the next restore",
                    self.name
                );
                spill.refresh_pending();
                self.in_flight.store(false, Ordering::Release);
                return;
            }
            durable::spill_files(&d.dir)
        };
        for path in files {
            match lc_trace::MmapTrace::open(&path) {
                Ok(m) => {
                    let mut rf = 0u64;
                    let mut re = 0u64;
                    let res = m.stream_from(0, |frame| {
                        if !self.analyze_frame(frame) {
                            self.count_lost(frame.len() as u64);
                        }
                        rf += 1;
                        re += frame.len() as u64;
                    });
                    if let Err(e) = res {
                        eprintln!(
                            "warning: tenant `{}`: spill catch-up of {} stopped early: {e}",
                            self.name,
                            path.display()
                        );
                    }
                    self.stats.frames_spilled.fetch_sub(rf, Ordering::Relaxed);
                    self.stats.events_spilled.fetch_sub(re, Ordering::Relaxed);
                }
                Err(e) => {
                    eprintln!(
                        "warning: tenant `{}`: unreadable spill {}: {e}",
                        self.name,
                        path.display()
                    );
                }
            }
            std::fs::remove_file(&path).ok();
            std::fs::remove_file(lc_trace::index_path(&path)).ok();
        }
        d.spill.lock().refresh_pending();
        self.in_flight.store(false, Ordering::Release);
    }

    /// One frame into every backend: the profiler's analyzer and, when
    /// enabled, the coherence backend — both see the exact same events in
    /// the exact same order. A frame with a thread id outside the tenant's
    /// matrices (a client that recorded more threads than the server's
    /// `--threads`) reaches neither and returns false, so the caller
    /// counts it lost instead of half-analyzing it.
    fn analyze_frame(&self, frame: &[StampedEvent]) -> bool {
        let mut analyzer = self.analyzer.lock();
        let threads = analyzer.threads();
        if frame.iter().any(|e| e.event.tid as usize >= threads) {
            return false;
        }
        analyzer.on_frame(frame);
        drop(analyzer);
        if let Some(c) = &self.coherence {
            c.on_frame(frame);
        }
        true
    }

    fn count_lost(&self, events: u64) {
        self.stats.frames_lost.fetch_add(1, Ordering::Relaxed);
        self.stats.events_lost.fetch_add(events, Ordering::Relaxed);
    }

    fn drain_loop(&self, faults: Option<Arc<FaultInjector>>) {
        while let Some(frame) = self.next_frame() {
            self.in_flight.store(true, Ordering::Release);
            let events = frame.len() as u64;
            let action = faults
                .as_ref()
                .and_then(|f| f.check(FaultSite::TenantFlush));
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                match action {
                    Some(FaultAction::Panic) => {
                        panic!("injected fault: panic at tenant_flush")
                    }
                    Some(FaultAction::Stall { ms }) => {
                        // Stall *inside* the drain: the queue fills and
                        // producers stall behind it — the backpressure
                        // path, not a loss.
                        std::thread::sleep(Duration::from_millis(ms));
                        self.analyze_frame(&frame)
                    }
                    // An I/O-flavored fault at the drain seam consumes
                    // the frame (analysis "write" failed).
                    Some(FaultAction::IoError)
                    | Some(FaultAction::ShortWrite { .. })
                    | Some(FaultAction::BitFlip { .. }) => false,
                    None => self.analyze_frame(&frame),
                }
            }));
            if !matches!(outcome, Ok(true)) {
                self.count_lost(events);
            }
            self.in_flight.store(false, Ordering::Release);
        }
    }

    /// True when no connection is open, no frame is queued or spooled,
    /// and the drain is idle — every received frame is either analyzed or
    /// counted lost.
    pub fn quiet(&self) -> bool {
        self.stats.conns_active.load(Ordering::Acquire) == 0
            && self.queue.is_empty()
            && !self.in_flight.load(Ordering::Acquire)
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
        self.analyzer.lock().report()
    }

    /// The canonical plain-text report over the events actually analyzed
    /// — byte-identical to offline `loopcomm analyze --report-out` on the
    /// same events.
    pub fn canonical(&self) -> String {
        let analyzer = self.analyzer.lock();
        canonical_report(&analyzer.report(), analyzer.events())
    }

    /// The coherence scrape counters, when the backend is enabled —
    /// O(threads × cache slots) under the lock the drain thread feeds
    /// through, unlike a full report.
    pub fn coherence_totals(&self) -> Option<lc_cachesim::CoherenceTotals> {
        self.coherence.as_ref().map(|c| c.totals())
    }

    /// Full coherence-report snapshots taken so far (0 with the backend
    /// off): `/tenants/<t>/coherence` moves it, metrics scrapes must not.
    pub fn coherence_snapshots(&self) -> u64 {
        self.coherence.as_ref().map_or(0, |c| c.snapshots())
    }

    /// The canonical plain-text coherence report — byte-identical to
    /// offline `loopcomm analyze --coherence --coherence-out` on the same
    /// events. `None` when the backend is off.
    pub fn coherence_canonical(&self) -> Option<String> {
        self.coherence
            .as_ref()
            .map(|c| lc_cachesim::canonical_coherence_report(&c.report()))
    }

    /// Events that reached the analyzer.
    pub fn events_analyzed(&self) -> u64 {
        self.analyzer.lock().events()
    }

    /// Frames that reached the analyzer.
    pub fn frames_analyzed(&self) -> u64 {
        self.analyzer.lock().frames()
    }

    /// Analyzer heap footprint (the bounded-memory claim, live).
    pub fn memory_bytes(&self) -> usize {
        self.analyzer.lock().memory_bytes()
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
mod tests {
    use super::*;
    use lc_profiler::shards::AccumConfig;
    use lc_profiler::ProfilerConfig;
    use lc_sigmem::SignatureConfig;
    use lc_trace::{AccessEvent, AccessKind, FuncId, LoopId};

    fn analyzer() -> IncrementalAnalyzer {
        IncrementalAnalyzer::asymmetric(
            SignatureConfig::paper_default(1 << 8, 4),
            ProfilerConfig::nested(4),
            AccumConfig::default(),
            2,
        )
    }

    fn frame(base: u64, n: u64) -> Vec<StampedEvent> {
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
        let t = Tenant::spawn("t".into(), analyzer(), 4, None, None, None, None);
        for i in 0..10 {
            t.enqueue(frame(i * 8, 8));
        }
        assert!(t.wait_quiet(Duration::from_secs(10)));
        assert_eq!(t.stats.frames_received.load(Ordering::Relaxed), 10);
        assert_eq!(t.events_analyzed(), 80);
        assert_eq!(t.stats.frames_lost.load(Ordering::Relaxed), 0);
        t.shutdown();
    }

    /// A frame naming a thread outside the 4 × 4 matrices is counted
    /// lost whole, and the frames around it are analyzed exactly.
    #[test]
    fn frame_with_a_thread_beyond_the_matrices_is_lost_whole() {
        let t = Tenant::spawn("t".into(), analyzer(), 4, None, None, None, None);
        let mut wild = frame(8, 8);
        wild[3].event.tid = 4;
        t.enqueue(frame(0, 8));
        t.enqueue(wild);
        t.enqueue(frame(16, 8));
        assert!(t.wait_quiet(Duration::from_secs(10)));
        assert_eq!(t.stats.frames_lost.load(Ordering::Relaxed), 1);
        assert_eq!(t.stats.events_lost.load(Ordering::Relaxed), 8);
        assert_eq!(t.events_analyzed(), 16);
        let mut want = analyzer();
        want.on_frame(&frame(0, 8));
        want.on_frame(&frame(16, 8));
        assert_eq!(t.report().global, want.report().global);
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
        let t = Tenant::spawn("t".into(), analyzer(), 4, Some(inj), None, None, None);
        for i in 0..6 {
            t.enqueue(frame(i * 5, 5));
        }
        assert!(t.wait_quiet(Duration::from_secs(10)));
        assert_eq!(t.stats.frames_lost.load(Ordering::Relaxed), 1);
        assert_eq!(t.stats.events_lost.load(Ordering::Relaxed), 5);
        assert_eq!(t.events_analyzed(), 25);
        t.shutdown();
    }
}
