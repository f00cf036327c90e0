//! `loopcomm serve` — the streaming multi-tenant ingest service.
//!
//! Long-running server accepting v2 spool streams (the on-disk format of
//! [`lc_trace::spool`] as the wire protocol, prefixed by a tenant hello —
//! see [`lc_trace::wire`]) from many concurrent producers over TCP and/or
//! Unix sockets. Each connection reassembles frames incrementally with
//! the salvage-exact [`lc_trace::FrameDecoder`]; frames flow through a
//! bounded per-tenant [`queue::FrameQueue`] (backpressure, not growth)
//! into a single-drain [`lc_profiler::IncrementalAnalyzer`] with the same
//! slot-sharded partitioning as offline `loopcomm analyze` — so the live
//! report is byte-identical to the batch one on the same events. Live
//! matrices, thread load, and Prometheus telemetry are served over HTTP
//! ([`http`]).
//!
//! Failure model: every network seam is a fault-injection site
//! ([`lc_faults::FaultSite::NetAccept`] / `NetFrameRead` / `NetWrite` /
//! `TenantFlush`), and any fault degrades exactly one connection — the
//! valid whole-frame prefix is analyzed, the rest is counted, and
//! concurrent tenants are untouched (`tests/serve_fault_matrix.rs`).
//! DESIGN.md §13 has the protocol and the failure-mode table.

pub mod durable;
pub mod http;
pub mod queue;
pub mod sync;
pub mod tenant;

use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use lc_faults::{injected_io_error, FaultAction, FaultInjector, FaultSite, FaultyReader};
use lc_profiler::shards::AccumConfig;
use lc_profiler::{DetectorKind, IncrementalAnalyzer, ProfilerConfig};
use lc_sigmem::SignatureConfig;
use lc_trace::wire::read_hello;
use lc_trace::FrameDecoder;
use parking_lot::Mutex;

use tenant::{DurableTenant, Tenant};

/// What remains visible of a tenant after eviction: enough for `/tenants`
/// to show it exists on disk and how far its analysis had progressed.
#[derive(Clone, Copy, Debug)]
pub struct EvictedTenant {
    /// Events the analyzer had processed when evicted.
    pub events_analyzed: u64,
    /// Frames the analyzer had processed when evicted.
    pub frames_analyzed: u64,
}

/// How long the accept/HTTP loops sleep between non-blocking polls.
const POLL_INTERVAL: Duration = Duration::from_millis(10);
/// How often the tenant reaper re-examines idle/memory eviction criteria.
const REAP_INTERVAL: Duration = Duration::from_millis(100);
/// Socket read buffer for the ingest path.
const READ_CHUNK: usize = 64 * 1024;

/// Server tuning.
#[derive(Clone)]
pub struct ServeConfig {
    /// Ingest endpoints: `unix:<path>` or TCP `host:port` (port 0 picks
    /// an ephemeral port, resolved in [`Server::ingest_addrs`]).
    pub listen: Vec<String>,
    /// HTTP endpoint for reports/metrics (`None` = no HTTP).
    pub http: Option<String>,
    /// Detector every tenant runs.
    pub detector: DetectorKind,
    /// Signature geometry for asymmetric tenants.
    pub sig: SignatureConfig,
    /// Profiler shape (threads = matrix dimension; phase windows are
    /// refused by the incremental analyzer).
    pub prof: ProfilerConfig,
    /// Accumulation knobs shared by all tenants.
    pub accum: AccumConfig,
    /// Analysis workers per tenant.
    pub jobs: usize,
    /// Per-tenant queue capacity in frames (the backpressure bound).
    pub queue_frames: usize,
    /// Concurrent ingest connection limit (excess connections are
    /// closed immediately and counted rejected).
    pub max_conns: usize,
    /// Tenant limit (hellos naming a new tenant beyond it are refused).
    pub max_tenants: usize,
    /// Optional fault plan covering the network seams.
    pub faults: Option<Arc<FaultInjector>>,
    /// Root directory for durable tenant state (`None` = in-memory only).
    /// With it set, queue overflow spills to per-tenant v3 spools, tenants
    /// checkpoint on eviction/shutdown, and a hello for a known name
    /// resumes from disk.
    pub durable_dir: Option<PathBuf>,
    /// Evict a quiet tenant after this much inactivity (requires
    /// `durable_dir`; `None` = never).
    pub tenant_idle: Option<Duration>,
    /// Evict a quiet tenant whose analyzer heap exceeds this many bytes
    /// (requires `durable_dir`; 0 = no cap).
    pub tenant_max_bytes: usize,
    /// Run the MESI coherence backend per tenant with this geometry
    /// (`None` = off). Coherence state is **not** checkpointed: a durable
    /// tenant's coherence report covers only the events analyzed by the
    /// current incarnation.
    pub coherence: Option<lc_cachesim::CoherenceConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            listen: vec!["127.0.0.1:0".into()],
            http: None,
            detector: DetectorKind::Asymmetric,
            sig: SignatureConfig::paper_default(1 << 16, 8),
            prof: ProfilerConfig::nested(8),
            accum: AccumConfig::default(),
            jobs: 1,
            queue_frames: 64,
            max_conns: 64,
            max_tenants: 64,
            faults: None,
            durable_dir: None,
            tenant_idle: None,
            tenant_max_bytes: 0,
            coherence: None,
        }
    }
}

/// One accepted ingest connection's transport.
pub enum Stream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    Unix(UnixStream),
}

impl Stream {
    /// Force-close both directions (unblocks a reader blocked in `read`).
    fn force_shutdown(&self) {
        match self {
            Stream::Tcp(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
            Stream::Unix(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
    }
}

impl Read for &Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match *self {
            Stream::Tcp(ref s) => (&mut &*s).read(buf),
            Stream::Unix(ref s) => (&mut &*s).read(buf),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

/// State shared by accept loops, connection handlers, and HTTP.
pub struct Shared {
    pub(crate) cfg: ServeConfig,
    tenants: Mutex<HashMap<String, Arc<Tenant>>>,
    evicted: Mutex<HashMap<String, EvictedTenant>>,
    conns: Mutex<HashMap<u64, Arc<Stream>>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    conn_seq: AtomicU64,
    shutdown: AtomicBool,
    /// Connections accepted (post connection-limit).
    pub conns_accepted: AtomicU64,
    /// Connections refused by the connection limit.
    pub conns_rejected: AtomicU64,
    /// Connections that ended degraded before reaching a tenant (bad
    /// hello, accept fault, handler panic).
    pub conns_faulted: AtomicU64,
}

impl Shared {
    /// Snapshot of all tenants, name-sorted.
    pub fn tenants(&self) -> Vec<Arc<Tenant>> {
        let mut v: Vec<_> = self.tenants.lock().values().cloned().collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// Look up one tenant.
    pub fn tenant(&self, name: &str) -> Option<Arc<Tenant>> {
        self.tenants.lock().get(name).cloned()
    }

    /// Tenants currently evicted to disk, name-sorted.
    pub fn evicted(&self) -> Vec<(String, EvictedTenant)> {
        let mut v: Vec<_> = self
            .evicted
            .lock()
            .iter()
            .map(|(n, e)| (n.clone(), *e))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Look up or create the tenant for a hello. With a durable root, a
    /// new incarnation first restores the last checkpoint (counters +
    /// analyzer) and replays any spilled frames, reconciling the ledger so
    /// `received == analyzed + spilled + lost` survives the round trip.
    fn tenant_or_create(&self, name: &str) -> io::Result<Arc<Tenant>> {
        let mut tenants = self.tenants.lock();
        if let Some(t) = tenants.get(name) {
            return Ok(Arc::clone(t));
        }
        if tenants.len() >= self.cfg.max_tenants {
            return Err(io::Error::other(format!(
                "tenant limit ({}) reached",
                self.cfg.max_tenants
            )));
        }
        let mut analyzer = IncrementalAnalyzer::new(
            self.cfg.detector,
            self.cfg.sig,
            self.cfg.prof,
            self.cfg.accum,
            self.cfg.jobs,
        );
        let mut durable_side = None;
        let mut seed = None;
        if let Some(root) = &self.cfg.durable_dir {
            let dir = durable::tenant_dir(root, name);
            let mut stats = durable::PersistedStats::default();
            match durable::load_state(&dir) {
                Ok(Some((persisted, cp))) => match cp.restore() {
                    Ok(a) => {
                        analyzer = a;
                        stats = persisted;
                    }
                    Err(e) => eprintln!(
                        "warning: tenant `{name}`: cannot restore checkpoint ({e}); \
                         starting fresh"
                    ),
                },
                Ok(None) => {}
                Err(e) => {
                    eprintln!("warning: tenant `{name}`: unusable state file ({e}); starting fresh")
                }
            }
            // Replay whatever the spill spools hold (salvage-exact), then
            // reconcile: frames beyond the checkpointed spill count
            // arrived *after* the checkpoint, so they re-enter `received`
            // as well; checkpointed spills the salvage could not recover
            // become `lost`. Either way both sides of the ledger move
            // together.
            let (rf, re) = durable::replay_spills(&dir, &mut analyzer);
            stats.frames_received += rf.saturating_sub(stats.frames_spilled);
            stats.events_received += re.saturating_sub(stats.events_spilled);
            stats.frames_lost += stats.frames_spilled.saturating_sub(rf);
            stats.events_lost += stats.events_spilled.saturating_sub(re);
            stats.frames_spilled = 0;
            stats.events_spilled = 0;
            durable_side = Some(DurableTenant::new(dir, self.cfg.faults.clone()));
            seed = Some(stats);
        }
        // Coherence is per-incarnation: it is not part of the checkpoint,
        // so a restored tenant's coherence counters start from zero here.
        let coherence = self.cfg.coherence.map(|ccfg| {
            let threads = self
                .cfg
                .prof
                .threads
                .clamp(1, lc_cachesim::MAX_COHERENCE_THREADS);
            lc_cachesim::SharedCoherence::new(lc_cachesim::CoherenceBackend::new(ccfg, threads))
        });
        let t = Tenant::spawn(
            name.to_string(),
            analyzer,
            self.cfg.queue_frames,
            self.cfg.faults.clone(),
            durable_side,
            seed,
            coherence,
        );
        tenants.insert(name.to_string(), Arc::clone(&t));
        self.evicted.lock().remove(name);
        Ok(t)
    }

    /// Evict one tenant to disk: only when it is quiet with no open
    /// connections. Holds the tenant map locked across the checkpoint so a
    /// racing hello cannot recreate the tenant before its state lands.
    /// Returns whether the tenant was evicted.
    pub fn evict(&self, name: &str) -> bool {
        let mut tenants = self.tenants.lock();
        let Some(t) = tenants.get(name) else {
            return false;
        };
        if !t.is_durable() {
            // Non-durable server: eviction would discard analysis.
            eprintln!("warning: tenant `{name}`: eviction without --durable-dir refused");
            return false;
        }
        if t.stats.conns_active.load(Ordering::Acquire) != 0 || !t.quiet() {
            return false;
        }
        let t = tenants.remove(name).expect("checked above");
        t.shutdown();
        if let Err(e) = t.checkpoint_to_disk() {
            eprintln!(
                "warning: tenant `{name}`: eviction checkpoint failed ({e}); \
                 state on disk is the previous checkpoint"
            );
        }
        self.evicted.lock().insert(
            name.to_string(),
            EvictedTenant {
                events_analyzed: t.events_analyzed(),
                frames_analyzed: t.frames_analyzed(),
            },
        );
        true
    }

    /// One reaper pass: evict tenants idle past the deadline or over the
    /// per-tenant memory cap. Only quiet, connection-free tenants qualify;
    /// busy ones are re-examined next pass.
    fn reap_pass(&self) {
        let names: Vec<(String, bool)> = {
            let tenants = self.tenants.lock();
            tenants
                .values()
                .map(|t| {
                    let idle = self
                        .cfg
                        .tenant_idle
                        .is_some_and(|d| t.idle_ms() >= d.as_millis() as u64);
                    let over_cap = self.cfg.tenant_max_bytes > 0
                        && t.memory_bytes() > self.cfg.tenant_max_bytes;
                    (t.name.clone(), idle || over_cap)
                })
                .collect()
        };
        for (name, due) in names {
            if due {
                self.evict(&name);
            }
        }
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }
}

/// Decrements a tenant's active-connection gauge on scope exit (runs
/// during unwind too, so a panicking handler never leaks the gauge).
struct ConnGuard(Arc<Tenant>);

impl ConnGuard {
    fn new(t: Arc<Tenant>) -> Self {
        t.stats.conns_active.fetch_add(1, Ordering::AcqRel);
        t.stats.conns_total.fetch_add(1, Ordering::Relaxed);
        Self(t)
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.stats.conns_active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The per-connection ingest path: accept seam, hello, frame reassembly,
/// per-frame enqueue, salvage accounting on any exit. Returns whether the
/// connection ended degraded.
fn conn_body(shared: &Shared, stream: &Stream) -> io::Result<bool> {
    // NetAccept seam: the connection being admitted at all.
    if let Some(action) = shared
        .cfg
        .faults
        .as_ref()
        .and_then(|f| f.check(FaultSite::NetAccept))
    {
        match action {
            FaultAction::Panic => panic!("injected fault: panic at net_accept"),
            FaultAction::Stall { ms } => std::thread::sleep(Duration::from_millis(ms)),
            FaultAction::IoError | FaultAction::ShortWrite { .. } | FaultAction::BitFlip { .. } => {
                return Err(injected_io_error())
            }
        }
    }
    // NetFrameRead seam: every socket read on the reassembly path.
    let mut reader: Box<dyn Read + '_> = match &shared.cfg.faults {
        Some(inj) => Box::new(FaultyReader::with_site(
            stream,
            Arc::clone(inj),
            FaultSite::NetFrameRead,
        )),
        None => Box::new(stream),
    };
    let name = read_hello(&mut reader)?;
    let tenant = shared.tenant_or_create(&name)?;
    let _guard = ConnGuard::new(Arc::clone(&tenant));

    let mut dec = FrameDecoder::new();
    let mut frames = Vec::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut read_error = None;
    // Catch panics out of the read loop (an injected NetFrameRead panic
    // lands here) so the salvage accounting below still runs: the bytes
    // and frames received before the panic stay exactly counted.
    let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| loop {
        if shared.shutting_down() {
            break;
        }
        match reader.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                dec.feed(&chunk[..n], &mut frames);
                for frame in frames.drain(..) {
                    tenant.enqueue(frame);
                }
                // After damage, keep reading so the dropped-byte count is
                // exact (salvage counts everything after the bad frame);
                // the peer finishes its stream and closes.
            }
            Err(e) => {
                read_error = Some(e);
                break;
            }
        }
    }))
    .is_err();
    let summary = dec.finish();
    tenant
        .stats
        .bytes_received
        .fetch_add(summary.bytes_fed, Ordering::Relaxed);
    tenant
        .stats
        .bytes_dropped
        .fetch_add(summary.bytes_dropped, Ordering::Relaxed);
    let degraded = panicked || summary.error.is_some() || read_error.is_some();
    if degraded {
        tenant.stats.conns_faulted.fetch_add(1, Ordering::Relaxed);
    }
    Ok(degraded)
}

fn handle_conn(shared: Arc<Shared>, id: u64, stream: Arc<Stream>) {
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| conn_body(&shared, &stream)));
    match outcome {
        Ok(Ok(degraded)) => {
            if degraded {
                shared.conns_faulted.fetch_add(1, Ordering::Relaxed);
            }
        }
        // An error or panic before/at the hello degrades only this
        // connection; the socket closes and the producer sees a reset.
        Ok(Err(_)) | Err(_) => {
            shared.conns_faulted.fetch_add(1, Ordering::Relaxed);
        }
    }
    stream.force_shutdown();
    shared.conns.lock().remove(&id);
}

fn accept_loop(shared: Arc<Shared>, listener: Listener) {
    loop {
        if shared.shutting_down() {
            break;
        }
        let accepted: Option<Stream> = match &listener {
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => Some(Stream::Tcp(s)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                Err(_) => None,
            },
            Listener::Unix(l, _) => match l.accept() {
                Ok((s, _)) => Some(Stream::Unix(s)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                Err(_) => None,
            },
        };
        let Some(stream) = accepted else {
            std::thread::sleep(POLL_INTERVAL);
            continue;
        };
        if shared.conns.lock().len() >= shared.cfg.max_conns {
            shared.conns_rejected.fetch_add(1, Ordering::Relaxed);
            stream.force_shutdown();
            continue;
        }
        shared.conns_accepted.fetch_add(1, Ordering::Relaxed);
        let id = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
        let stream = Arc::new(stream);
        shared.conns.lock().insert(id, Arc::clone(&stream));
        let sh = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name(format!("lc-conn-{id}"))
            .spawn(move || handle_conn(sh, id, stream))
            .expect("spawn connection thread");
        shared.conn_threads.lock().push(handle);
    }
    if let Listener::Unix(_, path) = &listener {
        let _ = std::fs::remove_file(path);
    }
}

/// A running ingest server. Dropping it shuts it down.
pub struct Server {
    shared: Arc<Shared>,
    accept_threads: Vec<JoinHandle<()>>,
    http_thread: Option<JoinHandle<()>>,
    reaper_thread: Option<JoinHandle<()>>,
    ingest_addrs: Vec<String>,
    http_addr: Option<String>,
    stopped: bool,
}

impl Server {
    /// Bind every endpoint and start accepting.
    pub fn start(cfg: ServeConfig) -> io::Result<Self> {
        let mut listeners = Vec::new();
        let mut ingest_addrs = Vec::new();
        for addr in &cfg.listen {
            if let Some(path) = addr.strip_prefix("unix:") {
                let _ = std::fs::remove_file(path); // stale socket from a crash
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                ingest_addrs.push(format!("unix:{path}"));
                listeners.push(Listener::Unix(l, PathBuf::from(path)));
            } else {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                ingest_addrs.push(l.local_addr()?.to_string());
                listeners.push(Listener::Tcp(l));
            }
        }
        let http_listener = match &cfg.http {
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let http_addr = http_listener
            .as_ref()
            .map(|l| l.local_addr())
            .transpose()?
            .map(|a| a.to_string());
        let shared = Arc::new(Shared {
            cfg,
            tenants: Mutex::new(HashMap::new()),
            evicted: Mutex::new(HashMap::new()),
            conns: Mutex::new(HashMap::new()),
            conn_threads: Mutex::new(Vec::new()),
            conn_seq: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            conns_accepted: AtomicU64::new(0),
            conns_rejected: AtomicU64::new(0),
            conns_faulted: AtomicU64::new(0),
        });
        let mut accept_threads = Vec::new();
        for (i, l) in listeners.into_iter().enumerate() {
            let sh = Arc::clone(&shared);
            accept_threads.push(
                std::thread::Builder::new()
                    .name(format!("lc-accept-{i}"))
                    .spawn(move || accept_loop(sh, l))
                    .expect("spawn accept thread"),
            );
        }
        let http_thread = http_listener.map(|l| {
            let sh = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("lc-http".into())
                .spawn(move || http::http_loop(sh, l))
                .expect("spawn http thread")
        });
        let reap = shared.cfg.durable_dir.is_some()
            && (shared.cfg.tenant_idle.is_some() || shared.cfg.tenant_max_bytes > 0);
        let reaper_thread = reap.then(|| {
            let sh = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("lc-reaper".into())
                .spawn(move || {
                    while !sh.shutting_down() {
                        sh.reap_pass();
                        std::thread::sleep(REAP_INTERVAL);
                    }
                })
                .expect("spawn reaper thread")
        });
        Ok(Self {
            shared,
            accept_threads,
            http_thread,
            reaper_thread,
            ingest_addrs,
            http_addr,
            stopped: false,
        })
    }

    /// Resolved ingest endpoints (ephemeral TCP ports filled in), in the
    /// order of [`ServeConfig::listen`].
    pub fn ingest_addrs(&self) -> &[String] {
        &self.ingest_addrs
    }

    /// Resolved HTTP endpoint, when one was configured.
    pub fn http_addr(&self) -> Option<&str> {
        self.http_addr.as_deref()
    }

    /// The shared state (tenants, counters) — for in-process inspection.
    pub fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Stop accepting, force-close open connections, drain every tenant,
    /// and join all threads. Idempotent.
    pub fn shutdown(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        self.shared.shutdown.store(true, Ordering::Release);
        for s in self.shared.conns.lock().values() {
            s.force_shutdown();
        }
        for h in self.accept_threads.drain(..) {
            let _ = h.join();
        }
        let handles: Vec<_> = self.shared.conn_threads.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        for t in self.shared.tenants() {
            t.shutdown();
            // Durable shutdown is a checkpoint: the next incarnation of
            // this server resumes every tenant from here.
            if let Err(e) = t.checkpoint_to_disk() {
                eprintln!(
                    "warning: tenant `{}`: shutdown checkpoint failed ({e})",
                    t.name
                );
            }
        }
        if let Some(h) = self.reaper_thread.take() {
            let _ = h.join();
        }
        if let Some(h) = self.http_thread.take() {
            let _ = h.join();
        }
    }

    /// Block until an external stop request (used by the CLI: runs until
    /// the process is killed).
    pub fn run_forever(&self) -> ! {
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}
