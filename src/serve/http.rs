//! Minimal HTTP/1.0 observation surface for `loopcomm serve`.
//!
//! Read-only, dependency-free, one thread, connection-per-request; only a
//! `?wait=1` request, which may poll for up to 30 s, is answered from a
//! short-lived thread of its own:
//!
//! | path | body |
//! |---|---|
//! | `/healthz` | `ok` |
//! | `/metrics` | Prometheus exposition: server + per-tenant counters |
//! | `/tenants` | JSON tenant list |
//! | `/tenants/<t>/report` | canonical plain-text profile (`?wait=1` quiesces first) |
//! | `/tenants/<t>/matrix` | global communication matrix CSV |
//! | `/tenants/<t>/load` | Eq. 1 thread-load table |
//! | `/tenants/<t>/stats` | JSON ingest counters |
//! | `/tenants/<t>/coherence` | canonical coherence report (404 unless `--coherence`) |
//!
//! The canonical report is the server half of the differential contract:
//! byte-identical to `loopcomm analyze --report-out` on the same events.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lc_cachesim::CoherenceTotals;
use lc_profiler::{MetricsRegistry, ThreadLoad};

use super::tenant::{Tenant, TenantStats};
use super::{Shared, POLL_INTERVAL};

/// How long `?wait=1` will poll for tenant quiescence before reporting
/// whatever is analyzed so far.
const WAIT_QUIET_DEADLINE: Duration = Duration::from_secs(30);

/// Most `?wait=1` requests waiting at once; more are answered 503.
const MAX_WAITERS: usize = 8;

/// Longest request line accepted, newline included.
const MAX_REQUEST_LINE: u64 = 8 * 1024;

/// Most header bytes accepted after the request line.
const MAX_HEADER_BYTES: u64 = 16 * 1024;

/// Time a client has to deliver its whole request head. Requests are
/// served one at a time, so this bounds how long one slow client can hold
/// `/healthz` and `/metrics` from everyone else.
const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// Serve requests until shutdown (listener is non-blocking), then join
/// the `?wait=1` threads, whose waits end with the server.
pub(crate) fn http_loop(shared: Arc<Shared>, listener: TcpListener) {
    let mut waiters = Vec::new();
    loop {
        if shared.shutting_down() {
            break;
        }
        match listener.accept() {
            Ok((sock, _)) => {
                // Requests are tiny and handlers cheap; serve inline, all
                // but a `?wait=1`, which `serve_one` hands to a thread.
                let _ = serve_one(&shared, sock, &mut waiters);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
    for h in waiters {
        let _ = h.join();
    }
}

/// Socket reads that fail once `until` has passed, however the bytes
/// trickle in: each read may block only for the time left.
struct DeadlineReader<'a> {
    sock: &'a TcpStream,
    until: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.sock.set_read_timeout(Some(left))?;
        self.sock.read(buf)
    }
}

/// Read the request line and skip the headers (ignored) up to the blank
/// line, within [`MAX_REQUEST_LINE`], [`MAX_HEADER_BYTES`] and one
/// [`REQUEST_DEADLINE`] for the lot. `Ok(None)`: a cap was exceeded.
fn read_request_line(sock: &TcpStream) -> io::Result<Option<String>> {
    let mut reader = BufReader::new(DeadlineReader {
        sock,
        until: Instant::now() + REQUEST_DEADLINE,
    });
    let mut request_line = Vec::new();
    let mut capped = (&mut reader).take(MAX_REQUEST_LINE);
    capped.read_until(b'\n', &mut request_line)?;
    if capped.limit() == 0 && !request_line.ends_with(b"\n") {
        return Ok(None);
    }
    let request_line = String::from_utf8_lossy(&request_line).into_owned();
    let mut headers = reader.take(MAX_HEADER_BYTES);
    let mut line = Vec::new();
    loop {
        line.clear();
        headers.read_until(b'\n', &mut line)?;
        if !line.ends_with(b"\n") {
            // End of stream, or the header budget ran out mid-line.
            return Ok((headers.limit() > 0).then_some(request_line));
        }
        if line == b"\r\n" || line == b"\n" {
            return Ok(Some(request_line));
        }
    }
}

fn serve_one(
    shared: &Arc<Shared>,
    sock: TcpStream,
    waiters: &mut Vec<JoinHandle<()>>,
) -> io::Result<()> {
    let Some(request_line) = read_request_line(&sock)? else {
        return respond(sock, 400, "text/plain", "request head too large\n");
    };
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    if method != "GET" {
        return respond(sock, 405, "text/plain", "method not allowed\n");
    }
    if !wants_wait(target) {
        let (status, content_type, body) = route(shared, target);
        return respond(sock, status, content_type, &body);
    }
    // A waiting request must not hold `/healthz` and `/metrics` from
    // everyone else: it gets a thread of its own.
    waiters.retain(|h| !h.is_finished());
    if waiters.len() >= MAX_WAITERS {
        return respond(sock, 503, "text/plain", "too many waiting requests\n");
    }
    let (shared, target) = (Arc::clone(shared), target.to_string());
    let waiter = std::thread::Builder::new()
        .name("lc-http-wait".into())
        .spawn(move || {
            let (status, content_type, body) = route(&shared, &target);
            let _ = respond(sock, status, content_type, &body);
        });
    // A failed spawn drops the socket: the client sees the connection close.
    waiters.extend(waiter.ok());
    Ok(())
}

/// True for a request carrying `wait=1` in its query.
fn wants_wait(target: &str) -> bool {
    target
        .split_once('?')
        .is_some_and(|(_, query)| query.split('&').any(|kv| kv == "wait=1"))
}

/// Poll until `tenant` is quiet, [`WAIT_QUIET_DEADLINE`] passes, or the
/// server shuts down.
fn wait_quiet(shared: &Shared, tenant: &Tenant) {
    let start = Instant::now();
    while !shared.shutting_down()
        && start.elapsed() < WAIT_QUIET_DEADLINE
        && !tenant.wait_quiet(POLL_INTERVAL)
    {}
}

fn respond(mut sock: TcpStream, status: u16, content_type: &str, body: &str) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    sock.write_all(head.as_bytes())?;
    sock.write_all(body.as_bytes())?;
    sock.flush()
}

fn route(shared: &Shared, target: &str) -> (u16, &'static str, String) {
    let path = target.split_once('?').map_or(target, |(p, _)| p);
    match path {
        "/healthz" => (200, "text/plain", "ok\n".to_string()),
        "/metrics" => (200, "text/plain", prometheus(shared)),
        "/tenants" => (200, "application/json", tenants_json(shared)),
        _ => {
            let Some(rest) = path.strip_prefix("/tenants/") else {
                return (404, "text/plain", format!("no such path {path}\n"));
            };
            let Some((name, what)) = rest.split_once('/') else {
                return (
                    404,
                    "text/plain",
                    "expected /tenants/<name>/<view>\n".into(),
                );
            };
            let Some(tenant) = shared.tenant(name) else {
                return (404, "text/plain", format!("no such tenant {name}\n"));
            };
            match what {
                "report" => {
                    if wants_wait(target) {
                        wait_quiet(shared, &tenant);
                    }
                    (200, "text/plain", tenant.canonical())
                }
                "matrix" => (200, "text/csv", tenant.report().global.to_csv()),
                "load" => {
                    let report = tenant.report();
                    (
                        200,
                        "text/plain",
                        ThreadLoad::from_matrix(&report.global).render(),
                    )
                }
                "stats" => (200, "application/json", tenant_stats_json(&tenant)),
                "coherence" => {
                    if wants_wait(target) {
                        wait_quiet(shared, &tenant);
                    }
                    match tenant.coherence_canonical() {
                        Some(body) => (200, "text/plain", body),
                        None => (
                            404,
                            "text/plain",
                            "coherence backend not enabled (start the server with --coherence)\n"
                                .into(),
                        ),
                    }
                }
                other => (404, "text/plain", format!("no such view {other}\n")),
            }
        }
    }
}

/// Prometheus exposition: server-wide counters plus one labelled series
/// per tenant per counter.
fn prometheus(shared: &Shared) -> String {
    let mut reg = MetricsRegistry::new();
    for (name, help, v) in [
        (
            "loopcomm_serve_connections_accepted_total",
            "Ingest connections accepted",
            &shared.conns_accepted,
        ),
        (
            "loopcomm_serve_connections_rejected_total",
            "Ingest connections refused by the connection limit",
            &shared.conns_rejected,
        ),
        (
            "loopcomm_serve_connections_faulted_total",
            "Ingest connections that ended degraded",
            &shared.conns_faulted,
        ),
    ] {
        reg.counter(name, help, v.load(Ordering::Relaxed));
    }
    let tenants = shared.tenants();
    reg.gauge(
        "loopcomm_serve_tenants",
        "Tenants currently known",
        tenants.len() as f64,
    );
    type Stat = fn(&TenantStats) -> &AtomicU64;
    let stats: [(&str, &str, bool, Stat); 9] = [
        (
            "loopcomm_tenant_frames_received_total",
            "Valid frames decoded",
            false,
            |s| &s.frames_received,
        ),
        (
            "loopcomm_tenant_events_received_total",
            "Events in valid frames",
            false,
            |s| &s.events_received,
        ),
        (
            "loopcomm_tenant_frames_lost_total",
            "Frames lost to drain faults or shutdown",
            false,
            |s| &s.frames_lost,
        ),
        (
            "loopcomm_tenant_events_lost_total",
            "Events in lost frames",
            false,
            |s| &s.events_lost,
        ),
        (
            "loopcomm_tenant_bytes_dropped_total",
            "Stream bytes that never formed a valid frame",
            false,
            |s| &s.bytes_dropped,
        ),
        (
            "loopcomm_tenant_connections_active",
            "Open connections",
            true,
            |s| &s.conns_active,
        ),
        (
            "loopcomm_tenant_connections_faulted_total",
            "Connections that ended degraded",
            false,
            |s| &s.conns_faulted,
        ),
        (
            "loopcomm_tenant_frames_spilled",
            "Frames spilled to the durable spool, awaiting replay",
            true,
            |s| &s.frames_spilled,
        ),
        (
            "loopcomm_tenant_events_spilled",
            "Events in the spilled frames",
            true,
            |s| &s.events_spilled,
        ),
    ];
    for (name, help, gauge, stat) in stats {
        let samples =
            (tenants.iter()).map(|t| (t.name.clone(), stat(&t.stats).load(Ordering::Relaxed)));
        if gauge {
            reg.gauges(name, help, "tenant", samples);
        } else {
            reg.counters(name, help, "tenant", samples);
        }
    }
    reg.gauge(
        "loopcomm_serve_tenants_evicted",
        "Tenants evicted to durable storage",
        shared.evicted().len() as f64,
    );
    // One consistent snapshot per tenant for every pipeline series.
    let snaps: Vec<_> = tenants
        .iter()
        .map(|t| (t.name.clone(), t.snapshot()))
        .collect();
    reg.counters(
        "loopcomm_tenant_events_analyzed_total",
        "Events that reached the analyzer",
        "tenant",
        snaps.iter().map(|(name, s)| (name.clone(), s.events)),
    );
    reg.gauges(
        "loopcomm_tenant_memory_bytes",
        "Analyzer heap footprint (bounded)",
        "tenant",
        (snaps.iter()).map(|(name, s)| (name.clone(), s.memory_bytes as u64)),
    );
    // Coherence series appear only when the backend is on — an absent
    // series is "not measured", not zero.
    if shared.cfg.coherence.is_some() {
        type Total = fn(&CoherenceTotals) -> u64;
        let coh: [(&str, &str, Total); 4] = [
            (
                "loopcomm_tenant_coherence_invalidations_total",
                "Cache copies invalidated by remote writes",
                |t| t.invalidations,
            ),
            (
                "loopcomm_tenant_coherence_c2c_fills_total",
                "Line fills served cache-to-cache",
                |t| t.c2c_fills,
            ),
            (
                "loopcomm_tenant_coherence_false_bytes_total",
                "Bytes pulled by fills and never touched (false sharing)",
                |t| t.false_bytes,
            ),
            (
                "loopcomm_tenant_coherence_true_bytes_total",
                "First-touch attributed transfer bytes (true sharing)",
                |t| t.true_bytes,
            ),
        ];
        for (name, help, total) in coh {
            let samples = (snaps.iter())
                .filter_map(|(name, s)| Some((name.clone(), total(s.coherence.as_ref()?))));
            reg.counters(name, help, "tenant", samples);
        }
    }
    reg.to_prometheus()
}

fn tenants_json(shared: &Shared) -> String {
    let names: Vec<String> = shared
        .tenants()
        .iter()
        .map(|t| format!("\"{}\"", t.name))
        .collect();
    let evicted: Vec<String> = shared
        .evicted()
        .iter()
        .map(|(name, e)| {
            format!(
                "{{\"name\":\"{name}\",\"events_analyzed\":{},\"frames_analyzed\":{}}}",
                e.events, e.frames
            )
        })
        .collect();
    format!(
        "{{\"tenants\":[{}],\"evicted\":[{}]}}\n",
        names.join(","),
        evicted.join(",")
    )
}

fn tenant_stats_json(t: &Tenant) -> String {
    // Every analysis figure comes from one snapshot, taken under one lock.
    // The coherence object exists only when the backend is on, so its
    // absence is distinguishable from an idle backend. Accesses that lost
    // their loop to the loop cap follow it.
    let snap = t.snapshot();
    let coherence = match snap.coherence {
        Some(tot) => format!(
            ",\"coherence\":{{\"accesses\":{},\"invalidations\":{},\"c2c_fills\":{},\
             \"writebacks\":{},\"false_bytes\":{},\"true_bytes\":{},\
             \"false_sharing_events\":{}}},\"coherence_loop_cap_dropped_accesses\":{}",
            tot.accesses,
            tot.invalidations,
            tot.c2c_fills,
            tot.writebacks,
            tot.false_bytes,
            tot.true_bytes,
            tot.false_sharing_events,
            snap.coherence_dropped
        ),
        None => String::new(),
    };
    format!(
        "{{\"tenant\":\"{}\",\"frames_received\":{},\"events_received\":{},\
         \"frames_analyzed\":{},\"events_analyzed\":{},\"frames_lost\":{},\
         \"events_lost\":{},\"frames_spilled\":{},\"events_spilled\":{},\
         \"bytes_received\":{},\"bytes_dropped\":{},\
         \"queue_frames\":{},\"conns_active\":{},\"conns_total\":{},\
         \"conns_faulted\":{},\"memory_bytes\":{},\"dependencies\":{}{coherence}}}\n",
        t.name,
        t.stats.frames_received.load(Ordering::Relaxed),
        t.stats.events_received.load(Ordering::Relaxed),
        snap.frames,
        snap.events,
        t.stats.frames_lost.load(Ordering::Relaxed),
        t.stats.events_lost.load(Ordering::Relaxed),
        t.stats.frames_spilled.load(Ordering::Relaxed),
        t.stats.events_spilled.load(Ordering::Relaxed),
        t.stats.bytes_received.load(Ordering::Relaxed),
        t.stats.bytes_dropped.load(Ordering::Relaxed),
        t.queue_len(),
        t.stats.conns_active.load(Ordering::Relaxed),
        t.stats.conns_total.load(Ordering::Relaxed),
        t.stats.conns_faulted.load(Ordering::Relaxed),
        snap.memory_bytes,
        snap.dependencies,
    )
}
