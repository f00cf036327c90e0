//! Network fault matrix for `loopcomm serve` (ISSUE 7).
//!
//! Every fault action (panic, stall, I/O error, short write/read, bit
//! flip) is injected at every network seam — connection accept
//! (`net_accept`), server-side frame reads (`net_frame_read`), the
//! tenant drain (`tenant_flush`), and client-side socket writes
//! (`net_write`) — and each case must:
//!
//! 1. complete under a hard timeout (no wedged server, no hung drain);
//! 2. keep the accounting exact: every received frame is analyzed or
//!    counted lost, and every received byte is a decoded frame byte, the
//!    8-byte prelude, or counted dropped;
//! 3. degrade only the faulted connection: a tenant streamed afterwards
//!    (and, in the dedicated concurrency test, *during* the fault) gets
//!    a report byte-identical to offline analysis.
//!
//! All faults are armed with `count=1`, so each case proves both the
//! degradation and the recovery of the same server instance.

use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use lc_faults::{FaultAction, FaultInjector, FaultPlan, FaultRule, FaultSite};
use lc_profiler::{
    analyze_trace_asymmetric, canonical_report, AccumConfig, ParReplayConfig, ProfilerConfig,
};
use lc_sigmem::SignatureConfig;
use lc_trace::{stream_trace, RecordingSink, Trace, TraceCtx};
use loopcomm::prelude::*;
use loopcomm::serve::{ServeConfig, Server};

const SLOTS: usize = 1 << 12;
const THREADS: usize = 8;
/// Events per wire frame for the faulted (victim) stream.
const FE: usize = 64;
/// Hard per-case deadline: a fault must degrade, never wedge.
const RUN_TIMEOUT: Duration = Duration::from_secs(60);
const QUIESCE: Duration = Duration::from_secs(30);

fn victim_trace() -> &'static Trace {
    static TRACE: OnceLock<Trace> = OnceLock::new();
    TRACE.get_or_init(|| {
        let rec = Arc::new(RecordingSink::new());
        let ctx = TraceCtx::new(rec.clone(), 4);
        by_name("radix")
            .expect("workload exists")
            .run(&ctx, &RunConfig::new(4, InputSize::SimDev, 7));
        rec.finish()
    })
}

/// The offline canonical report every *clean* stream must reproduce.
fn offline() -> &'static String {
    static REPORT: OnceLock<String> = OnceLock::new();
    REPORT.get_or_init(|| {
        let trace = victim_trace();
        let analysis = analyze_trace_asymmetric(
            trace,
            SignatureConfig::paper_default(SLOTS, THREADS),
            ProfilerConfig::nested(THREADS),
            AccumConfig::default(),
            &ParReplayConfig::sequential(),
        );
        canonical_report(&analysis.report, trace.len() as u64)
    })
}

fn server_with(rules: Vec<FaultRule>) -> Server {
    Server::start(ServeConfig {
        listen: vec!["127.0.0.1:0".into()],
        sig: SignatureConfig::paper_default(SLOTS, THREADS),
        prof: ProfilerConfig::nested(THREADS),
        faults: if rules.is_empty() {
            None
        } else {
            Some(Arc::new(FaultInjector::new(FaultPlan { seed: 0, rules })))
        },
        ..ServeConfig::default()
    })
    .expect("start server")
}

/// Run `body` under the hard per-case deadline.
fn with_timeout<F: FnOnce() + Send + 'static>(body: F) {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(RUN_TIMEOUT) {
        Ok(()) => worker.join().expect("case panicked"),
        Err(_) => panic!("fault case wedged: did not complete within {RUN_TIMEOUT:?}"),
    }
}

/// Wait until `tenant` exists and has analyzed everything it received.
fn wait_quiet(server: &Server, tenant: &str) {
    let start = Instant::now();
    loop {
        if let Some(t) = server.shared().tenant(tenant) {
            if t.wait_quiet(QUIESCE) {
                return;
            }
        }
        assert!(
            start.elapsed() < QUIESCE,
            "tenant `{tenant}` never quiesced"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Exact-accounting invariants every tenant must satisfy once quiet:
/// frames/events conserve, and every byte is prelude, decoded frame, or
/// counted dropped.
fn assert_accounting_exact(server: &Server, tenant: &str) {
    let t = server.shared().tenant(tenant).expect("tenant exists");
    let frames = t.stats.frames_received.load(Ordering::Relaxed);
    let events = t.stats.events_received.load(Ordering::Relaxed);
    let frames_lost = t.stats.frames_lost.load(Ordering::Relaxed);
    let events_lost = t.stats.events_lost.load(Ordering::Relaxed);
    let bytes = t.stats.bytes_received.load(Ordering::Relaxed);
    let dropped = t.stats.bytes_dropped.load(Ordering::Relaxed);
    let conns = t.stats.conns_total.load(Ordering::Relaxed);
    assert_eq!(
        t.snapshot().frames + frames_lost,
        frames,
        "{tenant}: every received frame analyzed or counted lost"
    );
    assert_eq!(
        t.snapshot().events + events_lost,
        events,
        "{tenant}: every received event analyzed or counted lost"
    );
    // Per connection: 8 prelude bytes, then 12 bytes header + 41 per
    // event for each decoded frame, then the dropped tail. A connection
    // that died before completing the prelude contributes its few bytes
    // to `dropped` instead.
    assert!(
        bytes <= conns * 8 + frames * 12 + events * 41 + dropped,
        "{tenant}: byte accounting must balance \
         ({bytes} received, {frames} frames, {events} events, {dropped} dropped)"
    );
    assert!(
        bytes >= frames * 12 + events * 41 + dropped,
        "{tenant}: received bytes cover the decoded frames and the drop"
    );
}

/// Stream the victim trace as `tenant`, tolerating the client-side error
/// an injected server fault may surface (connection reset mid-write).
fn stream_victim(addr: &str, tenant: &str) -> bool {
    stream_trace(victim_trace(), addr, tenant, FE, None).is_ok()
}

/// After the (count=1) fault is consumed, a fresh tenant must stream
/// clean and reproduce the offline report byte-for-byte.
fn assert_recovers_clean(server: &Server, addr: &str) {
    assert!(
        stream_victim(addr, "clean"),
        "post-fault stream must succeed"
    );
    wait_quiet(server, "clean");
    let t = server.shared().tenant("clean").unwrap();
    assert_eq!(t.canonical(), *offline(), "clean tenant byte-identical");
    assert_eq!(t.stats.frames_lost.load(Ordering::Relaxed), 0);
    assert_eq!(t.stats.bytes_dropped.load(Ordering::Relaxed), 0);
    assert_eq!(t.stats.conns_faulted.load(Ordering::Relaxed), 0);
}

/// What the victim stream should amount to under a given fault.
enum Expect {
    /// No loss at all: the fault delays or is absorbed.
    Lossless,
    /// The connection dies before ever reaching its tenant.
    NoTenant,
    /// Exactly one frame is consumed at the drain seam.
    OneFrameLost,
    /// The stream degrades to a valid prefix: something analyzed,
    /// something dropped, all of it counted.
    Prefix,
}

fn run_server_fault_case(site: FaultSite, action: FaultAction, after: u64, expect: Expect) {
    with_timeout(move || {
        let mut server = server_with(vec![FaultRule::once(site, action, after)]);
        let addr = server.ingest_addrs()[0].to_string();
        let sent_ok = stream_victim(&addr, "victim");
        let total = victim_trace().len() as u64;
        match expect {
            Expect::Lossless => {
                assert!(sent_ok, "absorbed fault must not kill the stream");
                wait_quiet(&server, "victim");
                assert_accounting_exact(&server, "victim");
                let t = server.shared().tenant("victim").unwrap();
                assert_eq!(t.canonical(), *offline(), "victim unharmed");
                assert_eq!(t.stats.events_lost.load(Ordering::Relaxed), 0);
            }
            Expect::NoTenant => {
                // The connection died at the accept seam; the hello was
                // never processed. Give the handler a moment to finish.
                let start = Instant::now();
                while server.shared().conns_faulted.load(Ordering::Relaxed) == 0 {
                    assert!(
                        start.elapsed() < QUIESCE,
                        "faulted connection must be counted"
                    );
                    std::thread::sleep(Duration::from_millis(5));
                }
                assert!(
                    server.shared().tenant("victim").is_none(),
                    "no tenant may exist for a connection faulted at accept"
                );
            }
            Expect::OneFrameLost => {
                assert!(sent_ok, "drain faults are invisible to the producer");
                wait_quiet(&server, "victim");
                assert_accounting_exact(&server, "victim");
                let t = server.shared().tenant("victim").unwrap();
                assert_eq!(
                    t.stats.frames_lost.load(Ordering::Relaxed),
                    1,
                    "exactly one frame lost at the drain seam"
                );
                assert_eq!(
                    t.stats.events_lost.load(Ordering::Relaxed),
                    FE as u64,
                    "exactly one full frame's events lost"
                );
                assert_eq!(t.snapshot().events, total - FE as u64);
                assert_eq!(t.stats.bytes_dropped.load(Ordering::Relaxed), 0);
            }
            Expect::Prefix => {
                wait_quiet(&server, "victim");
                assert_accounting_exact(&server, "victim");
                let t = server.shared().tenant("victim").unwrap();
                assert!(
                    t.snapshot().events < total,
                    "the fault must have cost something"
                );
                assert_eq!(
                    t.snapshot().events % FE as u64,
                    0,
                    "analyzed events are whole frames (valid prefix)"
                );
                assert_eq!(
                    t.stats.conns_faulted.load(Ordering::Relaxed),
                    1,
                    "the faulted connection is counted"
                );
            }
        }
        // count=1: the same server must now serve a clean tenant with a
        // byte-identical report.
        assert_recovers_clean(&server, &addr);
        server.shutdown();
    });
}

// ---------------------------------------------------------------------------
// net_accept: the connection admission seam.
// ---------------------------------------------------------------------------

#[test]
fn accept_panic_kills_only_that_connection() {
    run_server_fault_case(
        FaultSite::NetAccept,
        FaultAction::Panic,
        0,
        Expect::NoTenant,
    );
}

#[test]
fn accept_io_error_kills_only_that_connection() {
    run_server_fault_case(
        FaultSite::NetAccept,
        FaultAction::IoError,
        0,
        Expect::NoTenant,
    );
}

#[test]
fn accept_short_write_kills_only_that_connection() {
    run_server_fault_case(
        FaultSite::NetAccept,
        FaultAction::ShortWrite { bytes: 3 },
        0,
        Expect::NoTenant,
    );
}

#[test]
fn accept_bit_flip_kills_only_that_connection() {
    run_server_fault_case(
        FaultSite::NetAccept,
        FaultAction::BitFlip { bit: 5 },
        0,
        Expect::NoTenant,
    );
}

#[test]
fn accept_stall_delays_but_loses_nothing() {
    run_server_fault_case(
        FaultSite::NetAccept,
        FaultAction::Stall { ms: 50 },
        0,
        Expect::Lossless,
    );
}

// ---------------------------------------------------------------------------
// net_frame_read: every socket read on the reassembly path. `after=5`
// lets the 2-read hello through, so the fault lands mid-stream.
// ---------------------------------------------------------------------------

#[test]
fn frame_read_panic_salvages_the_prefix() {
    run_server_fault_case(
        FaultSite::NetFrameRead,
        FaultAction::Panic,
        5,
        Expect::Prefix,
    );
}

#[test]
fn frame_read_disconnect_salvages_the_prefix() {
    run_server_fault_case(
        FaultSite::NetFrameRead,
        FaultAction::IoError,
        5,
        Expect::Prefix,
    );
}

#[test]
fn frame_read_short_read_salvages_the_prefix() {
    run_server_fault_case(
        FaultSite::NetFrameRead,
        FaultAction::ShortWrite { bytes: 3 },
        5,
        Expect::Prefix,
    );
}

#[test]
fn frame_read_bit_flip_salvages_the_prefix() {
    run_server_fault_case(
        FaultSite::NetFrameRead,
        FaultAction::BitFlip { bit: 7 },
        5,
        Expect::Prefix,
    );
}

#[test]
fn frame_read_stall_delays_but_loses_nothing() {
    run_server_fault_case(
        FaultSite::NetFrameRead,
        FaultAction::Stall { ms: 50 },
        5,
        Expect::Lossless,
    );
}

// ---------------------------------------------------------------------------
// tenant_flush: the drain seam between the queue and the analyzer.
// ---------------------------------------------------------------------------

#[test]
fn drain_panic_loses_exactly_one_frame() {
    run_server_fault_case(
        FaultSite::TenantFlush,
        FaultAction::Panic,
        2,
        Expect::OneFrameLost,
    );
}

#[test]
fn drain_io_error_loses_exactly_one_frame() {
    run_server_fault_case(
        FaultSite::TenantFlush,
        FaultAction::IoError,
        2,
        Expect::OneFrameLost,
    );
}

#[test]
fn drain_short_write_loses_exactly_one_frame() {
    run_server_fault_case(
        FaultSite::TenantFlush,
        FaultAction::ShortWrite { bytes: 3 },
        2,
        Expect::OneFrameLost,
    );
}

#[test]
fn drain_bit_flip_loses_exactly_one_frame() {
    run_server_fault_case(
        FaultSite::TenantFlush,
        FaultAction::BitFlip { bit: 11 },
        2,
        Expect::OneFrameLost,
    );
}

#[test]
fn drain_stall_backpressures_but_loses_nothing() {
    run_server_fault_case(
        FaultSite::TenantFlush,
        FaultAction::Stall { ms: 100 },
        2,
        Expect::Lossless,
    );
}

// ---------------------------------------------------------------------------
// net_write: client-side socket faults (the producer dying or corrupting
// mid-stream). The server has no injector here — it must salvage.
// ---------------------------------------------------------------------------

fn run_client_fault_case(action: FaultAction, expect_client_error: bool) {
    with_timeout(move || {
        let mut server = server_with(vec![]);
        let addr = server.ingest_addrs()[0].to_string();
        let inj = Arc::new(FaultInjector::new(FaultPlan {
            seed: 0,
            // Prelude is 2 writes; land mid-frame a few frames in.
            rules: vec![FaultRule::once(FaultSite::NetWrite, action, 10)],
        }));
        let sent = stream_trace(victim_trace(), &addr, "victim", FE, Some(inj));
        assert_eq!(
            sent.is_err(),
            expect_client_error,
            "client outcome for {action:?}: {sent:?}"
        );
        wait_quiet(&server, "victim");
        assert_accounting_exact(&server, "victim");
        let t = server.shared().tenant("victim").unwrap();
        assert_eq!(
            t.snapshot().events % FE as u64,
            0,
            "server salvages whole frames only"
        );
        if expect_client_error {
            assert!(
                t.snapshot().events < victim_trace().len() as u64,
                "a dead producer cannot have delivered everything"
            );
        }
        assert_recovers_clean(&server, &addr);
        server.shutdown();
    });
}

#[test]
fn client_disconnect_mid_frame_leaves_whole_frame_prefix() {
    run_client_fault_case(FaultAction::IoError, true);
}

#[test]
fn client_short_write_mid_frame_leaves_whole_frame_prefix() {
    run_client_fault_case(FaultAction::ShortWrite { bytes: 3 }, true);
}

#[test]
fn client_bit_flip_is_caught_by_server_crc() {
    with_timeout(|| {
        let mut server = server_with(vec![]);
        let addr = server.ingest_addrs()[0].to_string();
        let inj = Arc::new(FaultInjector::new(FaultPlan {
            seed: 0,
            rules: vec![FaultRule::once(
                FaultSite::NetWrite,
                FaultAction::BitFlip { bit: 3 },
                10,
            )],
        }));
        // A bit flip is transient: the client completes normally...
        stream_trace(victim_trace(), &addr, "victim", FE, Some(inj)).expect("transient");
        wait_quiet(&server, "victim");
        assert_accounting_exact(&server, "victim");
        let t = server.shared().tenant("victim").unwrap();
        // ...but the server's CRC rejects the damaged frame and counts
        // everything from it on as dropped.
        assert!(t.stats.bytes_dropped.load(Ordering::Relaxed) > 0);
        assert!(t.snapshot().events < victim_trace().len() as u64);
        assert_eq!(t.snapshot().events % FE as u64, 0);
        assert_eq!(t.stats.conns_faulted.load(Ordering::Relaxed), 1);
        assert_recovers_clean(&server, &addr);
        server.shutdown();
    });
}

// ---------------------------------------------------------------------------
// Isolation under *concurrent* damage: a clean tenant streaming while
// another tenant's drain is panicking must be byte-identical to offline.
// ---------------------------------------------------------------------------

#[test]
fn concurrent_clean_tenant_is_untouched_by_neighbor_fault() {
    with_timeout(|| {
        let mut server = server_with(vec![FaultRule::once(
            FaultSite::TenantFlush,
            FaultAction::Panic,
            3,
        )]);
        let addr = server.ingest_addrs()[0].to_string();
        // Victim streams its trace three times over (three sequential
        // connections), so it is still ingesting while the clean tenant
        // streams concurrently.
        let victim = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                for _ in 0..3 {
                    assert!(
                        stream_victim(&addr, "victim"),
                        "drain faults don't kill streams"
                    );
                }
            })
        };
        // Wait until the armed fault has actually fired on the victim.
        let start = Instant::now();
        loop {
            if let Some(t) = server.shared().tenant("victim") {
                if t.stats.frames_lost.load(Ordering::Relaxed) == 1 {
                    break;
                }
            }
            assert!(start.elapsed() < QUIESCE, "fault never fired");
            std::thread::sleep(Duration::from_millis(2));
        }
        // Clean tenant streams while the victim is still going.
        assert!(stream_victim(&addr, "clean"));
        victim.join().expect("victim producer");
        wait_quiet(&server, "victim");
        wait_quiet(&server, "clean");
        let clean = server.shared().tenant("clean").unwrap();
        assert_eq!(
            clean.canonical(),
            *offline(),
            "concurrent clean tenant must be byte-identical to offline"
        );
        assert_eq!(clean.stats.frames_lost.load(Ordering::Relaxed), 0);
        assert_eq!(clean.stats.bytes_dropped.load(Ordering::Relaxed), 0);
        let victim_t = server.shared().tenant("victim").unwrap();
        assert_eq!(
            victim_t.stats.frames_lost.load(Ordering::Relaxed),
            1,
            "victim lost exactly the one faulted frame"
        );
        assert_eq!(
            victim_t.stats.events_lost.load(Ordering::Relaxed),
            FE as u64
        );
        assert_accounting_exact(&server, "victim");
        server.shutdown();
    });
}
