//! Never-panic, never-stall fuzz of `serve`'s HTTP request path, beside
//! the hand-picked limits in `http_limits.rs`.
//!
//! Every request here is arbitrary or half-formed: garbage request lines
//! and header bytes, unknown tenants and views, `?wait=` spellings, and
//! requests cut off at any byte. The client half-closes after sending, as
//! a peer that dies mid-request does, so the server never waits out its
//! request deadline. Each one must get a status from a fixed set within a
//! second, and afterwards `/healthz` must still answer within a second.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use lc_trace::wire::encode_hello;
use lc_trace::{write_trace_spool, AccessEvent, AccessKind, FuncId, LoopId, StampedEvent, Trace};
use loopcomm::serve::{ServeConfig, Server};
use proptest::prelude::*;

/// Statuses the HTTP surface may answer with.
const STATUSES: [&str; 5] = ["200", "400", "404", "405", "503"];
/// How long one request may take to be answered.
const PROMPT: Duration = Duration::from_secs(1);
/// The tenant every fuzzed server knows; it is quiet, so `?wait=1` on it
/// returns at once.
const TENANT: &str = "known";

/// One server per test binary, fed a short stream for [`TENANT`] so its
/// views have something to render.
fn http() -> &'static str {
    static SERVER: OnceLock<(Server, String)> = OnceLock::new();
    let (_, http) = SERVER.get_or_init(|| {
        let server = Server::start(ServeConfig {
            http: Some("127.0.0.1:0".into()),
            ..ServeConfig::default()
        })
        .expect("start server");
        let events = (0..64u64)
            .map(|i| StampedEvent {
                seq: i,
                event: AccessEvent {
                    tid: (i % 4) as u32,
                    addr: 0x1000 + (i % 8) * 8,
                    size: 8,
                    kind: if i % 2 == 0 {
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
            .collect();
        let mut wire = encode_hello(TENANT);
        write_trace_spool(&Trace::new(events), &mut wire, 16).expect("spool");
        let mut ingest = TcpStream::connect(&server.ingest_addrs()[0]).expect("connect ingest");
        ingest.write_all(&wire).expect("send stream");
        drop(ingest);
        let start = Instant::now();
        while server.shared().tenant(TENANT).is_none_or(|t| !t.quiet()) {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "tenant never quiet"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let http = server.http_addr().expect("http enabled").to_string();
        (server, http)
    });
    http
}

/// Send `request`, half-close, and return the whole reply, failing the
/// case if it takes longer than [`PROMPT`].
fn exchange(request: &[u8]) -> Result<Vec<u8>, TestCaseError> {
    let start = Instant::now();
    let mut sock = TcpStream::connect(http()).expect("connect http");
    sock.set_read_timeout(Some(PROMPT)).unwrap();
    sock.write_all(request).expect("send request");
    sock.shutdown(Shutdown::Write).ok();
    let mut reply = Vec::new();
    let read = sock.read_to_end(&mut reply);
    prop_assert!(
        read.is_ok() && start.elapsed() < PROMPT,
        "no reply within {PROMPT:?} ({read:?}) to {:?}",
        String::from_utf8_lossy(request)
    );
    Ok(reply)
}

/// The reply carries a status from [`STATUSES`].
fn assert_known_status(reply: &[u8], request: &[u8]) -> Result<(), TestCaseError> {
    let status = reply
        .strip_prefix(b"HTTP/1.0 ")
        .and_then(|rest| rest.get(..3))
        .map(String::from_utf8_lossy);
    prop_assert!(
        status.as_deref().is_some_and(|s| STATUSES.contains(&s)),
        "reply {:?} to request {:?}",
        String::from_utf8_lossy(&reply[..reply.len().min(80)]),
        String::from_utf8_lossy(request)
    );
    Ok(())
}

/// `/healthz` still answers `ok` within [`PROMPT`].
fn assert_healthy() -> Result<(), TestCaseError> {
    let reply = exchange(b"GET /healthz HTTP/1.0\r\n\r\n")?;
    prop_assert!(reply.starts_with(b"HTTP/1.0 200"));
    prop_assert!(reply.ends_with(b"ok\n"));
    Ok(())
}

/// A request assembled from fuzzed parts: method, path, query, junk in
/// the target, header bytes, and where to cut it off.
fn build_request(
    method: usize,
    path: usize,
    query: usize,
    junk: &[u8],
    headers: &[u8],
    cut_seed: u64,
) -> Vec<u8> {
    const METHODS: [&[u8]; 5] = [b"GET", b"GET", b"POST", b"get", b""];
    const PATHS: [&str; 10] = [
        "/healthz",
        "/metrics",
        "/tenants",
        "/tenants/known/report",
        "/tenants/known/stats",
        "/tenants/known/coherence",
        "/tenants/known/nope",
        "/tenants/ghost/report",
        "/tenants/",
        "",
    ];
    const QUERIES: [&str; 8] = [
        "",
        "?wait=1",
        "?wait=",
        "?wait=0",
        "?x=1&wait=1",
        "?wait=1&wait=1",
        "?wait",
        "??wait=1",
    ];
    let mut req = METHODS[method % METHODS.len()].to_vec();
    req.push(b' ');
    req.extend_from_slice(PATHS[path % PATHS.len()].as_bytes());
    req.extend_from_slice(QUERIES[query % QUERIES.len()].as_bytes());
    req.extend_from_slice(junk);
    req.extend_from_slice(b" HTTP/1.0\r\n");
    req.extend_from_slice(headers);
    req.extend_from_slice(b"\r\n\r\n");
    // Half the requests are cut off somewhere.
    if cut_seed % 2 == 1 {
        req.truncate((cut_seed / 2 % (req.len() as u64 + 1)) as usize);
    }
    req
}

proptest! {
    /// Arbitrary bytes as the whole request: a status from the fixed set,
    /// promptly, and `/healthz` still answers.
    #[test]
    fn arbitrary_request_bytes_get_a_known_status(
        bytes in prop::collection::vec(any::<u8>(), 0..600)
    ) {
        let reply = exchange(&bytes)?;
        assert_known_status(&reply, &bytes)?;
        assert_healthy()?;
    }

    /// Near-valid requests: every route, known and unknown tenants and
    /// views, `?wait=` spellings, junk in the target, arbitrary header
    /// bytes, and truncation anywhere.
    #[test]
    fn mangled_requests_get_a_known_status(
        route in (0usize..10, 0usize..10, 0usize..8),
        junk in prop::collection::vec(any::<u8>(), 0..8),
        headers in prop::collection::vec(any::<u8>(), 0..300),
        cut_seed in any::<u64>()
    ) {
        let (method, path, query) = route;
        let request = build_request(method, path, query, &junk, &headers, cut_seed);
        let reply = exchange(&request)?;
        assert_known_status(&reply, &request)?;
        assert_healthy()?;
    }
}
