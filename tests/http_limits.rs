//! The HTTP observation surface serves one request at a time, so its
//! request read is bounded: an 8 KiB request line, 16 KiB of headers, and
//! one 5 s deadline for the whole head. A client that floods bytes
//! without a newline, or drips them, is cut off within the deadline, and
//! `/healthz` answers right after. A `?wait=1` report, which polls until
//! its tenant is quiet, waits on a thread of its own and holds no one up.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use lc_trace::wire::encode_hello;
use loopcomm::serve::{ServeConfig, Server};

/// The server's whole-request deadline.
const DEADLINE: Duration = Duration::from_secs(5);

fn start() -> (Server, String) {
    let server = Server::start(ServeConfig {
        http: Some("127.0.0.1:0".into()),
        ..ServeConfig::default()
    })
    .expect("start server");
    let http = server.http_addr().expect("http enabled").to_string();
    (server, http)
}

/// `/healthz` answers promptly.
fn assert_healthy(http: &str) {
    let start = Instant::now();
    let mut sock = TcpStream::connect(http).expect("connect http");
    sock.write_all(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
    let mut resp = String::new();
    sock.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.0 200"), "{resp}");
    assert!(resp.ends_with("ok\n"), "{resp}");
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "/healthz was held up"
    );
}

/// Read until the server closes (EOF or reset); what it sent before.
fn read_until_closed(sock: &mut TcpStream) -> Vec<u8> {
    let mut got = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match sock.read(&mut buf) {
            Ok(0) | Err(_) => return got,
            Ok(n) => got.extend_from_slice(&buf[..n]),
        }
    }
}

#[test]
fn oversized_request_line_is_refused_at_once() {
    let (mut server, http) = start();
    let mut sock = TcpStream::connect(&http).expect("connect http");
    sock.set_read_timeout(Some(2 * DEADLINE)).unwrap();
    let start = Instant::now();
    let mut writer = sock.try_clone().unwrap();
    // 1 MiB without a newline; the write fails once the server hangs up.
    let flood = std::thread::spawn(move || {
        let _ = writer.write_all(&vec![b'A'; 1 << 20]);
    });
    let got = read_until_closed(&mut sock);
    let took = start.elapsed();
    // The reply can be lost to the reset that closing on unread bytes
    // sends; when it arrives it must be the 400.
    assert!(
        got.is_empty() || got.starts_with(b"HTTP/1.0 400"),
        "{}",
        String::from_utf8_lossy(&got)
    );
    assert!(
        took < DEADLINE / 2,
        "flooding client held the server for {took:?}"
    );
    flood.join().unwrap();
    assert_healthy(&http);
    server.shutdown();
}

#[test]
fn dripping_client_is_cut_off_at_the_deadline() {
    let (mut server, http) = start();
    let mut sock = TcpStream::connect(&http).expect("connect http");
    // Each read doubles as the drip interval.
    sock.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
    let start = Instant::now();
    let request = b"GET /healthz HTTP/1.0\r\nX-Slow: ";
    let mut closed = false;
    for i in 0.. {
        if start.elapsed() > 3 * DEADLINE {
            break;
        }
        let byte = request.get(i).copied().unwrap_or(b'x');
        if sock.write_all(&[byte]).is_err() {
            closed = true;
            break;
        }
        let mut buf = [0u8; 64];
        match sock.read(&mut buf) {
            Ok(_) => {
                closed = true;
                break;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => {
                closed = true;
                break;
            }
        }
    }
    let took = start.elapsed();
    assert!(closed, "dripping client still connected after {took:?}");
    assert!(
        took < DEADLINE + Duration::from_secs(3),
        "dripping client held the server for {took:?}"
    );
    assert_healthy(&http);
    server.shutdown();
}

#[test]
fn headers_past_their_budget_get_400() {
    let (mut server, http) = start();
    let mut sock = TcpStream::connect(&http).expect("connect http");
    sock.set_read_timeout(Some(2 * DEADLINE)).unwrap();
    // 17 KiB of well-formed headers: past the budget, yet small enough to
    // sit in the socket buffers, so the reply is read before any reset.
    let mut req = b"GET /healthz HTTP/1.0\r\n".to_vec();
    for i in 0..17 * 16 {
        req.extend_from_slice(format!("X-Pad-{i:04}: {}\r\n", "p".repeat(49)).as_bytes());
    }
    req.extend_from_slice(b"\r\n");
    sock.write_all(&req).unwrap();
    let got = read_until_closed(&mut sock);
    assert!(
        got.is_empty() || got.starts_with(b"HTTP/1.0 400"),
        "{}",
        String::from_utf8_lossy(&got)
    );
    assert_healthy(&http);
    server.shutdown();
}

#[test]
fn a_waiting_report_does_not_hold_up_healthz() {
    let (mut server, http) = start();
    // An ingest connection that says hello and then nothing keeps its
    // tenant from ever going quiet.
    let mut ingest = TcpStream::connect(&server.ingest_addrs()[0]).expect("connect ingest");
    ingest.write_all(&encode_hello("idle")).unwrap();
    let start = Instant::now();
    while server.shared().tenant("idle").is_none_or(|t| t.quiet()) {
        assert!(start.elapsed() < DEADLINE, "tenant never registered");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut waiting = TcpStream::connect(&http).expect("connect http");
    waiting
        .write_all(b"GET /tenants/idle/report?wait=1 HTTP/1.0\r\n\r\n")
        .unwrap();
    // The listener accepts in connection order, so the server takes the
    // waiting request, whole, before the `/healthz` that follows it.
    assert_healthy(&http);
    // Closing the ingest connection quiets the tenant: the wait ends.
    drop(ingest);
    waiting.set_read_timeout(Some(2 * DEADLINE)).unwrap();
    let got = read_until_closed(&mut waiting);
    assert!(
        got.starts_with(b"HTTP/1.0 200"),
        "{}",
        String::from_utf8_lossy(&got)
    );
    server.shutdown();
}
