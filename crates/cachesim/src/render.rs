//! The canonical coherence report, written one scope at a time.
//!
//! A report is a header and one section per scope: the whole program,
//! then every loop with traffic, ascending by UID. [`write_coherence_report`]
//! renders the scopes on up to `workers` threads and writes them in scope
//! order. A worker holds the text of one scope at most, and the scope
//! being written goes out every 64 KiB; a scope's offending lines
//! come straight from the k-way merge of the shards' runs
//! ([`LoopCoh::lines`]). So neither the merged rows nor the whole text
//! ever exist at once (DESIGN.md §16.4). [`canonical_coherence_report`] is
//! the same writer into a `String`.

use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use crate::backend::{CoherenceReport, LoopCoh, BUS_OPS};

/// Text a worker renders before it tries to write it out: the scope being
/// written leaves in pieces of about this size, the others wait whole.
const SPILL_BYTES: usize = 64 << 10;

/// Render a [`CoherenceReport`] in the canonical line format — stable
/// field order, loops ascending by UID, zero sections skipped — so
/// equality of analyses can be asserted with `diff`, mirroring
/// `lc_profiler::canonical_report`.
pub fn canonical_coherence_report(r: &CoherenceReport) -> String {
    let mut out = Vec::new();
    write_coherence_report(r, 1, &mut out).expect("a Vec takes every write");
    String::from_utf8(out).expect("the canonical report is ASCII")
}

/// Write the canonical form of `r` ([`canonical_coherence_report`]'s
/// bytes) to `out`, rendering up to `workers` scopes at a time, the
/// calling thread's included. A worker the host will not start leaves its
/// share to the others. `Err` is the first failed write; nothing is
/// written after it.
pub fn write_coherence_report<W: Write + Send>(
    r: &CoherenceReport,
    workers: usize,
    out: W,
) -> io::Result<()> {
    let scopes: Vec<(Option<u32>, &LoopCoh)> = std::iter::once((None, &r.global))
        .chain(
            (r.loops.iter())
                .filter(|(_, lc)| !lc.is_zero())
                .map(|(&id, lc)| (Some(id), lc)),
        )
        .collect();
    let turn = Turn {
        state: Mutex::new(State {
            next: 0,
            out,
            failed: None,
        }),
        passed: Condvar::new(),
    };
    let claimed = AtomicUsize::new(0);
    let work = || {
        let _abandon = Abandon(&turn);
        let mut buf = Vec::with_capacity(2 * SPILL_BYTES);
        loop {
            // A claim publishes nothing: the scopes are read-only.
            let i = claimed.fetch_add(1, Ordering::Relaxed);
            let Some(&(id, lc)) = scopes.get(i) else {
                return;
            };
            let spill = &mut |buf: &mut Vec<u8>| turn.spill(i, buf);
            if !render(r, id, lc, &mut buf, spill) || !turn.finish(i, &mut buf) {
                return;
            }
        }
    };
    std::thread::scope(|s| {
        for k in 1..workers.min(scopes.len()) {
            let _ = (std::thread::Builder::new().name(format!("lc-coh-render-{k}")))
                .spawn_scoped(s, work);
        }
        work();
    });
    let state = turn
        .state
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let mut out = state.out;
    match state.failed {
        Some(e) => Err(e),
        None => out.flush(),
    }
}

/// Which scope is written next, and where to.
struct Turn<W> {
    state: Mutex<State<W>>,
    /// Signalled when the turn passes on or a write fails.
    passed: Condvar,
}

struct State<W> {
    /// The scope being written.
    next: usize,
    out: W,
    /// The first failed write; no scope is written after it.
    failed: Option<io::Error>,
}

impl<W: Write> State<W> {
    fn write(&mut self, buf: &mut Vec<u8>) {
        if self.failed.is_none() {
            self.failed = self.out.write_all(buf).err();
        }
        buf.clear();
    }
}

impl<W: Write> Turn<W> {
    /// The state, even after a panic under the lock: every update leaves
    /// it whole, and a panicking worker marks the write failed.
    fn lock(&self) -> MutexGuard<'_, State<W>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Write out and empty `buf` if scope `i` is the one being written;
    /// `false` once a write has failed. A failure here wakes the workers
    /// waiting for their turn, since scope `i`'s is never passed on.
    fn spill(&self, i: usize, buf: &mut Vec<u8>) -> bool {
        let mut st = self.lock();
        if st.next == i {
            st.write(buf);
            if st.failed.is_some() {
                self.passed.notify_all();
            }
        }
        st.failed.is_none()
    }

    /// Wait for scope `i`'s turn, write the rest of it, and pass the turn
    /// on; `false` once a write has failed.
    fn finish(&self, i: usize, buf: &mut Vec<u8>) -> bool {
        let mut st = self.lock();
        while st.next != i && st.failed.is_none() {
            st = self.passed.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.write(buf);
        st.next += 1;
        self.passed.notify_all();
        st.failed.is_none()
    }
}

/// Fails the write when a worker panics, so no other worker waits for a
/// turn it would never pass on.
struct Abandon<'a, W>(&'a Turn<W>);

impl<W> Drop for Abandon<'_, W> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut st = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
            st.failed
                .get_or_insert_with(|| io::Error::other("a report worker panicked"));
            self.0.passed.notify_all();
        }
    }
}

/// Render one scope into `buf` — the report's header first for the
/// whole program (`id` `None`), `loop <id>` for a loop — handing `buf` to
/// `spill` every [`SPILL_BYTES`]; `false` when `spill` says to stop.
fn render(
    r: &CoherenceReport,
    id: Option<u32>,
    lc: &LoopCoh,
    buf: &mut Vec<u8>,
    spill: &mut dyn FnMut(&mut Vec<u8>) -> bool,
) -> bool {
    // `io::Write` on a `Vec` cannot fail.
    match id {
        None => {
            let _ = write!(
                buf,
                "loopcomm-coherence v1\nthreads {}\ngeometry line-bytes {} cache-kib {} assoc {}\n\
                 accesses {}\n",
                r.threads, r.config.line_bytes, r.config.cache_kib, r.config.assoc, r.accesses
            );
            if r.clamped_accesses != 0 {
                let _ = writeln!(buf, "clamped-accesses {}", r.clamped_accesses);
            }
            let _ = write!(
                buf,
                "fills {} mem {} c2c {} hits {}\ninvalidations {} writebacks {}\nglobal\n",
                r.fills, r.mem_fills, r.c2c_fills, r.hits, r.invalidations, r.writebacks
            );
        }
        Some(id) => {
            let _ = writeln!(buf, "loop {id}");
        }
    }
    if !lc.invalidations.is_zero() {
        buf.extend_from_slice(b"invalidations\n");
        buf.extend_from_slice(lc.invalidations.to_csv().as_bytes());
    }
    if !lc.transfers.is_zero() {
        buf.extend_from_slice(b"transfers\n");
        buf.extend_from_slice(lc.transfers.to_csv().as_bytes());
    }
    if !lc.bus.is_zero() {
        let _ = writeln!(buf, "bus {}", BUS_OPS.join(","));
        buf.extend_from_slice(lc.bus.to_csv().as_bytes());
    }
    let _ = writeln!(
        buf,
        "false-sharing invalidations {} false-bytes {} true-bytes {}",
        lc.fs_invalidations,
        lc.false_bytes,
        lc.true_bytes()
    );
    // One row per tracked cache line, the bulk of a large report: the
    // numbers are written digit by digit, not through `format!`.
    let mut mark = SPILL_BYTES;
    for (line, fs) in lc.lines() {
        buf.extend_from_slice(b"line ");
        push_hex(buf, *line);
        buf.extend_from_slice(b" events ");
        push_dec(buf, fs.events);
        buf.extend_from_slice(b" false ");
        push_dec(buf, fs.false_bytes);
        buf.extend_from_slice(b" true ");
        push_dec(buf, fs.true_bytes);
        buf.extend_from_slice(b" threads ");
        push_hex(buf, fs.threads);
        buf.extend_from_slice(b" addrs ");
        for (i, &a) in fs.addrs().iter().enumerate() {
            if i != 0 {
                buf.push(b',');
            }
            push_hex(buf, a);
        }
        buf.push(b'\n');
        if buf.len() >= mark {
            if !spill(buf) {
                return false;
            }
            mark = buf.len() + SPILL_BYTES;
        }
    }
    true
}

/// Append `v` in decimal, as `format!("{v}")` writes it.
fn push_dec(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

/// Append `v` in `0x`-prefixed lowercase hex, as `format!("{v:#x}")`
/// writes it.
fn push_hex(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 18];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b"0123456789abcdef"[(v & 0xf) as usize];
        v >>= 4;
        if v == 0 {
            break;
        }
    }
    i -= 2;
    buf[i..i + 2].copy_from_slice(b"0x");
    out.extend_from_slice(&buf[i..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoherenceBackend, CoherenceConfig};
    use lc_trace::{AccessEvent, AccessKind, FuncId, LoopId};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    #[test]
    fn digit_writers_match_format() {
        for v in [0, 9, 10, 15, 16, u32::MAX as u64, u64::MAX] {
            let (mut dec, mut hex) = (Vec::new(), Vec::new());
            push_dec(&mut dec, v);
            push_hex(&mut hex, v);
            assert_eq!(dec, format!("{v}").as_bytes());
            assert_eq!(hex, format!("{v:#x}").as_bytes());
        }
    }

    proptest::proptest! {
        /// Any value, at every digit count (the shift).
        #[test]
        fn digit_writers_match_format_on_any_value(
            v in proptest::arbitrary::any::<u64>(),
            shift in 0u32..64,
        ) {
            let v = v >> shift;
            let (mut dec, mut hex) = (b"x".to_vec(), b"y".to_vec());
            push_dec(&mut dec, v);
            push_hex(&mut hex, v);
            proptest::prop_assert_eq!(dec, format!("x{v}").into_bytes());
            proptest::prop_assert_eq!(hex, format!("y{v:#x}").into_bytes());
        }
    }

    /// Writes into a `Vec` until `room` bytes are taken, then fail.
    struct Full {
        got: Vec<u8>,
        room: usize,
    }

    impl Write for Full {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.got.len() + buf.len() > self.room {
                return Err(io::Error::other("full"));
            }
            self.got.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Many loops, each with many false-sharing lines: scopes of several
    /// spills each.
    fn many_scopes() -> CoherenceReport {
        let mut b = CoherenceBackend::new(CoherenceConfig::default(), 2);
        let evs: Vec<AccessEvent> = (0..60_000u64)
            .map(|i| AccessEvent {
                tid: (i % 2) as u32,
                addr: 0x1000 + (i / 2 % 4096) * 64 + (i % 2) * 8,
                size: 8,
                kind: AccessKind::Write,
                loop_id: LoopId((i / 7919 % 6) as u32 + 1),
                parent_loop: LoopId::NONE,
                func: FuncId::NONE,
                site: 0,
            })
            .collect();
        b.on_block(&evs);
        b.report()
    }

    /// Any number of workers writes the one-worker bytes, in scope order.
    #[test]
    fn workers_write_the_scopes_in_order() {
        let r = many_scopes();
        let want = canonical_coherence_report(&r);
        assert!(want.len() > 8 * SPILL_BYTES, "scopes spill: {}", want.len());
        assert!(want.matches("\nloop ").count() >= 4);
        for workers in [2, 3, 8, 64] {
            let mut got = Vec::new();
            write_coherence_report(&r, workers, &mut got).unwrap();
            assert!(got == want.as_bytes(), "{workers} worker(s)");
        }
    }

    /// The first failed write ends the report, at one worker or several,
    /// and nothing is written after it. A write that fails late in the
    /// whole-program scope, while the other workers wait for their turn,
    /// wakes them: the run ends instead of hanging.
    #[test]
    fn a_failed_write_stops_every_worker() {
        let r = Arc::new(many_scopes());
        let want = canonical_coherence_report(&r);
        let global = want.find("\nloop ").expect("loop scopes");
        assert!(global > 4 * SPILL_BYTES, "the first scope spills: {global}");
        let late = global - SPILL_BYTES / 2;
        for workers in [1, 2, 4] {
            for room in [0, 100, SPILL_BYTES + 1, want.len() / 2, want.len() - 1]
                .into_iter()
                .chain([late; 8])
            {
                let (tx, rx) = mpsc::channel();
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    let mut out = Full {
                        got: Vec::new(),
                        room,
                    };
                    let err = write_coherence_report(&r, workers, &mut out).unwrap_err();
                    tx.send((err.to_string(), out.got)).unwrap();
                });
                let (err, got) = (rx.recv_timeout(Duration::from_secs(60)))
                    .expect("the write ends instead of hanging");
                assert_eq!(err, "full");
                assert!(got.len() <= room && want.as_bytes().starts_with(&got));
            }
        }
    }
}
