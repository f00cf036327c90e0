//! `MmapTrace::stream_events` with the segment read-ahead on and off.
//!
//! With read-ahead a helper thread reads, CRC-checks and decodes the next
//! v3 segments into a small pool of recycled buffers while the caller
//! works on the current one. Every test here runs both ways and holds the
//! two to the inline stamped reader (`stream_from`): the same events in
//! the same blocks from any start offset, the same prefix and error on a
//! damaged segment, a consumer panic that ends the run instead of hanging
//! it, and no buffer beyond the pool.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

use lc_trace::{
    synth_event, write_trace_spool_v3, AccessEvent, MmapTrace, Trace, V3Index, PAGE_BYTES,
    READ_AHEAD_BUFFERS,
};

/// Events per segment of every spool here.
const SEG: usize = 100;
/// v3 segment header: marker + payload_len + crc32.
const SEGMENT_HEADER: usize = 12;

struct Spool {
    dir: PathBuf,
    path: PathBuf,
    trace: Trace,
}

impl Spool {
    /// `events` synthetic events in `SEG`-event segments.
    fn new(name: &str, events: u64) -> Self {
        let dir = std::env::temp_dir().join(format!("lc_read_ahead_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.lcv3");
        let trace = Trace::new(
            (0..events)
                .map(|i| synth_event(i, 42, 4, 4096, 0.0))
                .collect(),
        );
        write_trace_spool_v3(&trace, &path, SEG).unwrap();
        Self { dir, path, trace }
    }

    /// File offset of segment `k`'s header.
    fn segment_offset(&self, k: usize) -> usize {
        V3Index::load(&self.path).unwrap().entries[k].page_no as usize * PAGE_BYTES
    }
}

impl Drop for Spool {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Blocks `stream_events` delivers from `from`, and its outcome.
fn blocks(
    m: &MmapTrace,
    from: u64,
    read_ahead: bool,
) -> (Vec<Vec<AccessEvent>>, std::io::Result<u64>) {
    let mut out = Vec::new();
    let res = m.stream_events(from, read_ahead, |evs| out.push(evs.to_vec()));
    let res = res.map(|s| {
        assert_eq!(s.read_ahead, read_ahead);
        s.events
    });
    (out, res)
}

/// The inline stamped reader's blocks, stamps dropped.
fn reference(m: &MmapTrace, from: u64) -> (Vec<Vec<AccessEvent>>, std::io::Result<u64>) {
    let mut out = Vec::new();
    let res = m.stream_from(from, |evs| out.push(evs.iter().map(|e| e.event).collect()));
    (out, res)
}

#[test]
fn every_start_offset_streams_the_same_blocks_both_ways() {
    let spool = Spool::new("offsets", 1050);
    let m = MmapTrace::open(&spool.path).unwrap();
    let all = spool.trace.access_events();
    for from in [0u64, 300, 457, 1049, 1050, 5000] {
        let (want, want_n) = reference(&m, from);
        let want_n = want_n.unwrap();
        for read_ahead in [false, true] {
            let (got, n) = blocks(&m, from, read_ahead);
            assert_eq!(n.unwrap(), want_n, "from {from}, read-ahead {read_ahead}");
            assert_eq!(got, want, "from {from}, read-ahead {read_ahead}");
            let flat: Vec<AccessEvent> = got.concat();
            assert_eq!(flat, all[(from as usize).min(all.len())..]);
        }
    }
}

#[test]
fn a_damaged_segment_ends_the_stream_after_the_segments_before_it() {
    type Damage = fn(&mut Vec<u8>, usize);
    let damages: [(&str, Damage); 2] = [
        ("bad crc", |bytes, at| {
            bytes[at + SEGMENT_HEADER + 5] ^= 0x20
        }),
        ("truncated", |bytes, at| {
            bytes.truncate(at + SEGMENT_HEADER + 7)
        }),
    ];
    for (what, damage) in damages {
        for k in [0usize, 4, 9] {
            let spool = Spool::new(&format!("{}_{k}", what.replace(' ', "_")), 1000);
            // Damaged under an open reader, so its index still names
            // segment `k` (a spool cut before `open` is re-indexed to
            // its whole segments instead).
            let m = MmapTrace::open(&spool.path).unwrap();
            let mut bytes = std::fs::read(&spool.path).unwrap();
            damage(&mut bytes, spool.segment_offset(k));
            std::fs::write(&spool.path, &bytes).unwrap();
            let (want, want_err) = reference(&m, 0);
            let want_err = want_err.unwrap_err().to_string();
            assert!(want_err.contains(&format!("segment {k}")), "{want_err}");
            assert_eq!(want.len(), k);
            for read_ahead in [false, true] {
                let (got, res) = blocks(&m, 0, read_ahead);
                assert_eq!(got, want, "{what} at {k}, read-ahead {read_ahead}");
                assert_eq!(res.unwrap_err().to_string(), want_err);
            }
        }
    }
}

#[test]
fn a_panicking_consumer_propagates_instead_of_hanging() {
    let spool = Spool::new("panic", 5000);
    let path = spool.path.clone();
    for read_ahead in [false, true] {
        let path = path.clone();
        let (tx, rx) = mpsc::channel();
        let run = std::thread::spawn(move || {
            let m = MmapTrace::open(&path).unwrap();
            let mut seen = 0;
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                m.stream_events(0, read_ahead, |_| {
                    seen += 1;
                    if seen == 3 {
                        panic!("injected consumer panic");
                    }
                })
            }));
            tx.send(
                outcome
                    .map(|_| ())
                    .map_err(|p| p.downcast_ref::<&str>().copied()),
            )
            .unwrap();
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the stream ends instead of hanging");
        assert_eq!(
            outcome,
            Err(Some("injected consumer panic")),
            "{read_ahead}"
        );
        run.join().unwrap();
    }
}

#[test]
fn read_ahead_decodes_into_no_more_buffers_than_its_pool() {
    let spool = Spool::new("pool", 4000);
    let m = MmapTrace::open(&spool.path).unwrap();
    // Inline, one reused scratch; ahead, the recycled pool.
    for (read_ahead, pool) in [(false, 1), (true, READ_AHEAD_BUFFERS)] {
        let mut buffers = BTreeSet::new();
        let mut blocks = 0;
        let stream = m
            .stream_events(0, read_ahead, |evs| {
                // A slow consumer: the helper runs as far ahead as its
                // pool lets it.
                std::thread::sleep(Duration::from_millis(1));
                buffers.insert(evs.as_ptr() as usize);
                blocks += 1;
            })
            .unwrap();
        assert_eq!(stream.events, 4000);
        assert_eq!(blocks, 4000 / SEG);
        assert!(
            buffers.len() <= pool,
            "{} distinct buffers for a pool of {pool} (read-ahead {read_ahead})",
            buffers.len()
        );
    }
}
