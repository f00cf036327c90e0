//! Trace format v2 — a framed, checksummed, crash-tolerant spool.
//!
//! The v1 format commits to an event count up front and trusts the rest of
//! the file, so a crashed recorder, a wedged disk, or a single flipped bit
//! destroys the whole (potentially 100GB-class, per the paper's §V-B
//! motivation) trace. The spool format makes the failure domain one frame:
//!
//! ```text
//! "LCTR" | version=2 |
//!   repeated frames:
//!     "LCFR" | payload_len: u32 | crc32(payload): u32 | payload
//! ```
//!
//! where `payload` is `payload_len / 41` fixed-width event records (the
//! same 41-byte encoding as v1). Frames are appended and flushed as the
//! run progresses — there is no trailing index or count, so a file cut
//! short at any byte still holds every completed frame. The reader
//! verifies each frame's CRC32; [`salvage_trace`] recovers the longest
//! valid prefix of a truncated or bit-flipped file (of either version)
//! instead of erroring.
//!
//! [`SpoolSink`] is the recording sink: application threads stamp and
//! batch events, a dedicated writer thread turns each batch into one
//! durable frame — a v3 segment in a file ([`crate::spool_v3`]), or a v2
//! frame on any other byte sink, which is what the wire carries — and
//! [`SpoolSink::finish`] surfaces any writer failure — including a
//! panicked writer thread — as a typed [`SpoolError`] instead of a nested
//! panic.

use std::io::{self, BufWriter, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use lc_faults::FaultInjector;
use parking_lot::Mutex;

use crate::crc::crc32;
use crate::event::{AccessEvent, StampedEvent};
use crate::replay::Trace;
use crate::sink::AccessSink;
use crate::spool_v3::SpoolV3Writer;
use crate::trace_io::{
    decode_event, encode_event, read_header, salvage_v1_body, MAGIC, RECORD_BYTES, VERSION,
    VERSION_SPOOL, VERSION_V3,
};

/// Frame marker: "LCFR".
pub(crate) const FRAME_MAGIC: [u8; 4] = *b"LCFR";
/// Bytes of frame header (marker + payload length + CRC32).
pub(crate) const FRAME_HEADER_BYTES: usize = 12;
/// Sanity cap on one frame's payload (16 Mi events); a length field above
/// this is treated as corruption, not an allocation request.
pub(crate) const MAX_FRAME_PAYLOAD: u32 = (1 << 24) * RECORD_BYTES as u32;
/// Events per frame when the caller does not choose (4096 events ≈ 164 KiB
/// per frame — large enough to amortize the 12-byte header and the flush,
/// small enough that a crash loses under a fifth of a megabyte).
pub const DEFAULT_FRAME_EVENTS: usize = 4096;
/// Full frames a [`SpoolSink`] queues for its writer thread before
/// recording threads block. Bounds the recorder's memory when the disk
/// or the server is slower than capture, and keeps a server's
/// backpressure reaching the recorded program.
const BACKLOG_FRAMES: usize = 4;

/// What one spool writer produced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpoolStats {
    /// Frames written (and flushed).
    pub frames: u64,
    /// Events written.
    pub events: u64,
    /// Total file bytes, header included.
    pub bytes: u64,
}

/// Incremental v2 writer: buffer events, emit one durable frame per
/// `frame_events` (each frame is written *and flushed* before `push`
/// returns, so a crash after any frame boundary loses only the partial
/// frame).
pub struct SpoolWriter<W: Write> {
    w: BufWriter<W>,
    frame_events: usize,
    payload: Vec<u8>,
    buffered: usize,
    stats: SpoolStats,
}

impl<W: Write> SpoolWriter<W> {
    /// Start a spool on `w`, writing the v2 header immediately.
    pub fn new(w: W, frame_events: usize) -> io::Result<Self> {
        assert!(frame_events >= 1, "frame_events must be at least 1");
        let mut w = BufWriter::new(w);
        w.write_all(&MAGIC)?;
        w.write_all(&VERSION_SPOOL.to_le_bytes())?;
        w.flush()?;
        Ok(Self {
            w,
            frame_events,
            payload: Vec::with_capacity(frame_events * RECORD_BYTES),
            buffered: 0,
            stats: SpoolStats {
                frames: 0,
                events: 0,
                bytes: 8,
            },
        })
    }

    /// Append one event; emits a frame when the buffer reaches
    /// `frame_events`.
    pub fn push(&mut self, e: &StampedEvent) -> io::Result<()> {
        encode_event(e, &mut self.payload);
        self.buffered += 1;
        if self.buffered >= self.frame_events {
            self.end_frame()?;
        }
        Ok(())
    }

    /// Append a batch as exactly one frame (plus whatever was buffered).
    pub fn append_frame(&mut self, events: &[StampedEvent]) -> io::Result<()> {
        for e in events {
            encode_event(e, &mut self.payload);
        }
        self.buffered += events.len();
        self.end_frame()
    }

    /// Write and flush the buffered events as one frame (no-op when
    /// nothing is buffered).
    pub fn end_frame(&mut self) -> io::Result<()> {
        if self.buffered == 0 {
            return Ok(());
        }
        let crc = crc32(&self.payload);
        self.w.write_all(&FRAME_MAGIC)?;
        self.w
            .write_all(&(self.payload.len() as u32).to_le_bytes())?;
        self.w.write_all(&crc.to_le_bytes())?;
        self.w.write_all(&self.payload)?;
        // Frame durability boundary: a crash from here on loses only
        // not-yet-framed events.
        self.w.flush()?;
        self.stats.frames += 1;
        self.stats.events += self.buffered as u64;
        self.stats.bytes += (FRAME_HEADER_BYTES + self.payload.len()) as u64;
        self.payload.clear();
        self.buffered = 0;
        Ok(())
    }

    /// Flush any partial frame and return the final stats.
    pub fn finish(mut self) -> io::Result<SpoolStats> {
        self.end_frame()?;
        self.w.flush()?;
        Ok(self.stats)
    }
}

/// Serialize a whole trace in format v2 (frames of `frame_events`).
pub fn write_trace_spool<W: Write>(trace: &Trace, w: W, frame_events: usize) -> io::Result<()> {
    let mut sw = SpoolWriter::new(w, frame_events)?;
    for e in trace.events() {
        sw.push(e)?;
    }
    sw.finish().map(|_| ())
}

/// Strictly read a v2 frame stream (the prelude has been consumed).
/// Any torn frame, bad marker, or CRC mismatch is an error.
pub(crate) fn read_frames<R: Read>(r: &mut R) -> io::Result<(Trace, u64)> {
    match read_frames_inner(r, false)? {
        (trace, report) if report.bytes_dropped == 0 => Ok((trace, report.frames)),
        _ => unreachable!("strict mode errors instead of dropping"),
    }
}

/// How much of a damaged file a salvage pass recovered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SalvageReport {
    /// Format version of the file.
    pub version: u32,
    /// Valid frames recovered (v1 files count as 0 frames).
    pub frames: u64,
    /// Events recovered.
    pub events: u64,
    /// Bytes of unreadable suffix discarded (0 = the file was intact).
    pub bytes_dropped: u64,
}

impl SalvageReport {
    /// True when nothing had to be discarded.
    pub fn intact(&self) -> bool {
        self.bytes_dropped == 0
    }
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Fill `buf` from `r`, returning how many bytes arrived before EOF.
fn read_up_to<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Core v2 frame reader. In salvage mode a damaged frame ends the read
/// and the remaining bytes are counted; in strict mode it is an error.
fn read_frames_inner<R: Read>(r: &mut R, salvage: bool) -> io::Result<(Trace, SalvageReport)> {
    // Most spools hold at least one full frame; each subsequent frame's
    // validated header reserves its exact event count below, so growth is
    // one `reserve` per frame rather than a push-by-push cascade.
    let mut events = Vec::with_capacity(DEFAULT_FRAME_EVENTS);
    let mut report = SalvageReport {
        version: VERSION_SPOOL,
        ..SalvageReport::default()
    };
    let mut header = [0u8; FRAME_HEADER_BYTES];
    loop {
        let got = read_up_to(r, &mut header)?;
        if got == 0 {
            break; // clean end at a frame boundary
        }
        let fail = |msg: String,
                    consumed: u64,
                    r: &mut R,
                    report: &mut SalvageReport|
         -> io::Result<bool> {
            if !salvage {
                return Err(bad_data(msg));
            }
            // Count the bad frame's consumed bytes plus everything after.
            let mut rest = Vec::new();
            r.read_to_end(&mut rest)?;
            report.bytes_dropped = consumed + rest.len() as u64;
            Ok(true)
        };
        if got < FRAME_HEADER_BYTES
            && fail(
                format!("torn frame header ({got} of {FRAME_HEADER_BYTES} bytes)"),
                got as u64,
                r,
                &mut report,
            )?
        {
            break;
        }
        if header[0..4] != FRAME_MAGIC
            && fail(
                "bad frame marker (not LCFR)".to_string(),
                got as u64,
                r,
                &mut report,
            )?
        {
            break;
        }
        let payload_len = u32::from_le_bytes(header[4..8].try_into().unwrap());
        let want_crc = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if (payload_len > MAX_FRAME_PAYLOAD || payload_len as usize % RECORD_BYTES != 0)
            && fail(
                format!("implausible frame payload length {payload_len}"),
                got as u64,
                r,
                &mut report,
            )?
        {
            break;
        }
        let mut payload = vec![0u8; payload_len as usize];
        let pgot = read_up_to(r, &mut payload)?;
        if pgot < payload.len()
            && fail(
                format!("torn frame payload ({pgot} of {payload_len} bytes)"),
                (got + pgot) as u64,
                r,
                &mut report,
            )?
        {
            break;
        }
        let crc = crc32(&payload);
        if crc != want_crc
            && fail(
                format!("frame CRC mismatch (stored {want_crc:#010x}, computed {crc:#010x})"),
                (got + pgot) as u64,
                r,
                &mut report,
            )?
        {
            break;
        }
        let n = payload.len() / RECORD_BYTES;
        events.reserve(n);
        for chunk in payload.chunks_exact(RECORD_BYTES) {
            let rec: &[u8; RECORD_BYTES] = chunk.try_into().unwrap();
            // A CRC-valid frame written by us always decodes; treat a
            // decode failure like any other corruption.
            match decode_event(rec) {
                Ok(e) => events.push(e),
                Err(e) => {
                    if !salvage {
                        return Err(e);
                    }
                    let mut rest = Vec::new();
                    r.read_to_end(&mut rest)?;
                    report.bytes_dropped = (got + pgot) as u64 + rest.len() as u64;
                    report.events = events.len() as u64;
                    return Ok((Trace::new(events), report));
                }
            }
        }
        report.frames += 1;
    }
    report.events = events.len() as u64;
    Ok((Trace::new(events), report))
}

/// Recover the longest valid prefix of a (possibly truncated or
/// bit-flipped) trace file, v1 or v2. Only a missing/garbled file prelude
/// is an error — any body damage degrades into a shorter trace plus a
/// non-zero [`SalvageReport::bytes_dropped`].
pub fn salvage_trace(path: &Path) -> io::Result<(Trace, SalvageReport)> {
    let f = std::fs::File::open(path)?;
    let mut r = io::BufReader::new(f);
    salvage_stream(&mut r)
}

/// [`salvage_trace`] over any byte stream — the reference semantics the
/// network-side incremental decoder ([`crate::wire::FrameDecoder`]) is
/// differentially tested against.
pub fn salvage_stream<R: Read>(r: &mut R) -> io::Result<(Trace, SalvageReport)> {
    let version = read_header(r)?;
    match version {
        VERSION => {
            let (trace, dropped) = salvage_v1_body(r)?;
            let events = trace.len() as u64;
            Ok((
                trace,
                SalvageReport {
                    version: VERSION,
                    frames: 0,
                    events,
                    bytes_dropped: dropped,
                },
            ))
        }
        VERSION_SPOOL => read_frames_inner(r, true),
        VERSION_V3 => crate::spool_v3::read_v3_stream(r, true),
        other => Err(bad_data(format!("unsupported trace version {other}"))),
    }
}

/// A recording [`AccessSink`] that spools frames as the run progresses:
/// v3 segments into a file, or v2 frames into any other byte sink.
/// Application threads stamp events into a shared batch; each full batch
/// crosses a bounded channel (`BACKLOG_FRAMES` deep) to a dedicated
/// writer thread that appends it as one durable frame. Memory therefore
/// stays bounded however long the run, and a run that crashes mid-way
/// leaves every completed frame salvageable on disk — the crash-tolerance
/// contract v1's trailing-count format cannot offer.
pub struct SpoolSink {
    seq: AtomicU64,
    batch_events: usize,
    batch: Mutex<Vec<StampedEvent>>,
    tx: Mutex<Option<mpsc::SyncSender<Vec<StampedEvent>>>>,
    writer: Mutex<Option<JoinHandle<Result<SpoolStats, SpoolError>>>>,
    writer_dead: AtomicBool,
}

/// Why a spool could not be completed.
#[derive(Debug)]
pub enum SpoolError {
    /// The writer thread hit an I/O error (everything spooled before the
    /// error remains salvageable).
    Io(io::Error),
    /// The writer thread panicked; the payload's message is preserved.
    /// Surfaced as a typed error so callers never face a nested panic.
    WriterPanicked(String),
    /// [`SpoolSink::finish`] was called twice.
    AlreadyFinished,
}

impl std::fmt::Display for SpoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpoolError::Io(e) => write!(f, "spool I/O error: {e}"),
            SpoolError::WriterPanicked(msg) => write!(f, "spool writer thread panicked: {msg}"),
            SpoolError::AlreadyFinished => write!(f, "spool already finished"),
        }
    }
}

impl std::error::Error for SpoolError {}

impl From<io::Error> for SpoolError {
    fn from(e: io::Error) -> Self {
        SpoolError::Io(e)
    }
}

/// Render a panic payload (the `&str`/`String` cases panics carry).
fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A frame writer [`SpoolSink`]'s writer thread drives.
trait FrameWrite {
    fn append_frame(&mut self, events: &[StampedEvent]) -> io::Result<()>;
    fn finish(self) -> io::Result<SpoolStats>;
}

impl<W: Write> FrameWrite for SpoolWriter<W> {
    fn append_frame(&mut self, events: &[StampedEvent]) -> io::Result<()> {
        SpoolWriter::append_frame(self, events)
    }
    fn finish(self) -> io::Result<SpoolStats> {
        SpoolWriter::finish(self)
    }
}

impl FrameWrite for SpoolV3Writer {
    fn append_frame(&mut self, events: &[StampedEvent]) -> io::Result<()> {
        SpoolV3Writer::append_frame(self, events)
    }
    fn finish(self) -> io::Result<SpoolStats> {
        SpoolV3Writer::finish(self)
    }
}

impl SpoolSink {
    /// Start a v3 spool at `path` (plus its `.idx` side-car) with
    /// [`DEFAULT_FRAME_EVENTS`]-event segments.
    pub fn create(path: &Path) -> io::Result<Self> {
        Self::create_with(path, DEFAULT_FRAME_EVENTS, None)
    }

    /// [`Self::create`] with an explicit segment size and an optional
    /// fault injector on the data writes
    /// ([`lc_faults::FaultSite::TraceWrite`]) and the index write
    /// ([`lc_faults::FaultSite::IndexWrite`]). The file is created on the
    /// writer thread, so an unwritable path surfaces from
    /// [`Self::finish`] like any other write failure.
    pub fn create_with(
        path: &Path,
        frame_events: usize,
        faults: Option<Arc<FaultInjector>>,
    ) -> io::Result<Self> {
        let path = path.to_path_buf();
        Self::spawn(
            move || SpoolV3Writer::create_with(&path, faults),
            frame_events,
        )
    }

    /// Spool v2 frames into any byte sink — the seam
    /// [`crate::net::NetSink`] uses to stream frames over a socket.
    pub fn from_writer(raw: Box<dyn Write + Send>, frame_events: usize) -> io::Result<Self> {
        Self::spawn(move || SpoolWriter::new(raw, frame_events), frame_events)
    }

    /// Start the writer thread: it opens its frame writer with `open`,
    /// appends every batch it receives as one frame, and finishes the
    /// writer when the channel closes.
    fn spawn<F: FrameWrite>(
        open: impl FnOnce() -> io::Result<F> + Send + 'static,
        frame_events: usize,
    ) -> io::Result<Self> {
        assert!(frame_events >= 1, "frame_events must be at least 1");
        let (tx, rx) = mpsc::sync_channel::<Vec<StampedEvent>>(BACKLOG_FRAMES);
        let writer = std::thread::Builder::new()
            .name("lc-spool-writer".into())
            .spawn(move || -> Result<SpoolStats, SpoolError> {
                let mut w = open()?;
                for batch in rx.iter() {
                    w.append_frame(&batch)?;
                }
                Ok(w.finish()?)
            })?;
        Ok(Self {
            seq: AtomicU64::new(0),
            batch_events: frame_events,
            batch: Mutex::new(Vec::with_capacity(frame_events)),
            tx: Mutex::new(Some(tx)),
            writer: Mutex::new(Some(writer)),
            writer_dead: AtomicBool::new(false),
        })
    }

    /// Send `batch` to the writer thread, blocking while the backlog is
    /// full; latches `writer_dead` when the channel is closed (writer
    /// errored out and dropped the receiver, which also wakes a blocked
    /// send).
    fn send(&self, batch: Vec<StampedEvent>) {
        if batch.is_empty() {
            return;
        }
        let tx = self.tx.lock();
        match tx.as_ref() {
            Some(tx) if tx.send(batch).is_ok() => {}
            // Writer gone: the events are lost, but the run must not be —
            // finish() reports the writer's root-cause error.
            _ => self.writer_dead.store(true, Ordering::Relaxed),
        }
    }

    /// True when the writer thread has stopped accepting frames (its
    /// error is available from [`Self::finish`]).
    pub fn writer_dead(&self) -> bool {
        self.writer_dead.load(Ordering::Relaxed)
    }

    /// Events stamped so far (spooled or buffered).
    pub fn len(&self) -> usize {
        self.seq.load(Ordering::Relaxed) as usize
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flush remaining events, stop the writer thread and return its
    /// stats. A writer that failed mid-run surfaces its root cause here;
    /// a writer that *panicked* surfaces as
    /// [`SpoolError::WriterPanicked`], not a nested panic.
    pub fn finish(&self) -> Result<SpoolStats, SpoolError> {
        self.flush();
        drop(self.tx.lock().take()); // close the channel: writer loop ends
        let handle = self
            .writer
            .lock()
            .take()
            .ok_or(SpoolError::AlreadyFinished)?;
        let result = match handle.join() {
            Ok(result) => result,
            Err(p) => Err(SpoolError::WriterPanicked(panic_message(p))),
        };
        if result.is_err() {
            self.writer_dead.store(true, Ordering::Relaxed);
        }
        result
    }
}

impl AccessSink for SpoolSink {
    fn on_access(&self, ev: &AccessEvent) {
        self.on_batch(std::slice::from_ref(ev));
    }

    /// Stamp the block and ship every frame it fills without releasing
    /// the buffer lock. Stamps are therefore taken in lock order and
    /// frames leave in stamp order, so the spool is sorted by `seq` and a
    /// streamed replay sees the same order as a loaded (sorted) one.
    fn on_batch(&self, evs: &[AccessEvent]) {
        let mut batch = self.batch.lock();
        let first = self.seq.fetch_add(evs.len() as u64, Ordering::Relaxed);
        for (seq, ev) in (first..).zip(evs) {
            batch.push(StampedEvent { seq, event: *ev });
            if batch.len() >= self.batch_events {
                let full = Vec::with_capacity(self.batch_events);
                self.send(std::mem::replace(&mut *batch, full));
            }
        }
    }

    fn flush(&self) {
        let mut batch = self.batch.lock();
        self.send(std::mem::take(&mut *batch));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AccessKind, FuncId, LoopId};
    use crate::trace_io::read_trace;
    use lc_faults::{FaultAction, FaultPlan, FaultRule, FaultSite};

    fn ev(i: u64) -> StampedEvent {
        StampedEvent {
            seq: i,
            event: AccessEvent {
                tid: (i % 4) as u32,
                addr: 0x2000 + i * 8,
                size: 8,
                kind: if i % 2 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                loop_id: LoopId((i % 3) as u32),
                parent_loop: LoopId::NONE,
                func: FuncId(2),
                site: i % 5,
            },
        }
    }

    fn sample(n: u64) -> Trace {
        Trace::new((0..n).map(ev).collect())
    }

    #[test]
    fn v2_roundtrips_through_read_trace() {
        let t = sample(100);
        let mut buf = Vec::new();
        write_trace_spool(&t, &mut buf, 7).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(back.len(), 100);
        for (a, b) in t.events().iter().zip(back.events()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn empty_v2_roundtrips() {
        let mut buf = Vec::new();
        write_trace_spool(&Trace::default(), &mut buf, 8).unwrap();
        assert_eq!(buf.len(), 8); // header only, no empty frame
        assert_eq!(read_trace(&buf[..]).unwrap().len(), 0);
    }

    #[test]
    fn truncation_is_strict_error_but_salvages_whole_frames() {
        let dir = std::env::temp_dir().join("lc_spool_trunc");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.lctrace");
        let t = sample(100);
        let mut buf = Vec::new();
        write_trace_spool(&t, &mut buf, 10).unwrap(); // 10 frames of 10
        let frame_bytes = FRAME_HEADER_BYTES + 10 * RECORD_BYTES;
        // Cut mid-way through the 8th frame.
        let cut = 8 + 7 * frame_bytes + frame_bytes / 2;
        std::fs::write(&path, &buf[..cut]).unwrap();
        assert!(read_trace(&buf[..cut]).is_err(), "strict read must fail");
        let (salvaged, report) = salvage_trace(&path).unwrap();
        assert_eq!(report.frames, 7);
        assert_eq!(salvaged.len(), 70, "exactly the complete frames");
        assert_eq!(report.events, 70);
        assert_eq!(report.bytes_dropped as usize, cut - 8 - 7 * frame_bytes);
        assert!(!report.intact());
        for (a, b) in t.events().iter().take(70).zip(salvaged.events()) {
            assert_eq!(a, b);
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn bit_flip_stops_salvage_at_the_damaged_frame() {
        let dir = std::env::temp_dir().join("lc_spool_flip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.lctrace");
        let t = sample(60);
        let mut buf = Vec::new();
        write_trace_spool(&t, &mut buf, 20).unwrap(); // 3 frames
        let frame_bytes = FRAME_HEADER_BYTES + 20 * RECORD_BYTES;
        // Flip one payload bit inside the second frame.
        buf[8 + frame_bytes + FRAME_HEADER_BYTES + 5] ^= 0x40;
        std::fs::write(&path, &buf).unwrap();
        let err = read_trace(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("CRC"), "{err}");
        let (salvaged, report) = salvage_trace(&path).unwrap();
        assert_eq!(report.frames, 1);
        assert_eq!(salvaged.len(), 20);
        assert!(report.bytes_dropped > 0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn intact_file_salvages_completely() {
        let dir = std::env::temp_dir().join("lc_spool_intact");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.lctrace");
        let t = sample(64);
        let mut buf = Vec::new();
        write_trace_spool(&t, &mut buf, 16).unwrap();
        std::fs::write(&path, &buf).unwrap();
        let (salvaged, report) = salvage_trace(&path).unwrap();
        assert!(report.intact());
        assert_eq!(report.frames, 4);
        assert_eq!(salvaged.len(), 64);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn truncated_v1_salvages_whole_records() {
        let dir = std::env::temp_dir().join("lc_spool_v1");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.lctrace");
        let t = sample(50);
        let mut buf = Vec::new();
        crate::trace_io::write_trace(&t, &mut buf).unwrap();
        // Cut mid-record: 30 whole records survive.
        let cut = 16 + 30 * RECORD_BYTES + 11;
        std::fs::write(&path, &buf[..cut]).unwrap();
        let (salvaged, report) = salvage_trace(&path).unwrap();
        assert_eq!(report.version, 1);
        assert_eq!(salvaged.len(), 30);
        assert_eq!(report.bytes_dropped, 11);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn spool_sink_records_and_finishes() {
        let dir = std::env::temp_dir().join("lc_spool_sink");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.lctrace");
        let sink = SpoolSink::create_with(&path, 16, None).unwrap();
        for i in 0..100u64 {
            sink.on_access(&ev(i).event);
        }
        let stats = sink.finish().unwrap();
        assert_eq!(stats.events, 100);
        // 6 full 16-event frames + the 4-event flush frame.
        assert_eq!(stats.frames, 7);
        let back = crate::trace_io::load_trace(&path).unwrap();
        assert_eq!(back.len(), 100);
        // Stamps are unique and dense.
        let seqs: Vec<u64> = back.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..100).collect::<Vec<_>>());
        assert!(matches!(sink.finish(), Err(SpoolError::AlreadyFinished)));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn spool_sink_survives_concurrent_recorders() {
        let dir = std::env::temp_dir().join("lc_spool_sink_mt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.lctrace");
        let sink = Arc::new(SpoolSink::create_with(&path, 32, None).unwrap());
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let sink = Arc::clone(&sink);
                s.spawn(move || {
                    for i in 0..250u64 {
                        sink.on_access(&ev(t * 1000 + i).event);
                    }
                });
            }
        });
        let stats = sink.finish().unwrap();
        assert_eq!(stats.events, 2000);
        // File order is stamp order, so a streamed replay (which cannot
        // sort) sees what a loaded one does.
        let mut seqs = Vec::new();
        crate::spool_v3::MmapTrace::open(&path)
            .unwrap()
            .stream_from(0, |evs| seqs.extend(evs.iter().map(|e| e.seq)))
            .unwrap();
        assert_eq!(seqs, (0..2000).collect::<Vec<_>>());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn injected_io_error_surfaces_as_typed_error_and_leaves_salvageable_prefix() {
        let dir = std::env::temp_dir().join("lc_spool_fault");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.lctrace");
        // The v3 header page is one write and each segment five (marker,
        // len, crc, payload, padding): the fault lands in segment 2.
        let inj = Arc::new(FaultInjector::new(FaultPlan {
            seed: 0,
            rules: vec![FaultRule::once(
                FaultSite::TraceWrite,
                FaultAction::IoError,
                7,
            )],
        }));
        let sink = SpoolSink::create_with(&path, 8, Some(inj)).unwrap();
        for i in 0..64u64 {
            sink.on_access(&ev(i).event);
        }
        let err = sink.finish().unwrap_err();
        assert!(
            matches!(&err, SpoolError::Io(e) if e.to_string().contains("injected")),
            "{err}"
        );
        assert!(sink.writer_dead());
        // The segment that made it out is salvageable, and nothing else.
        let (salvaged, report) = salvage_trace(&path).unwrap();
        assert_eq!(report.version, 3);
        assert_eq!(report.frames, 1);
        assert_eq!(salvaged.len(), 8, "only whole segments survive");
        std::fs::remove_dir_all(dir).ok();
    }

    /// One-frame batches [`fill_past_the_backlog`] hands to the sink.
    const FILL_FRAMES: u64 = BACKLOG_FRAMES as u64 + 4;
    const GATE_FRAME: u64 = 4;

    /// A byte sink slower than capture: every write after the first (the
    /// spool header) waits until the gate's sender is dropped.
    struct GatedWriter<W> {
        inner: W,
        gate: mpsc::Receiver<()>,
        writes: usize,
    }

    impl<W: Write> Write for GatedWriter<W> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            if self.writes > 1 {
                let _ = self.gate.recv(); // returns once the gate opens
            }
            self.inner.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    /// Spool [`FILL_FRAMES`] batches into `inner` from a producer thread
    /// while the gate is shut, check the producer blocks once one frame is
    /// stuck in the writer and `BACKLOG_FRAMES` wait in the channel, then
    /// open the gate and return the sink when the producer is done.
    fn fill_past_the_backlog(inner: impl Write + Send + 'static) -> Arc<SpoolSink> {
        let (open, gate) = mpsc::channel();
        let raw = GatedWriter {
            inner,
            gate,
            writes: 0,
        };
        let sink = Arc::new(SpoolSink::from_writer(Box::new(raw), GATE_FRAME as usize).unwrap());
        let handed = Arc::new(AtomicU64::new(0));
        let producer = {
            let (sink, handed) = (Arc::clone(&sink), Arc::clone(&handed));
            std::thread::spawn(move || {
                for f in 0..FILL_FRAMES {
                    let batch: Vec<AccessEvent> = (f * GATE_FRAME..(f + 1) * GATE_FRAME)
                        .map(|i| ev(i).event)
                        .collect();
                    sink.on_batch(&batch);
                    handed.fetch_add(1, Ordering::SeqCst);
                }
            })
        };
        let blocked_at = BACKLOG_FRAMES as u64 + 1;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while handed.load(Ordering::SeqCst) < blocked_at && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
        assert_eq!(
            handed.load(Ordering::SeqCst),
            blocked_at,
            "producer must block"
        );
        drop(open);
        producer.join().unwrap();
        sink
    }

    #[test]
    fn a_slow_writer_blocks_the_recorder_after_the_backlog_and_loses_nothing() {
        let dir = std::env::temp_dir().join("lc_spool_backlog");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.lctrace");
        let sink = fill_past_the_backlog(std::fs::File::create(&path).unwrap());
        assert_eq!(sink.finish().unwrap().frames, FILL_FRAMES);
        let back = crate::trace_io::load_trace(&path).unwrap();
        let got: Vec<AccessEvent> = back.events().iter().map(|e| e.event).collect();
        let want: Vec<AccessEvent> = (0..FILL_FRAMES * GATE_FRAME).map(|i| ev(i).event).collect();
        assert_eq!(got, want, "every event arrives");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn an_io_error_behind_a_full_backlog_is_an_error_not_a_hang() {
        // The header passes; the first frame's write fails once released.
        let inj = Arc::new(FaultInjector::new(FaultPlan {
            seed: 0,
            rules: vec![FaultRule::once(
                FaultSite::TraceWrite,
                FaultAction::IoError,
                1,
            )],
        }));
        let sink = fill_past_the_backlog(lc_faults::FaultyWriter::new(io::sink(), inj));
        assert!(sink.writer_dead());
        let err = sink.finish().unwrap_err();
        assert!(
            matches!(&err, SpoolError::Io(e) if e.to_string().contains("injected")),
            "{err}"
        );
    }
}
