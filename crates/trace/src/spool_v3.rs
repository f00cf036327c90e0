//! Trace format v3 — a page-aligned, indexed, out-of-core spool.
//!
//! v2 made the failure domain one frame; v3 makes the *reader* out-of-core.
//! Every segment starts on a 4 KiB page boundary and a side-car index maps
//! event offsets (and therefore fixed-size phase windows) to pages, so the
//! segment reader ([`MmapTrace`]) can seek to any event in O(1) index
//! probes and replay a trace far larger than RAM with positioned reads, one
//! segment at a time: resident memory is one segment buffer plus its
//! decoded events, and the page cache belongs to the kernel.
//!
//! ```text
//! <path>            "LCTR" | version=3 | zero padding to 4096
//!                   repeated page-aligned segments:
//!                     "LCFR" | payload_len: u32 | crc32(payload): u32
//!                     | payload | zero padding to the next 4 KiB boundary
//!
//! <path>.idx        "LCIX" | version=3 | page_size: u32 | reserved: u32
//!                   | entry_count: u64 | total_events: u64
//!                   | entries: (page_no: u64, event_start: u64,
//!                               event_count: u32, payload_len: u32)*
//!                   | crc32 of everything after the magic
//! ```
//!
//! The payload is the same 41-byte record stream as v1/v2, and a segment is
//! exactly one v2 frame with page alignment — so v3 inherits the whole
//! salvage story: any prefix of whole segments is recoverable, and the
//! side-car index is *advisory*. A torn, stale, or missing index is
//! rebuilt exactly by scanning the segment headers ([`V3Index::rebuild`]),
//! which costs one pass over the frame headers (not the payloads). Index
//! writes go through the [`lc_faults::FaultSite::IndexWrite`] seam and are
//! atomic (temp + fsync + rename), so a crash mid-index-write leaves
//! either the old index or none — never a half-written one the reader
//! would trust.

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use lc_faults::{FaultInjector, FaultSite, FaultyWriter};

use crate::crc::crc32;
use crate::event::StampedEvent;
use crate::replay::Trace;
use crate::spool::{SalvageReport, SpoolStats, FRAME_HEADER_BYTES, FRAME_MAGIC, MAX_FRAME_PAYLOAD};
use crate::trace_io::{decode_event, encode_event, MAGIC, RECORD_BYTES, VERSION_V3};

/// Alignment unit for the v3 header and every segment.
pub const PAGE_BYTES: usize = 4096;
/// Side-car index magic: "LCIX".
const INDEX_MAGIC: [u8; 4] = *b"LCIX";
/// Fixed index prelude: magic, version, page_size, threads, entry count,
/// total events.
const INDEX_HEADER_BYTES: usize = 4 + 4 + 4 + 4 + 8 + 8;
/// One index entry: page_no, event_start, event_count, payload_len.
const INDEX_ENTRY_BYTES: usize = 24;

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Round `n` up to the next page boundary.
fn page_round_up(n: u64) -> u64 {
    n.div_ceil(PAGE_BYTES as u64) * PAGE_BYTES as u64
}

/// Fill `buf` from `file` at byte offset `off` without moving any shared
/// cursor; a file that ends first is `UnexpectedEof`.
#[cfg(unix)]
fn read_at(file: &File, buf: &mut [u8], off: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, off)
}

#[cfg(not(unix))]
fn read_at(file: &File, mut buf: &mut [u8], mut off: u64) -> io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match file.seek_read(buf, off) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                buf = &mut buf[n..];
                off += n as u64;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Check that `file` opens with a whole v3 header page; returns its length.
fn check_v3_header(file: &File) -> io::Result<u64> {
    let len = file.metadata()?.len();
    let mut head = [0u8; 8];
    if len < PAGE_BYTES as u64 || read_at(file, &mut head, 0).is_err() || head[0..4] != MAGIC {
        return Err(bad_data("not a loopcomm v3 spool (bad magic)".into()));
    }
    let version = u32::from_le_bytes(head[4..8].try_into().unwrap());
    if version != VERSION_V3 {
        return Err(bad_data(format!(
            "not a v3 spool (file is version {version})"
        )));
    }
    Ok(len)
}

/// Where a spool's side-car index lives: `<path>.idx` appended to the
/// full file name (`trace.lcv3` → `trace.lcv3.idx`).
pub fn index_path(spool: &Path) -> PathBuf {
    let mut name = spool.as_os_str().to_os_string();
    name.push(".idx");
    PathBuf::from(name)
}

/// One segment's index record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentEntry {
    /// File page the segment header starts on (`byte offset / 4096`).
    pub page_no: u64,
    /// Global offset of the segment's first event.
    pub event_start: u64,
    /// Events in the segment.
    pub event_count: u32,
    /// Payload bytes (`event_count * 41`).
    pub payload_len: u32,
}

/// The side-car index: a page map from event offsets to segments.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct V3Index {
    /// Per-segment records in file order.
    pub entries: Vec<SegmentEntry>,
    /// Total events across all segments.
    pub total_events: u64,
    /// Recorder thread count (`max tid + 1`) as a replay hint, so an
    /// analyzer can size its matrices without a full pre-scan of the
    /// spool. 0 = unknown (a header-only [`V3Index::rebuild`] cannot
    /// recover it; readers must fall back to scanning).
    pub threads: u32,
}

impl V3Index {
    /// Serialize (magic + header + entries + trailing CRC of everything
    /// after the magic).
    pub fn encode(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(INDEX_HEADER_BYTES + self.entries.len() * INDEX_ENTRY_BYTES + 4);
        out.extend_from_slice(&INDEX_MAGIC);
        out.extend_from_slice(&VERSION_V3.to_le_bytes());
        out.extend_from_slice(&(PAGE_BYTES as u32).to_le_bytes());
        out.extend_from_slice(&self.threads.to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.total_events.to_le_bytes());
        for e in &self.entries {
            out.extend_from_slice(&e.page_no.to_le_bytes());
            out.extend_from_slice(&e.event_start.to_le_bytes());
            out.extend_from_slice(&e.event_count.to_le_bytes());
            out.extend_from_slice(&e.payload_len.to_le_bytes());
        }
        let crc = crc32(&out[4..]);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parse an encoded index, verifying magic, version, geometry, the
    /// trailing CRC, and that the entries tile the spool: pages and event
    /// offsets are running sums, `payload_len == event_count * 41`, and
    /// the counts add up to `total_events`.
    pub fn decode(bytes: &[u8]) -> io::Result<Self> {
        if bytes.len() < INDEX_HEADER_BYTES + 4 {
            return Err(bad_data(format!("index too short ({} bytes)", bytes.len())));
        }
        if bytes[0..4] != INDEX_MAGIC {
            return Err(bad_data("bad index magic (not LCIX)".into()));
        }
        let body = &bytes[..bytes.len() - 4];
        let want_crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        let crc = crc32(&body[4..]);
        if crc != want_crc {
            return Err(bad_data(format!(
                "index CRC mismatch (stored {want_crc:#010x}, computed {crc:#010x})"
            )));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != VERSION_V3 {
            return Err(bad_data(format!("unsupported index version {version}")));
        }
        let page_size = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if page_size as usize != PAGE_BYTES {
            return Err(bad_data(format!("unsupported index page size {page_size}")));
        }
        let threads = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        let entry_count = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        let total_events = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
        let entry_bytes = (body.len() - INDEX_HEADER_BYTES) as u64;
        if entry_count.checked_mul(INDEX_ENTRY_BYTES as u64) != Some(entry_bytes) {
            return Err(bad_data(format!(
                "index entry count {entry_count} does not match its {} body bytes",
                body.len()
            )));
        }
        // A CRC only proves the bytes are the ones that were written, not
        // that they describe a spool: every entry must be the one
        // `rebuild` would derive from the segment before it, because
        // seek/stream index with these numbers unchecked.
        let mut entries = Vec::with_capacity(entry_count as usize);
        let mut next_page = 1u64;
        let mut next_event = 0u64;
        for (i, chunk) in body[INDEX_HEADER_BYTES..]
            .chunks_exact(INDEX_ENTRY_BYTES)
            .enumerate()
        {
            let e = SegmentEntry {
                page_no: u64::from_le_bytes(chunk[0..8].try_into().unwrap()),
                event_start: u64::from_le_bytes(chunk[8..16].try_into().unwrap()),
                event_count: u32::from_le_bytes(chunk[16..20].try_into().unwrap()),
                payload_len: u32::from_le_bytes(chunk[20..24].try_into().unwrap()),
            };
            if e.payload_len == 0
                || e.payload_len > MAX_FRAME_PAYLOAD
                || e.payload_len as u64 != e.event_count as u64 * RECORD_BYTES as u64
                || e.event_start != next_event
                || e.page_no != next_page
            {
                return Err(bad_data(format!(
                    "index entry {i} is inconsistent with its predecessors: {e:?}"
                )));
            }
            next_event += e.event_count as u64;
            // Segments start page-aligned, so whole pages suffice.
            let seg_bytes = FRAME_HEADER_BYTES as u64 + e.payload_len as u64;
            next_page += page_round_up(seg_bytes) / PAGE_BYTES as u64;
            entries.push(e);
        }
        if next_event != total_events {
            return Err(bad_data(format!(
                "index claims {total_events} events but its entries hold {next_event}"
            )));
        }
        Ok(Self {
            entries,
            total_events,
            threads,
        })
    }

    /// Which segment holds global event `offset` (None when past the end).
    ///
    /// Segments written by one [`SpoolV3Writer`] run are uniform, so a
    /// direct probe (`offset / events_per_segment`) lands on the right
    /// entry in O(1); a linear fixup covers the writer's final short
    /// segment or hand-built irregular spools.
    pub fn segment_for_event(&self, offset: u64) -> Option<usize> {
        if offset >= self.total_events || self.entries.is_empty() {
            return None;
        }
        let per = self.entries[0].event_count.max(1) as u64;
        let mut i = ((offset / per) as usize).min(self.entries.len() - 1);
        while self.entries[i].event_start > offset {
            i -= 1;
        }
        while i + 1 < self.entries.len() && self.entries[i + 1].event_start <= offset {
            i += 1;
        }
        Some(i)
    }

    /// The file page holding global event `offset` (the index's purpose:
    /// O(1) event-offset → page).
    pub fn page_for_event(&self, offset: u64) -> Option<u64> {
        self.segment_for_event(offset)
            .map(|i| self.entries[i].page_no)
    }

    /// Inclusive page range covering fixed-size phase window `w` (events
    /// `[w * window_events, (w + 1) * window_events)`), or None when the
    /// window starts past the end of the spool.
    pub fn pages_for_window(&self, window_events: u64, w: u64) -> Option<(u64, u64)> {
        let start = w.checked_mul(window_events)?;
        let first = self.page_for_event(start)?;
        let last_event = (start + window_events - 1).min(self.total_events.saturating_sub(1));
        let last = self.page_for_event(last_event)?;
        Some((first, last))
    }

    /// Write the index for `spool` atomically: temp file, fsync, rename.
    /// All bytes pass through the [`FaultSite::IndexWrite`] seam when an
    /// injector is armed, so torn-index recovery is exercisable on demand.
    pub fn write_atomic(
        &self,
        spool: &Path,
        faults: Option<&Arc<FaultInjector>>,
    ) -> io::Result<()> {
        let final_path = index_path(spool);
        let mut tmp = final_path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let bytes = self.encode();
        let file = File::create(&tmp)?;
        match faults {
            Some(inj) => {
                let mut w = FaultyWriter::with_site(file, Arc::clone(inj), FaultSite::IndexWrite);
                w.write_all(&bytes)?;
                w.flush()?;
                w.get_ref().sync_all()?;
            }
            None => {
                let mut w = &file;
                w.write_all(&bytes)?;
                file.sync_all()?;
            }
        }
        std::fs::rename(&tmp, &final_path)
    }

    /// Load and verify `spool`'s side-car index.
    pub fn load(spool: &Path) -> io::Result<Self> {
        Self::decode(&std::fs::read(index_path(spool))?)
    }

    /// Rebuild the index exactly by reading each segment header of the v3
    /// spool `file` in place. Damage past the last whole segment is
    /// ignored — the same longest-valid-prefix contract as salvage. Only
    /// headers are read; payload CRCs are left to the readers that
    /// actually decode.
    pub fn rebuild(file: &File) -> io::Result<Self> {
        let len = check_v3_header(file)?;
        let mut index = V3Index::default();
        let mut pos = PAGE_BYTES as u64;
        let mut h = [0u8; FRAME_HEADER_BYTES];
        while pos + FRAME_HEADER_BYTES as u64 <= len && read_at(file, &mut h, pos).is_ok() {
            if h[0..4] != FRAME_MAGIC {
                break;
            }
            let payload_len = u32::from_le_bytes(h[4..8].try_into().unwrap());
            if payload_len > MAX_FRAME_PAYLOAD
                || payload_len as usize % RECORD_BYTES != 0
                || payload_len == 0
            {
                break;
            }
            let seg_end = pos + (FRAME_HEADER_BYTES as u64) + payload_len as u64;
            if seg_end > len {
                break; // torn final segment
            }
            let event_count = (payload_len as usize / RECORD_BYTES) as u32;
            index.entries.push(SegmentEntry {
                page_no: pos / PAGE_BYTES as u64,
                event_start: index.total_events,
                event_count,
                payload_len,
            });
            index.total_events += event_count as u64;
            pos = page_round_up(seg_end);
        }
        Ok(index)
    }
}

/// Incremental v3 writer: one page-aligned durable segment per
/// [`SpoolV3Writer::append_frame`] call, side-car index written atomically
/// on [`SpoolV3Writer::finish`].
pub struct SpoolV3Writer {
    w: Box<dyn Write + Send>,
    path: PathBuf,
    faults: Option<Arc<FaultInjector>>,
    payload: Vec<u8>,
    pos: u64,
    index: V3Index,
    stats: SpoolStats,
}

impl SpoolV3Writer {
    /// Create `path` and write the v3 header page.
    pub fn create(path: &Path) -> io::Result<Self> {
        Self::create_with(path, None)
    }

    /// [`Self::create`] with data writes routed through the
    /// [`FaultSite::TraceWrite`] seam and the index through
    /// [`FaultSite::IndexWrite`].
    pub fn create_with(path: &Path, faults: Option<Arc<FaultInjector>>) -> io::Result<Self> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let file = File::create(path)?;
        let mut w: Box<dyn Write + Send> = match &faults {
            Some(inj) => Box::new(FaultyWriter::new(file, Arc::clone(inj))),
            None => Box::new(file),
        };
        let mut header = [0u8; PAGE_BYTES];
        header[0..4].copy_from_slice(&MAGIC);
        header[4..8].copy_from_slice(&VERSION_V3.to_le_bytes());
        w.write_all(&header)?;
        w.flush()?;
        Ok(Self {
            w,
            path: path.to_path_buf(),
            faults,
            payload: Vec::new(),
            pos: PAGE_BYTES as u64,
            index: V3Index::default(),
            stats: SpoolStats {
                frames: 0,
                events: 0,
                bytes: PAGE_BYTES as u64,
            },
        })
    }

    /// Append `events` as one page-aligned durable segment (no-op when
    /// empty). The segment is flushed before returning.
    pub fn append_frame(&mut self, events: &[StampedEvent]) -> io::Result<()> {
        if events.is_empty() {
            return Ok(());
        }
        self.payload.clear();
        for e in events {
            // Saturating: a wild `tid == u32::MAX` must not wrap the hint
            // to 0 (release) or panic the writer (debug).
            self.index.threads = self.index.threads.max(e.event.tid.saturating_add(1));
            encode_event(e, &mut self.payload);
        }
        let crc = crc32(&self.payload);
        self.w.write_all(&FRAME_MAGIC)?;
        self.w
            .write_all(&(self.payload.len() as u32).to_le_bytes())?;
        self.w.write_all(&crc.to_le_bytes())?;
        self.w.write_all(&self.payload)?;
        let seg_end = self.pos + (FRAME_HEADER_BYTES + self.payload.len()) as u64;
        let padded_end = page_round_up(seg_end);
        let pad = (padded_end - seg_end) as usize;
        if pad > 0 {
            self.w.write_all(&vec![0u8; pad])?;
        }
        self.w.flush()?;
        self.index.entries.push(SegmentEntry {
            page_no: self.pos / PAGE_BYTES as u64,
            event_start: self.index.total_events,
            event_count: events.len() as u32,
            payload_len: self.payload.len() as u32,
        });
        self.index.total_events += events.len() as u64;
        self.stats.frames += 1;
        self.stats.events += events.len() as u64;
        self.stats.bytes = padded_end;
        self.pos = padded_end;
        Ok(())
    }

    /// Events written so far.
    pub fn events(&self) -> u64 {
        self.index.total_events
    }

    /// Flush, write the side-car index atomically, and return the stats.
    pub fn finish(mut self) -> io::Result<SpoolStats> {
        self.w.flush()?;
        self.index.write_atomic(&self.path, self.faults.as_ref())?;
        Ok(self.stats)
    }
}

/// Serialize a whole trace as a v3 spool (segments of `frame_events`).
pub fn write_trace_spool_v3(
    trace: &Trace,
    path: &Path,
    frame_events: usize,
) -> io::Result<SpoolStats> {
    assert!(frame_events >= 1, "frame_events must be at least 1");
    let mut w = SpoolV3Writer::create(path)?;
    for chunk in trace.events().chunks(frame_events) {
        w.append_frame(chunk)?;
    }
    w.finish()
}

/// Core v3 segment reader over any byte stream; the 8-byte prelude has
/// been consumed. Strict mode errors on any damage; salvage mode keeps
/// the longest valid prefix of whole segments and counts the rest as
/// dropped.
pub(crate) fn read_v3_stream<R: Read>(
    r: &mut R,
    salvage: bool,
) -> io::Result<(Trace, SalvageReport)> {
    let mut events = Vec::new();
    let mut report = SalvageReport {
        version: VERSION_V3,
        ..SalvageReport::default()
    };
    // Consume the rest of the header page.
    let mut pad = vec![0u8; PAGE_BYTES - 8];
    let got = read_up_to(r, &mut pad)?;
    if got < pad.len() {
        if salvage {
            report.bytes_dropped = got as u64;
            report.events = 0;
            return Ok((Trace::new(events), report));
        }
        return Err(bad_data(format!("torn v3 header page ({} bytes)", 8 + got)));
    }
    let mut pos = PAGE_BYTES as u64;
    let mut header = [0u8; FRAME_HEADER_BYTES];
    loop {
        let got = read_up_to(r, &mut header)?;
        if got == 0 {
            break; // clean end at a page boundary
        }
        let fail = |msg: String,
                    consumed: u64,
                    r: &mut R,
                    report: &mut SalvageReport|
         -> io::Result<bool> {
            if !salvage {
                return Err(bad_data(msg));
            }
            let mut rest = Vec::new();
            r.read_to_end(&mut rest)?;
            report.bytes_dropped = consumed + rest.len() as u64;
            Ok(true)
        };
        if got < FRAME_HEADER_BYTES
            && fail(
                format!("torn segment header ({got} of {FRAME_HEADER_BYTES} bytes)"),
                got as u64,
                r,
                &mut report,
            )?
        {
            break;
        }
        if header[0..4] != FRAME_MAGIC
            && fail(
                "bad segment marker (not LCFR)".to_string(),
                got as u64,
                r,
                &mut report,
            )?
        {
            break;
        }
        let payload_len = u32::from_le_bytes(header[4..8].try_into().unwrap());
        let want_crc = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if (payload_len > MAX_FRAME_PAYLOAD
            || payload_len as usize % RECORD_BYTES != 0
            || payload_len == 0)
            && fail(
                format!("implausible segment payload length {payload_len}"),
                got as u64,
                r,
                &mut report,
            )?
        {
            break;
        }
        let seg_bytes = FRAME_HEADER_BYTES as u64 + payload_len as u64;
        let padded = page_round_up(pos + seg_bytes) - pos;
        let mut body = vec![0u8; (padded as usize) - FRAME_HEADER_BYTES];
        let bgot = read_up_to(r, &mut body)?;
        if (bgot as u64) < payload_len as u64
            && fail(
                format!("torn segment payload ({bgot} of {payload_len} bytes)"),
                got as u64 + bgot as u64,
                r,
                &mut report,
            )?
        {
            break;
        }
        let payload = &body[..payload_len as usize];
        let crc = crc32(payload);
        if crc != want_crc
            && fail(
                format!("segment CRC mismatch (stored {want_crc:#010x}, computed {crc:#010x})"),
                got as u64 + bgot as u64,
                r,
                &mut report,
            )?
        {
            break;
        }
        // A short read of the trailing *padding* alone (file truncated
        // after a complete payload) still yields a whole, valid segment.
        let n = payload.len() / RECORD_BYTES;
        events.reserve(n);
        let mut decode_failed = false;
        for chunk in payload.chunks_exact(RECORD_BYTES) {
            let rec: &[u8; RECORD_BYTES] = chunk.try_into().unwrap();
            match decode_event(rec) {
                Ok(e) => events.push(e),
                Err(e) => {
                    if !salvage {
                        return Err(e);
                    }
                    let mut rest = Vec::new();
                    r.read_to_end(&mut rest)?;
                    report.bytes_dropped = got as u64 + bgot as u64 + rest.len() as u64;
                    decode_failed = true;
                    break;
                }
            }
        }
        if decode_failed {
            break;
        }
        report.frames += 1;
        pos += padded;
    }
    report.events = events.len() as u64;
    Ok((Trace::new(events), report))
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

/// A v3 spool read with positioned reads: O(1) seek by event offset
/// through the side-car index, then one segment at a time — header and
/// payload in one read into a reused buffer, CRC-checked and decoded into
/// reused scratch — so resident memory is one segment whatever the spool
/// size, and the page cache stays the kernel's. A file that shrinks under
/// the reader is an error at the first segment past its end.
///
/// The type once mapped the file. It keeps its name only because the
/// benchmark under `benchmark/` names it.
pub struct MmapTrace {
    file: File,
    /// File length at open; no segment the index places past it is read.
    len: u64,
    index: V3Index,
    rebuilt: bool,
}

impl MmapTrace {
    /// Open `path` and load (or rebuild) its index. A missing, torn, or
    /// corrupt side-car index is rebuilt exactly from the segment headers
    /// and re-written best-effort, so recovery is a one-time cost.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = File::open(path)?;
        let len = check_v3_header(&file)?;
        let (index, rebuilt) = match V3Index::load(path) {
            Ok(ix) if Self::index_plausible(&ix, &file, len) => (ix, false),
            _ => {
                let ix = V3Index::rebuild(&file)?;
                // Best-effort repair; the in-memory index is already good.
                let _ = ix.write_atomic(path, None);
                (ix, true)
            }
        };
        Ok(Self {
            file,
            len,
            index,
            rebuilt,
        })
    }

    /// Cheap staleness check: every entry must point at an in-bounds page
    /// whose header matches the entry. Catches an index from a different
    /// or older file without reading payloads.
    fn index_plausible(ix: &V3Index, file: &File, len: u64) -> bool {
        let mut header = [0u8; FRAME_HEADER_BYTES];
        ix.entries.iter().all(|e| {
            let off = e.page_no * PAGE_BYTES as u64;
            off + FRAME_HEADER_BYTES as u64 <= len
                && read_at(file, &mut header, off).is_ok()
                && header[0..4] == FRAME_MAGIC
                && u32::from_le_bytes(header[4..8].try_into().unwrap()) == e.payload_len
        })
    }

    /// True when the side-car index was missing/damaged and got rebuilt.
    pub fn index_rebuilt(&self) -> bool {
        self.rebuilt
    }

    /// The index (page map) backing this view.
    pub fn index(&self) -> &V3Index {
        &self.index
    }

    /// Total events in the spool.
    pub fn events(&self) -> u64 {
        self.index.total_events
    }

    /// Number of segments.
    pub fn segments(&self) -> usize {
        self.index.entries.len()
    }

    /// Read segment `i` into `buf`, CRC-verify it and decode it into `out`
    /// (cleared first).
    fn decode_segment(
        &self,
        i: usize,
        buf: &mut Vec<u8>,
        out: &mut Vec<StampedEvent>,
    ) -> io::Result<()> {
        out.clear();
        let e = self.index.entries[i];
        let off = e.page_no * PAGE_BYTES as u64;
        let seg_len = FRAME_HEADER_BYTES + e.payload_len as usize;
        let past_end = || bad_data(format!("segment {i} extends past end of file"));
        // Checked before the buffer grows, so an index that names a huge
        // segment cannot make the reader allocate it.
        if off + seg_len as u64 > self.len {
            return Err(past_end());
        }
        buf.resize(seg_len, 0);
        read_at(&self.file, buf, off).map_err(|err| match err.kind() {
            io::ErrorKind::UnexpectedEof => past_end(),
            _ => err,
        })?;
        let (header, payload) = buf.split_at(FRAME_HEADER_BYTES);
        if header[0..4] != FRAME_MAGIC {
            return Err(bad_data(format!("segment {i}: bad marker")));
        }
        let want_crc = u32::from_le_bytes(header[8..12].try_into().unwrap());
        let crc = crc32(payload);
        if crc != want_crc {
            return Err(bad_data(format!(
                "segment {i} CRC mismatch (stored {want_crc:#010x}, computed {crc:#010x})"
            )));
        }
        out.reserve(payload.len() / RECORD_BYTES);
        for chunk in payload.chunks_exact(RECORD_BYTES) {
            let rec: &[u8; RECORD_BYTES] = chunk.try_into().unwrap();
            out.push(decode_event(rec)?);
        }
        Ok(())
    }

    /// O(1) seek: which segment holds global event `offset`, and how many
    /// events into that segment it sits.
    pub fn seek(&self, offset: u64) -> Option<(usize, usize)> {
        let i = self.index.segment_for_event(offset)?;
        Some((i, (offset - self.index.entries[i].event_start) as usize))
    }

    /// Stream events from global offset `from` to the end, one decoded
    /// segment at a time. Returns the events delivered.
    pub fn stream_from<F: FnMut(&[StampedEvent])>(&self, from: u64, mut f: F) -> io::Result<u64> {
        let Some((first, skip)) = self.seek(from) else {
            return Ok(0);
        };
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        let mut delivered = 0u64;
        for i in first..self.index.entries.len() {
            self.decode_segment(i, &mut buf, &mut scratch)?;
            let events = &scratch[if i == first { skip } else { 0 }..];
            delivered += events.len() as u64;
            f(events);
        }
        Ok(delivered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AccessEvent, AccessKind, FuncId, LoopId};
    use crate::spool::salvage_trace;
    use crate::trace_io::load_trace;

    fn ev(i: u64) -> StampedEvent {
        StampedEvent {
            seq: i,
            event: AccessEvent {
                tid: (i % 4) as u32,
                addr: 0x3000 + i * 8,
                size: 8,
                kind: if i % 2 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                loop_id: LoopId((i % 3) as u32),
                parent_loop: LoopId::NONE,
                func: FuncId(1),
                site: i % 9,
            },
        }
    }

    fn sample(n: u64) -> Trace {
        Trace::new((0..n).map(ev).collect())
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lc_v3_{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("t.lcv3")
    }

    #[test]
    fn v3_roundtrips_and_is_page_aligned() {
        let path = tmp("roundtrip");
        let t = sample(1000);
        let stats = write_trace_spool_v3(&t, &path, 128).unwrap();
        assert_eq!(stats.events, 1000);
        assert_eq!(stats.frames, 8);
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(len % PAGE_BYTES as u64, 0, "file is page-aligned");
        let back = load_trace(&path).unwrap();
        assert_eq!(back.len(), 1000);
        for (a, b) in t.events().iter().zip(back.events()) {
            assert_eq!(a, b);
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn index_roundtrips_and_seeks() {
        let path = tmp("index");
        write_trace_spool_v3(&sample(1000), &path, 96).unwrap();
        let ix = V3Index::load(&path).unwrap();
        assert_eq!(ix.total_events, 1000);
        assert_eq!(ix.entries.len(), 1000usize.div_ceil(96));
        for off in [0u64, 1, 95, 96, 500, 999] {
            let i = ix.segment_for_event(off).unwrap();
            let e = ix.entries[i];
            assert!(e.event_start <= off && off < e.event_start + e.event_count as u64);
        }
        assert_eq!(ix.segment_for_event(1000), None);
        assert!(ix.pages_for_window(100, 0).is_some());
        assert_eq!(ix.pages_for_window(100, 10), None);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn reader_streams_and_seeks() {
        let path = tmp("stream");
        let t = sample(2500);
        write_trace_spool_v3(&t, &path, 64).unwrap();
        let m = MmapTrace::open(&path).unwrap();
        assert!(!m.index_rebuilt());
        assert_eq!(m.events(), 2500);
        let mut streamed = Vec::new();
        let n = m
            .stream_from(0, |evs| streamed.extend_from_slice(evs))
            .unwrap();
        assert_eq!(n, 2500);
        assert_eq!(&streamed[..], t.events());
        // Seek mid-stream.
        let mut tail = Vec::new();
        m.stream_from(1234, |evs| tail.extend_from_slice(evs))
            .unwrap();
        assert_eq!(&tail[..], &t.events()[1234..]);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn torn_index_is_rebuilt_exactly() {
        let path = tmp("torn_index");
        write_trace_spool_v3(&sample(800), &path, 100).unwrap();
        let good = V3Index::load(&path).unwrap();
        // Tear the side-car: truncate it mid-entries.
        let ix_path = index_path(&path);
        let bytes = std::fs::read(&ix_path).unwrap();
        std::fs::write(&ix_path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(V3Index::load(&path).is_err());
        let m = MmapTrace::open(&path).unwrap();
        assert!(m.index_rebuilt());
        // The page map is recovered exactly; the threads hint is not
        // derivable from headers alone and resets to unknown.
        assert_eq!(m.index().entries, good.entries, "rebuild is exact");
        assert_eq!(m.index().total_events, good.total_events);
        assert!(good.threads > 0);
        assert_eq!(m.index().threads, 0);
        // open() repaired the side-car on disk.
        assert_eq!(&V3Index::load(&path).unwrap(), m.index());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn crc_valid_but_inconsistent_index_is_rebuilt_not_trusted() {
        type Craft = fn(&mut V3Index);
        let crafts: [(&str, Craft); 6] = [
            // segment_for_event walked `i -= 1` below zero.
            ("event_start", |ix| ix.entries[0].event_start = 5),
            // stream_from sliced `&scratch[skip..]` past the decoded events.
            ("event_count", |ix| ix.entries[0].event_count = 7),
            ("payload_len", |ix| ix.entries[1].payload_len -= 1),
            ("empty segment", |ix| {
                ix.entries[2].payload_len = 0;
                ix.entries[2].event_count = 0;
            }),
            ("page_no", |ix| ix.entries[1].page_no = u64::MAX / 2),
            ("total_events", |ix| ix.total_events += 1),
        ];
        let t = sample(300);
        for (what, craft) in crafts {
            let path = tmp(&format!("crafted_{}", what.replace(' ', "_")));
            write_trace_spool_v3(&t, &path, 100).unwrap();
            let mut ix = V3Index::load(&path).unwrap();
            craft(&mut ix);
            // `encode` seals the crafted body with a correct CRC.
            std::fs::write(index_path(&path), ix.encode()).unwrap();
            let m = MmapTrace::open(&path).unwrap();
            let mut streamed = Vec::new();
            m.stream_from(0, |evs| streamed.extend_from_slice(evs))
                .unwrap();
            assert_eq!(&streamed[..], t.events(), "{what}");
            let mut tail = Vec::new();
            m.stream_from(3, |evs| tail.extend_from_slice(evs)).unwrap();
            assert_eq!(&tail[..], &t.events()[3..], "{what}");
            assert!(m.index_rebuilt(), "{what}");
            assert!(V3Index::decode(&ix.encode()).is_err(), "{what}");
            std::fs::remove_dir_all(path.parent().unwrap()).ok();
        }
    }

    #[test]
    fn missing_index_is_rebuilt() {
        let path = tmp("no_index");
        write_trace_spool_v3(&sample(300), &path, 50).unwrap();
        std::fs::remove_file(index_path(&path)).unwrap();
        let m = MmapTrace::open(&path).unwrap();
        assert!(m.index_rebuilt());
        assert_eq!(m.events(), 300);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn threads_hint_saturates_on_a_wild_tid() {
        let path = tmp("wild_tid");
        let mut wild = ev(0);
        wild.event.tid = u32::MAX;
        let mut w = SpoolV3Writer::create(&path).unwrap();
        w.append_frame(&[ev(1), wild]).unwrap();
        w.finish().unwrap();
        assert_eq!(V3Index::load(&path).unwrap().threads, u32::MAX);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn stale_index_from_other_file_is_detected_and_rebuilt() {
        let path = tmp("stale_index");
        write_trace_spool_v3(&sample(500), &path, 64).unwrap();
        // Overwrite the spool with a differently-framed one, keeping the
        // old (now stale) index.
        let ix = std::fs::read(index_path(&path)).unwrap();
        write_trace_spool_v3(&sample(500), &path, 48).unwrap();
        std::fs::write(index_path(&path), &ix).unwrap();
        let m = MmapTrace::open(&path).unwrap();
        assert!(m.index_rebuilt());
        assert_eq!(m.segments(), 500usize.div_ceil(48));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn truncated_v3_salvages_whole_segments() {
        let path = tmp("trunc");
        let t = sample(1000);
        write_trace_spool_v3(&t, &path, 100).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Cut inside the 8th segment's pages.
        let e7 = V3Index::load(&path).unwrap().entries[7];
        let cut = e7.page_no as usize * PAGE_BYTES + FRAME_HEADER_BYTES + 57;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        std::fs::remove_file(index_path(&path)).unwrap();
        let (salvaged, report) = salvage_trace(&path).unwrap();
        assert_eq!(report.version, 3);
        assert_eq!(report.frames, 7);
        assert_eq!(salvaged.len(), 700);
        assert!(report.bytes_dropped > 0);
        for (a, b) in t.events().iter().take(700).zip(salvaged.events()) {
            assert_eq!(a, b);
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn bit_flip_in_v3_payload_stops_salvage_at_damage() {
        let path = tmp("flip");
        write_trace_spool_v3(&sample(300), &path, 100).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let e1 = V3Index::load(&path).unwrap().entries[1];
        bytes[e1.page_no as usize * PAGE_BYTES + FRAME_HEADER_BYTES + 3] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_trace(&path).is_err(), "strict read must fail");
        let (salvaged, report) = salvage_trace(&path).unwrap();
        assert_eq!(report.frames, 1);
        assert_eq!(salvaged.len(), 100);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn index_write_fault_leaves_spool_recoverable() {
        use lc_faults::{FaultAction, FaultPlan, FaultRule};
        let path = tmp("ix_fault");
        let inj = Arc::new(FaultInjector::new(FaultPlan {
            seed: 0,
            rules: vec![FaultRule::once(
                FaultSite::IndexWrite,
                FaultAction::ShortWrite { bytes: 10 },
                0,
            )],
        }));
        let t = sample(400);
        let mut w = SpoolV3Writer::create_with(&path, Some(inj)).unwrap();
        for chunk in t.events().chunks(64) {
            w.append_frame(chunk).unwrap();
        }
        // The index write faults; the data segments are already durable.
        assert!(w.finish().is_err());
        assert!(
            !index_path(&path).exists(),
            "atomic write: no torn index visible at the final path"
        );
        let m = MmapTrace::open(&path).unwrap();
        assert!(m.index_rebuilt());
        assert_eq!(m.events(), 400);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn empty_v3_roundtrips() {
        let path = tmp("empty");
        let stats = write_trace_spool_v3(&Trace::default(), &path, 16).unwrap();
        assert_eq!(stats.frames, 0);
        assert_eq!(load_trace(&path).unwrap().len(), 0);
        let m = MmapTrace::open(&path).unwrap();
        assert_eq!(m.events(), 0);
        assert_eq!(m.stream_from(0, |_| panic!("no events")).unwrap(), 0);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
