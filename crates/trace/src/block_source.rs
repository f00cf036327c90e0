//! Borrowed event blocks — the fused replay pipeline's input contract.
//!
//! The pre-fused offline path materialized every source into an in-RAM
//! [`Trace`] (decode → `Vec<StampedEvent>` → re-stamp → batch) before the
//! detector saw a single event. A [`BlockSource`] instead hands the
//! consumer *borrowed* event blocks straight out of whatever storage the
//! source already owns — contiguous slices of the SoA trace, or one
//! decoded v3 segment of reused scratch — so the decode→Vec→re-stamp→batch
//! copy chain disappears and resident memory stays bounded by one block
//! regardless of trace size.
//!
//! Blocks arrive in temporal order and block boundaries carry no meaning:
//! a correct consumer produces identical results for any split of the same
//! event sequence (the fused-replay differential suite pins this).

use std::io;
use std::path::Path;

use crate::event::{AccessEvent, StampedEvent};
use crate::replay::{Trace, REPLAY_BATCH_EVENTS};
use crate::spool_v3::MmapTrace;

/// One borrowed block of temporally ordered events.
///
/// Sources differ in what they physically store: the SoA [`Trace`] keeps
/// bare [`AccessEvent`]s (stamps live in a parallel array), while the v3
/// spool decodes to [`StampedEvent`]s. Re-packing either into the other
/// representation is exactly the materialization this abstraction removes,
/// so the block exposes both and consumers go through [`AsAccess`].
#[derive(Clone, Copy, Debug)]
pub enum EventBlock<'a> {
    /// Events without stamps — zero-copy slices of a [`Trace`].
    Plain(&'a [AccessEvent]),
    /// Stamped events — decoded spool segments.
    Stamped(&'a [StampedEvent]),
}

impl EventBlock<'_> {
    /// Events in this block.
    pub fn len(&self) -> usize {
        match self {
            EventBlock::Plain(evs) => evs.len(),
            EventBlock::Stamped(evs) => evs.len(),
        }
    }

    /// True when the block holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// View an event record as its [`AccessEvent`] — the currency every
/// detector consumes. Lets one monomorphized hot loop run over both
/// [`EventBlock`] representations without copying either into the other.
pub trait AsAccess {
    /// The access this record describes.
    fn access(&self) -> &AccessEvent;
}

impl AsAccess for AccessEvent {
    #[inline(always)]
    fn access(&self) -> &AccessEvent {
        self
    }
}

impl AsAccess for StampedEvent {
    #[inline(always)]
    fn access(&self) -> &AccessEvent {
        &self.event
    }
}

/// A resumable producer of borrowed, temporally ordered event blocks.
///
/// `stream_blocks` delivers every event from global offset `from` to the
/// end, in order, as borrowed [`EventBlock`]s, and returns how many events
/// it delivered. The borrow ends when the callback returns — sources may
/// (and do) reuse their decode scratch for the next block.
pub trait BlockSource {
    /// Total events this source holds, when cheaply known (the v3 index
    /// and the in-RAM trace both know; a pipe would not).
    fn len_hint(&self) -> Option<u64>;

    /// Stream blocks from event offset `from` to the end.
    fn stream_blocks(&mut self, from: u64, f: &mut dyn FnMut(EventBlock<'_>)) -> io::Result<u64>;
}

/// Zero-copy block view of an in-RAM [`Trace`]: blocks are `block_events`-
/// sized slices of the trace's own SoA storage.
pub struct TraceBlocks<'a> {
    trace: &'a Trace,
    block_events: usize,
}

impl<'a> TraceBlocks<'a> {
    /// Blocks of `block_events` (clamped to ≥ 1) over `trace`.
    pub fn new(trace: &'a Trace, block_events: usize) -> Self {
        Self {
            trace,
            block_events: block_events.max(1),
        }
    }
}

impl BlockSource for TraceBlocks<'_> {
    fn len_hint(&self) -> Option<u64> {
        Some(self.trace.len() as u64)
    }

    fn stream_blocks(&mut self, from: u64, f: &mut dyn FnMut(EventBlock<'_>)) -> io::Result<u64> {
        let events = self.trace.access_events();
        let from = (from as usize).min(events.len());
        for chunk in events[from..].chunks(self.block_events) {
            f(EventBlock::Plain(chunk));
        }
        Ok((events.len() - from) as u64)
    }
}

impl Trace {
    /// A [`BlockSource`] over this trace with `block_events`-sized blocks.
    pub fn block_source(&self, block_events: usize) -> TraceBlocks<'_> {
        TraceBlocks::new(self, block_events)
    }
}

impl BlockSource for MmapTrace {
    fn len_hint(&self) -> Option<u64> {
        Some(self.events())
    }

    fn stream_blocks(&mut self, from: u64, f: &mut dyn FnMut(EventBlock<'_>)) -> io::Result<u64> {
        // One decoded segment of reused scratch per block.
        self.stream_from(from, |evs| f(EventBlock::Stamped(evs)))
    }
}

/// A file-backed [`BlockSource`], picked by trace format: v3 spools are
/// read out of core a segment at a time; v1/v2 files (no index to seek
/// by) are loaded once and streamed zero-copy from RAM.
pub enum FileBlockSource {
    /// v1/v2 file, loaded into an in-RAM trace.
    Ram(Trace),
    /// v3 spool, read one segment at a time.
    Spool(MmapTrace),
}

impl FileBlockSource {
    /// Open `path` with the cheapest streaming view its format allows.
    pub fn open(path: &Path) -> io::Result<Self> {
        crate::trace_io::open_block_source(path)
    }

    /// Total events in the source.
    pub fn events(&self) -> u64 {
        match self {
            FileBlockSource::Ram(t) => t.len() as u64,
            FileBlockSource::Spool(m) => m.events(),
        }
    }
}

impl BlockSource for FileBlockSource {
    fn len_hint(&self) -> Option<u64> {
        Some(self.events())
    }

    fn stream_blocks(&mut self, from: u64, f: &mut dyn FnMut(EventBlock<'_>)) -> io::Result<u64> {
        match self {
            FileBlockSource::Ram(t) => {
                TraceBlocks::new(t, REPLAY_BATCH_EVENTS).stream_blocks(from, f)
            }
            FileBlockSource::Spool(m) => m.stream_blocks(from, f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AccessKind, FuncId, LoopId};
    use crate::spool_v3::write_trace_spool_v3;

    fn ev(i: u64) -> StampedEvent {
        StampedEvent {
            seq: i,
            event: AccessEvent {
                tid: (i % 4) as u32,
                addr: 0x9000 + i * 8,
                size: 8,
                kind: if i % 2 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                loop_id: LoopId((i % 3) as u32),
                parent_loop: LoopId::NONE,
                func: FuncId(1),
                site: 0,
            },
        }
    }

    fn collect(src: &mut dyn BlockSource, from: u64) -> Vec<AccessEvent> {
        let mut out = Vec::new();
        src.stream_blocks(from, &mut |b| match b {
            EventBlock::Plain(evs) => out.extend_from_slice(evs),
            EventBlock::Stamped(evs) => out.extend(evs.iter().map(|e| e.event)),
        })
        .unwrap();
        out
    }

    #[test]
    fn trace_blocks_are_zero_copy_and_complete() {
        let t = Trace::new((0..500).map(ev).collect());
        for block in [1usize, 7, 64, 1000] {
            let mut src = t.block_source(block);
            assert_eq!(src.len_hint(), Some(500));
            assert_eq!(collect(&mut src, 0), t.access_events());
            assert_eq!(collect(&mut src, 123), &t.access_events()[123..]);
            assert!(collect(&mut src, 500).is_empty());
        }
    }

    #[test]
    fn spool_and_ram_sources_agree_event_for_event() {
        let dir = std::env::temp_dir().join("lc_block_source_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.lcv3");
        let t = Trace::new((0..700).map(ev).collect());
        write_trace_spool_v3(&t, &path, 96).unwrap();
        let mut v3 = FileBlockSource::open(&path).unwrap();
        assert!(matches!(v3, FileBlockSource::Spool(_)));
        assert_eq!(collect(&mut v3, 0), t.access_events());
        assert_eq!(collect(&mut v3, 301), &t.access_events()[301..]);
        // A v1 file of the same trace opens as the RAM variant and agrees.
        let v1 = dir.join("t.lctrace");
        crate::trace_io::write_trace(&t, std::fs::File::create(&v1).unwrap()).unwrap();
        let mut ram = FileBlockSource::open(&v1).unwrap();
        assert!(matches!(ram, FileBlockSource::Ram(_)));
        assert_eq!(collect(&mut ram, 0), t.access_events());
        std::fs::remove_dir_all(dir).ok();
    }
}
