//! # lc-trace — instrumentation substrate
//!
//! The stand-in for the paper's compile-time LLVM instrumentation (§IV-B/C).
//! Profiled programs are written against this crate's API:
//!
//! * [`TraceCtx`] — one profiled execution: event sink + loop UID registry
//!   (the "static analysis" results) + deterministic virtual address space.
//! * [`TracedBuffer`] — shared arrays whose every `load`/`store` emits the
//!   paper's instrumentation tuple (type, address, size, function, current
//!   loop UID, parent loop UID) before performing the access.
//! * [`loops`] — loop/function annotation: `LoopTable` registration and
//!   per-thread RAII nesting guards.
//! * [`runtime`] — registered thread spawning and an instrumented
//!   sense-reversing barrier.
//! * [`sink`] — event consumers: no-op, counting, recording, fan-out.
//! * [`tile`] — per-thread capture tiles: delayed, block-at-a-time
//!   delivery for sinks that accept it, drained at every instrumented
//!   synchronisation point.
//! * [`handoff`] — the one bounded hand-off between two threads: a ring
//!   of recycled buffers with close, panic-as-`Err` and join-on-drop.
//! * [`replay`] — temporally ordered traces for deterministic offline
//!   analysis.
//!
//! The profiler itself lives in `lc-profiler`; it is just another
//! [`AccessSink`].

#![warn(missing_docs)]

pub mod block_source;
pub mod crc;
pub mod ctx;
pub mod event;
pub mod handoff;
pub mod loops;
pub mod memory;
pub mod net;
pub mod registry;
pub mod replay;
pub mod runtime;
pub mod sink;
pub mod sites;
pub mod spool;
pub mod spool_v3;
pub mod tile;
pub mod trace_io;
pub mod wire;

pub use block_source::{AsAccess, BlockSource, EventBlock, FileBlockSource, TraceBlocks};
pub use crc::crc32;
pub use ctx::TraceCtx;
pub use event::{synth_event, AccessEvent, AccessKind, FuncId, LoopId, StampedEvent};
pub use loops::{enter_func, enter_loop, FuncGuard, LoopGuard, LoopTable};
pub use memory::{AddressSpace, TracedBuffer, Word};
pub use net::{connect_stream, stream_trace, NetSink, StreamStats};
pub use registry::{current_tid, try_current_tid, ThreadGuard};
pub use replay::{
    coalesce_events, CoalesceStats, ParReplayOptions, ParReplayStats, Trace, TraceStats,
    REPLAY_BATCH_EVENTS,
};
pub use runtime::{run_threads, InstrumentedBarrier};
pub use sink::{AccessSink, CountingSink, ForkSink, NoopSink, RecordingSink};
pub use sites::{site_location, SiteCounter, SiteTraffic};
pub use spool::{
    salvage_stream, salvage_trace, write_trace_spool, SalvageReport, SpoolError, SpoolSink,
    SpoolStats, SpoolWriter, DEFAULT_FRAME_EVENTS,
};
pub use spool_v3::{
    index_path, write_trace_spool_v3, MmapTrace, SegmentEntry, SegmentStream, SpoolV3Writer,
    V3Index, PAGE_BYTES, READ_AHEAD_BUFFERS,
};
pub use tile::flush_thread;
pub use trace_io::{load_trace, open_block_source, read_trace, write_trace};
pub use wire::{
    decode_hello, encode_hello, read_hello, valid_tenant, FrameDecoder, WireError, WireSummary,
};
