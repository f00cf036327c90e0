//! Per-thread capture tiles: live accesses delivered a block at a time.
//!
//! A sink that declares [`AccessSink::accepts_tiles`] does not see a
//! traced load or store when it happens. Each registered thread buffers
//! its accesses in a thread-local tile of up to [`TILE_EVENTS`] events and
//! hands the whole tile to the sink in one [`AccessSink::on_batch`] call,
//! so the sink's per-call costs (dyn dispatch, counter atomics, hashing,
//! prefetch set-up) are paid per tile instead of per access.
//!
//! The owning thread drains its tile:
//!
//! * when the tile is full;
//! * before every instrumented synchronisation, i.e. after
//!   [`InstrumentedBarrier::wait`]'s traced arrival write and after a
//!   traced [`TracedBuffer::fetch_add`]'s read and write, and before the
//!   atomic that orders the thread against its peers;
//! * after [`InstrumentedBarrier::wait`]'s traced release read, so the
//!   barrier's modelled edge (last arriver → released thread) is not
//!   overtaken by a faster peer's next arrival;
//! * at [`run_threads`] entry (the caller's tile) and when a
//!   [`ThreadGuard`] drops (a thread unwinding from a panic discards its
//!   tile instead);
//! * when a buffer of a different [`TraceCtx`] emits on the thread;
//! * on demand, through [`flush_thread`].
//!
//! Each thread's accesses therefore reach the sink in program order, and
//! every access that an instrumented synchronisation orders before another
//! thread's access is delivered first. Only accesses of different threads
//! that no instrumented synchronisation orders may swap — races whose
//! attribution already depended on the schedule. DESIGN.md ("Live capture
//! tiles") has the argument.
//!
//! [`AccessSink::accepts_tiles`]: crate::sink::AccessSink::accepts_tiles
//! [`AccessSink::on_batch`]: crate::sink::AccessSink::on_batch
//! [`InstrumentedBarrier::wait`]: crate::runtime::InstrumentedBarrier::wait
//! [`TracedBuffer::fetch_add`]: crate::memory::TracedBuffer::fetch_add
//! [`run_threads`]: crate::runtime::run_threads
//! [`ThreadGuard`]: crate::registry::ThreadGuard

use std::cell::RefCell;
use std::sync::Arc;

use crate::ctx::TraceCtx;
use crate::event::AccessEvent;

/// Most events one tile holds, and so the most one `on_batch` call from a
/// tile delivers. 256 × 40-byte events = 10 KiB per thread.
pub const TILE_EVENTS: usize = 256;

/// One thread's undelivered accesses and the context they belong to.
struct Tile {
    ctx: Option<Arc<TraceCtx>>,
    events: Vec<AccessEvent>,
}

thread_local! {
    static TILE: RefCell<Tile> = const {
        RefCell::new(Tile {
            ctx: None,
            events: Vec::new(),
        })
    };
}

/// Buffer `ev`, an access made through `ctx`, in the calling thread's
/// tile; deliver the tile when it fills.
#[inline]
pub(crate) fn push(ctx: &Arc<TraceCtx>, ev: AccessEvent) {
    let full = TILE.with(|cell| {
        let mut tile = cell.borrow_mut();
        if !tile.ctx.as_ref().is_some_and(|c| Arc::ptr_eq(c, ctx)) {
            if !tile.events.is_empty() {
                drop(tile);
                flush_thread();
                tile = cell.borrow_mut();
            }
            tile.ctx = Some(Arc::clone(ctx));
            tile.events.reserve_exact(TILE_EVENTS);
        }
        tile.events.push(ev);
        tile.events.len() == TILE_EVENTS
    });
    if full {
        flush_thread();
    }
}

/// Deliver the calling thread's tile to its sink now, and release the
/// tile's hold on that sink's context. A no-op when the tile is empty.
///
/// The runtime calls this at every flush point listed in the
/// [module docs](self); call it directly before reading, from a
/// registered thread, a sink that thread has been feeding.
pub fn flush_thread() {
    let taken = TILE
        .try_with(|cell| {
            let mut tile = cell.borrow_mut();
            let ctx = tile.ctx.take()?;
            Some((ctx, std::mem::take(&mut tile.events)))
        })
        .ok()
        .flatten();
    let Some((ctx, mut events)) = taken else {
        return;
    };
    if !events.is_empty() {
        ctx.sink().on_batch(&events);
    }
    // Keep the allocation for the thread's next tile.
    events.clear();
    let _ = TILE.try_with(|cell| {
        let mut tile = cell.borrow_mut();
        if tile.events.capacity() == 0 {
            tile.events = events;
        }
    });
}

/// Drop the calling thread's undelivered accesses and its hold on their
/// context, without calling the sink. Used when a registered thread
/// unwinds from a panic, so a failed run's partial tile never reaches a
/// sink through a later flush on the same thread.
pub(crate) fn discard_thread() {
    let _ = TILE.try_with(|cell| {
        if let Ok(mut tile) = cell.try_borrow_mut() {
            tile.ctx = None;
            tile.events.clear();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::AccessKind;
    use crate::memory::TracedBuffer;
    use crate::registry::ThreadGuard;
    use crate::runtime::{run_threads, InstrumentedBarrier};
    use crate::sink::{AccessSink, CountingSink};
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// An opted-in sink that records every delivery it receives.
    #[derive(Default)]
    struct TileSpy {
        batches: Mutex<Vec<Vec<AccessEvent>>>,
    }

    impl TileSpy {
        fn delivered(&self) -> usize {
            self.batches.lock().iter().map(Vec::len).sum()
        }
        fn batch_lens(&self) -> Vec<usize> {
            self.batches.lock().iter().map(Vec::len).collect()
        }
    }

    impl AccessSink for TileSpy {
        fn on_access(&self, ev: &AccessEvent) {
            self.batches.lock().push(vec![*ev]);
        }
        fn on_batch(&self, evs: &[AccessEvent]) {
            self.batches.lock().push(evs.to_vec());
        }
        fn accepts_tiles(&self) -> bool {
            true
        }
    }

    fn spy_ctx(threads: usize) -> (Arc<TileSpy>, Arc<TraceCtx>) {
        let spy = Arc::new(TileSpy::default());
        let ctx = TraceCtx::new(spy.clone(), threads);
        (spy, ctx)
    }

    #[test]
    fn flush_thread_delivers_in_program_order_and_nothing_before() {
        let (spy, ctx) = spy_ctx(1);
        let buf: TracedBuffer<u64> = ctx.alloc(8);
        let _t = ThreadGuard::register(0);
        for i in 0..5 {
            buf.store(i, i as u64);
        }
        let _ = buf.load(2);
        assert_eq!(spy.delivered(), 0, "delivered before a flush point");
        flush_thread();
        assert_eq!(spy.batch_lens(), vec![6]);
        let batch = spy.batches.lock()[0].clone();
        let addrs: Vec<u64> = batch.iter().map(|e| e.addr).collect();
        let mut want: Vec<u64> = (0..5).map(|i| buf.addr(i)).collect();
        want.push(buf.addr(2));
        assert_eq!(addrs, want);
        assert_eq!(batch[5].kind, AccessKind::Read);
        flush_thread(); // idempotent: an empty tile delivers nothing
        assert_eq!(spy.batch_lens(), vec![6]);
    }

    #[test]
    fn a_tile_never_delivers_more_than_its_capacity() {
        let (spy, ctx) = spy_ctx(1);
        let buf: TracedBuffer<u64> = ctx.alloc(1);
        let _t = ThreadGuard::register(0);
        let n = 3 * TILE_EVENTS + 17;
        for i in 0..n {
            buf.store(0, i as u64);
        }
        // Three full tiles went out as they filled; the rest waits.
        assert_eq!(spy.batch_lens(), vec![TILE_EVENTS; 3]);
        flush_thread();
        assert_eq!(spy.batch_lens(), vec![256, 256, 256, 17]);
        assert_eq!(spy.delivered(), n);
    }

    #[test]
    fn barrier_drains_the_tile_at_arrival_and_at_release() {
        let (spy, ctx) = spy_ctx(1);
        let f = ctx.func("test");
        let bar = InstrumentedBarrier::new(&ctx, 1, "barrier", f);
        let buf: TracedBuffer<u64> = ctx.alloc(4);
        let _t = ThreadGuard::register(0);
        buf.store(0, 1);
        buf.store(1, 2);
        assert_eq!(spy.delivered(), 0);
        bar.wait();
        // The two stores plus the arrival write before synchronising, then
        // the release read on its own before `wait` returns.
        assert_eq!(spy.batch_lens(), vec![3, 1]);
        let batches = spy.batches.lock();
        assert_eq!(batches[0][2].kind, AccessKind::Write);
        assert_eq!(batches[1][0].kind, AccessKind::Read);
        assert!(batches[0][2..]
            .iter()
            .chain(&batches[1])
            .all(|e| e.loop_id == bar.loop_id()));
    }

    #[test]
    fn every_release_read_follows_its_own_rounds_last_arrival() {
        // Replaying deliveries in order, each release read's last writer
        // must be an arrival of the same round: the barrier's modelled RAW
        // edge is last arriver -> released thread, never a next-round
        // arriver. An untraced gate holds every thread until all have
        // returned from `wait`, so a release read still buffered at return
        // would let a faster peer's next arrival overtake it.
        const N: usize = 4;
        const ROUNDS: usize = 200;
        let (spy, ctx) = spy_ctx(N);
        let f = ctx.func("test");
        let bar = InstrumentedBarrier::new(&ctx, N, "barrier", f);
        let returned = AtomicUsize::new(0);
        run_threads(N, |_| {
            for round in 1..=ROUNDS {
                bar.wait();
                returned.fetch_add(1, Ordering::AcqRel);
                while returned.load(Ordering::Acquire) < round * N {
                    std::thread::yield_now();
                }
            }
        });
        let batches = spy.batches.lock();
        let mut writes_seen = [0usize; N];
        let mut reads_seen = [0usize; N];
        let mut last_writer: Option<(u32, usize)> = None;
        let mut remote_edges = 0usize;
        for ev in batches.iter().flatten() {
            let t = ev.tid as usize;
            match ev.kind {
                AccessKind::Write => {
                    writes_seen[t] += 1;
                    last_writer = Some((ev.tid, writes_seen[t]));
                }
                AccessKind::Read => {
                    reads_seen[t] += 1;
                    let (w, round) = last_writer.expect("release read before any arrival");
                    assert_eq!(
                        round, reads_seen[t],
                        "thread {t}'s read saw another round's write"
                    );
                    remote_edges += usize::from(w != ev.tid);
                }
            }
        }
        assert_eq!(remote_edges, ROUNDS * (N - 1));
    }

    #[test]
    fn traced_fetch_add_drains_the_tile_with_its_own_events() {
        let (spy, ctx) = spy_ctx(1);
        let queue: TracedBuffer<u64> = ctx.alloc(1);
        let data: TracedBuffer<u64> = ctx.alloc(4);
        let _t = ThreadGuard::register(0);
        data.store(3, 9);
        assert_eq!(queue.fetch_add(0, 1), 0);
        let lens = spy.batch_lens();
        assert_eq!(lens, vec![3], "store + RMW read + RMW write");
        let kinds: Vec<_> = spy.batches.lock()[0].iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![AccessKind::Write, AccessKind::Read, AccessKind::Write]
        );
    }

    #[test]
    fn thread_guard_drop_and_thread_exit_drain_the_tile() {
        let (spy, ctx) = spy_ctx(2);
        let buf: TracedBuffer<u64> = ctx.alloc(4);
        {
            let _t = ThreadGuard::register(0);
            buf.store(0, 1);
            assert_eq!(spy.delivered(), 0);
        }
        assert_eq!(spy.batch_lens(), vec![1]);
        run_threads(2, |tid| {
            for _ in 0..10 {
                buf.store(tid, 1);
            }
        });
        // Each worker's guard drained its tile before the scope joined.
        assert_eq!(spy.delivered(), 21);
        let mut tids: Vec<u32> = spy.batches.lock()[1..]
            .iter()
            .map(|b| {
                assert!(b.iter().all(|e| e.tid == b[0].tid), "one thread per tile");
                b[0].tid
            })
            .collect();
        tids.sort_unstable();
        assert_eq!(tids, vec![0, 1]);
    }

    #[test]
    fn a_caught_panic_discards_the_tile_instead_of_delivering_it_later() {
        let (spy, ctx) = spy_ctx(1);
        let buf: TracedBuffer<u64> = ctx.alloc(1);
        let held = Arc::strong_count(&ctx);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _t = ThreadGuard::register(0);
            buf.store(0, 1);
            panic!("run fails mid-tile");
        }));
        assert!(caught.is_err());
        assert_eq!(
            Arc::strong_count(&ctx),
            held,
            "the tile let go of the context"
        );
        flush_thread();
        assert_eq!(
            spy.delivered(),
            0,
            "a failed run's accesses reached the sink"
        );
    }

    #[test]
    fn run_threads_entry_drains_the_callers_tile() {
        let (spy, ctx) = spy_ctx(1);
        let buf: TracedBuffer<u64> = ctx.alloc(1);
        let _t = ThreadGuard::register(0);
        buf.store(0, 5);
        run_threads(1, |_| assert_eq!(spy.delivered(), 1));
    }

    #[test]
    fn switching_context_delivers_the_previous_contexts_tile() {
        let (a, ctx_a) = spy_ctx(1);
        let (b, ctx_b) = spy_ctx(1);
        let buf_a: TracedBuffer<u64> = ctx_a.alloc(1);
        let buf_b: TracedBuffer<u64> = ctx_b.alloc(1);
        let _t = ThreadGuard::register(0);
        buf_a.store(0, 1);
        buf_a.store(0, 2);
        assert_eq!(a.delivered(), 0);
        buf_b.store(0, 3);
        assert_eq!(a.batch_lens(), vec![2]);
        assert_eq!(b.delivered(), 0);
        flush_thread();
        assert_eq!(b.batch_lens(), vec![1]);
        assert_eq!(a.batch_lens(), vec![2]);
    }

    #[test]
    fn a_flushed_tile_releases_its_context() {
        let (spy, ctx) = spy_ctx(1);
        let buf: TracedBuffer<u64> = ctx.alloc(1);
        let _t = ThreadGuard::register(0);
        buf.store(0, 1);
        let held = Arc::strong_count(&ctx);
        flush_thread();
        assert_eq!(Arc::strong_count(&ctx), held - 1);
        assert_eq!(spy.delivered(), 1);
    }

    #[test]
    fn sinks_that_do_not_opt_in_see_each_access_synchronously() {
        let counting = Arc::new(CountingSink::new());
        assert!(!counting.accepts_tiles());
        let ctx = TraceCtx::new(counting.clone(), 1);
        let buf: TracedBuffer<u64> = ctx.alloc(2);
        let _t = ThreadGuard::register(0);
        buf.store(0, 1);
        assert_eq!(counting.writes(), 1);
        let _ = buf.load(0);
        assert_eq!(counting.reads(), 1);
    }
}
