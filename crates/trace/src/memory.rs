//! Traced memory — the stand-in for compile-time instrumentation.
//!
//! In the paper every load/store of the target program is preceded by an
//! instrumentation call inserted by an LLVM pass. Here the workloads'
//! shared data lives in [`TracedBuffer`]s: every `load`/`store` emits the
//! same event tuple that pass would emit, then performs the access. Buffer
//! elements are stored in `AtomicU64` cells with `Relaxed` ordering, so the
//! *profiled program's* races (which the profiler exists to observe!) are
//! well-defined in Rust while keeping the hardware-level semantics of
//! ordinary loads and stores.
//!
//! Addresses are virtual: a process-wide bump allocator hands out disjoint,
//! 64-byte-aligned ranges, making traces deterministic across runs.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::ctx::TraceCtx;
use crate::event::{AccessEvent, AccessKind};
use crate::loops::{current_func, current_loops};
use crate::registry::current_tid;

/// Values storable in a traced cell: anything with a lossless 64-bit image.
pub trait Word: Copy {
    /// Encode into the cell representation.
    fn to_bits(self) -> u64;
    /// Decode from the cell representation.
    fn from_bits(bits: u64) -> Self;
    /// The natural access width reported in events, in bytes.
    const SIZE: u32;
}

macro_rules! impl_word_int {
    ($($t:ty),*) => {$(
        impl Word for $t {
            #[inline]
            fn to_bits(self) -> u64 { self as u64 }
            #[inline]
            fn from_bits(bits: u64) -> Self { bits as $t }
            const SIZE: u32 = std::mem::size_of::<$t>() as u32;
        }
    )*};
}
impl_word_int!(u8, u16, u32, u64, usize);

macro_rules! impl_word_signed {
    ($($t:ty => $u:ty),*) => {$(
        impl Word for $t {
            #[inline]
            fn to_bits(self) -> u64 { self as $u as u64 }
            #[inline]
            fn from_bits(bits: u64) -> Self { bits as $u as $t }
            const SIZE: u32 = std::mem::size_of::<$t>() as u32;
        }
    )*};
}
impl_word_signed!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

impl Word for f64 {
    #[inline]
    fn to_bits(self) -> u64 {
        self.to_bits()
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        f64::from_bits(bits)
    }
    const SIZE: u32 = 8;
}

impl Word for f32 {
    #[inline]
    fn to_bits(self) -> u64 {
        self.to_bits() as u64
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
    const SIZE: u32 = 4;
}

impl Word for bool {
    #[inline]
    fn to_bits(self) -> u64 {
        self as u64
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        bits != 0
    }
    const SIZE: u32 = 1;
}

/// Process-wide virtual address allocator (bump pointer, 64-byte aligned).
#[derive(Debug)]
pub struct AddressSpace {
    next: AtomicU64,
}

impl AddressSpace {
    /// Base of the synthetic address space (an arbitrary non-zero page).
    pub const BASE: u64 = 0x1000_0000;

    /// New allocator starting at [`AddressSpace::BASE`].
    pub fn new() -> Self {
        Self {
            next: AtomicU64::new(Self::BASE),
        }
    }

    /// Reserve `bytes` bytes, returning the range base.
    pub fn alloc(&self, bytes: u64) -> u64 {
        let rounded = bytes.div_ceil(64) * 64;
        self.next.fetch_add(rounded, Ordering::Relaxed)
    }

    /// Total bytes handed out so far.
    pub fn allocated(&self) -> u64 {
        self.next.load(Ordering::Relaxed) - Self::BASE
    }
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

/// A shared, instrumented array of `T`.
///
/// `load`/`store` emit events and may race (by design — the profiled
/// program's communication *is* those races). `peek`/`poke` are untraced
/// and intended for setup and verification code, mirroring the paper's
/// ability to exclude code from analysis ("code that should not be
/// analyzed", §IV-A).
///
/// ```
/// use std::sync::Arc;
/// use lc_trace::{CountingSink, ThreadGuard, TraceCtx, TracedBuffer};
///
/// let counter = Arc::new(CountingSink::new());
/// let ctx = TraceCtx::new(counter.clone(), 1);
/// let buf: TracedBuffer<f64> = ctx.alloc(8);
///
/// buf.poke(0, 1.5);                   // untraced setup
/// let _me = ThreadGuard::register(0); // instrumented code needs a tid
/// buf.store(1, buf.load(0) * 2.0);    // one read + one write event
/// assert_eq!(buf.peek(1), 3.0);
/// assert_eq!(counter.reads(), 1);
/// assert_eq!(counter.writes(), 1);
/// ```
pub struct TracedBuffer<T: Word> {
    cells: Box<[AtomicU64]>,
    base: u64,
    ctx: Arc<TraceCtx>,
    _marker: PhantomData<T>,
}

impl<T: Word> TracedBuffer<T> {
    /// Allocate a zeroed traced buffer of `len` elements inside `ctx`'s
    /// address space. (Use [`TraceCtx::alloc`] for the ergonomic form.)
    pub fn new(ctx: &Arc<TraceCtx>, len: usize) -> Self {
        let base = ctx.address_space().alloc((len as u64) * T::SIZE as u64);
        let cells = (0..len).map(|_| AtomicU64::new(0)).collect();
        Self {
            cells,
            base,
            ctx: Arc::clone(ctx),
            _marker: PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the buffer has no elements.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Virtual address of element `i`.
    #[inline]
    pub fn addr(&self, i: usize) -> u64 {
        debug_assert!(i < self.cells.len());
        self.base + (i as u64) * T::SIZE as u64
    }

    /// Virtual base address of the buffer.
    pub fn base_addr(&self) -> u64 {
        self.base
    }

    #[inline]
    fn emit_at(&self, i: usize, kind: AccessKind, site: &'static std::panic::Location<'static>) {
        crate::sites::register_site(site);
        let (loop_id, parent_loop) = current_loops();
        let ev = AccessEvent {
            tid: current_tid(),
            addr: self.addr(i),
            size: T::SIZE,
            kind,
            loop_id,
            parent_loop,
            func: current_func(),
            // A `&'static Location` uniquely identifies the source-level
            // access expression — the analogue of the instrumented
            // instruction's address in an LLVM pass.
            site: site as *const _ as u64,
        };
        if self.ctx.tiled {
            crate::tile::push(&self.ctx, ev);
        } else {
            self.ctx.sink().on_access(&ev);
        }
    }

    /// Instrumented load of element `i`.
    #[inline]
    #[track_caller]
    pub fn load(&self, i: usize) -> T {
        self.emit_at(i, AccessKind::Read, std::panic::Location::caller());
        T::from_bits(self.cells[i].load(Ordering::Relaxed))
    }

    /// Instrumented store to element `i`.
    #[inline]
    #[track_caller]
    pub fn store(&self, i: usize, v: T) {
        self.emit_at(i, AccessKind::Write, std::panic::Location::caller());
        self.cells[i].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Instrumented read-modify-write (emits a read then a write event,
    /// like the two memory operations an RMW instruction performs).
    #[inline]
    #[track_caller]
    pub fn update(&self, i: usize, f: impl FnOnce(T) -> T) -> T {
        let site = std::panic::Location::caller();
        self.emit_at(i, AccessKind::Read, site);
        let old = T::from_bits(self.cells[i].load(Ordering::Relaxed));
        let new = f(old);
        self.emit_at(i, AccessKind::Write, site);
        self.cells[i].store(new.to_bits(), Ordering::Relaxed);
        new
    }

    /// Atomic instrumented fetch-add on an integer-bits cell; used for
    /// shared counters (task queues). Emits read + write events.
    ///
    /// The RMW orders this thread against the next one to take a ticket,
    /// so the thread's tile is delivered before the atomic runs.
    #[inline]
    #[track_caller]
    pub fn fetch_add(&self, i: usize, delta: u64) -> u64 {
        let site = std::panic::Location::caller();
        self.emit_at(i, AccessKind::Read, site);
        self.emit_at(i, AccessKind::Write, site);
        crate::tile::flush_thread();
        self.cells[i].fetch_add(delta, Ordering::Relaxed)
    }

    /// Untraced read (setup/verification only).
    #[inline]
    pub fn peek(&self, i: usize) -> T {
        T::from_bits(self.cells[i].load(Ordering::Relaxed))
    }

    /// Untraced write (setup/verification only).
    #[inline]
    pub fn poke(&self, i: usize, v: T) {
        self.cells[i].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Untraced bulk fill (setup only).
    pub fn fill(&self, v: T) {
        for c in self.cells.iter() {
            c.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Untraced snapshot of the whole buffer (verification only).
    pub fn snapshot(&self) -> Vec<T> {
        self.cells
            .iter()
            .map(|c| T::from_bits(c.load(Ordering::Relaxed)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::TraceCtx;
    use crate::registry::ThreadGuard;
    use crate::sink::CountingSink;

    #[test]
    fn word_roundtrips() {
        assert_eq!(f64::from_bits(Word::to_bits(-1.5f64)), -1.5);
        assert_eq!(f32::from_bits((-2.5f32).to_bits()), -2.5);
        assert_eq!(<i32 as Word>::from_bits(<i32 as Word>::to_bits(-7)), -7);
        assert_eq!(<i64 as Word>::from_bits(<i64 as Word>::to_bits(-9)), -9);
        assert_eq!(<u8 as Word>::from_bits(<u8 as Word>::to_bits(255)), 255);
        assert!(<bool as Word>::from_bits(<bool as Word>::to_bits(true)));
    }

    #[test]
    fn address_space_is_disjoint_and_aligned() {
        let a = AddressSpace::new();
        let x = a.alloc(100);
        let y = a.alloc(1);
        assert_eq!(x % 64, 0);
        assert_eq!(y % 64, 0);
        assert!(y >= x + 100);
        assert_eq!(a.allocated(), 128 + 64);
    }

    #[test]
    fn traced_ops_emit_events() {
        let counting = std::sync::Arc::new(CountingSink::new());
        let ctx = TraceCtx::new(counting.clone(), 4);
        let _t = ThreadGuard::register(0);
        let buf: TracedBuffer<f64> = ctx.alloc(16);
        buf.store(3, 1.25);
        assert_eq!(buf.load(3), 1.25);
        assert_eq!(counting.writes(), 1);
        assert_eq!(counting.reads(), 1);
        assert_eq!(counting.bytes(), 16);
    }

    #[test]
    fn peek_poke_are_silent() {
        let counting = std::sync::Arc::new(CountingSink::new());
        let ctx = TraceCtx::new(counting.clone(), 4);
        let buf: TracedBuffer<u64> = ctx.alloc(4);
        buf.poke(0, 42);
        assert_eq!(buf.peek(0), 42);
        buf.fill(7);
        assert_eq!(buf.snapshot(), vec![7, 7, 7, 7]);
        assert_eq!(counting.total(), 0);
    }

    #[test]
    fn update_and_fetch_add_emit_rmw_pairs() {
        let counting = std::sync::Arc::new(CountingSink::new());
        let ctx = TraceCtx::new(counting.clone(), 4);
        let _t = ThreadGuard::register(1);
        let buf: TracedBuffer<u64> = ctx.alloc(1);
        buf.update(0, |v| v + 5);
        assert_eq!(buf.peek(0), 5);
        let prev = buf.fetch_add(0, 3);
        assert_eq!(prev, 5);
        assert_eq!(buf.peek(0), 8);
        assert_eq!(counting.reads(), 2);
        assert_eq!(counting.writes(), 2);
    }

    #[test]
    fn element_addresses_step_by_size() {
        let ctx = TraceCtx::new(std::sync::Arc::new(CountingSink::new()), 1);
        let b: TracedBuffer<u32> = ctx.alloc(8);
        assert_eq!(b.addr(2) - b.addr(0), 8);
        assert_eq!(b.base_addr(), b.addr(0));
        assert_eq!(b.len(), 8);
        assert!(!b.is_empty());
    }
}
