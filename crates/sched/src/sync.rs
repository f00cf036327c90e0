//! Drop-in sync primitives for the concurrency core.
//!
//! Mirrors the std/parking_lot API surface the sigmem, profiler and trace
//! crates use (`AtomicU32/U64/Usize/Bool`, `AtomicPtr`, `Ordering`,
//! `Mutex`, `Condvar`).
//! Outside a simulation every operation delegates straight to the real
//! primitive with the caller's ordering, so behavior is unchanged — but
//! not cost. Every cell embeds a mutex-guarded `CellMeta` (vector clocks
//! and the holder), so `AtomicU32`, `AtomicU64` and `AtomicPtr` are each
//! 88 bytes (a sigmem arena `Line` is 704 bytes instead of 64), and each
//! access first checks whether a simulation is active. Against std
//! atomics the shipped binary measured 1.4–3× lower throughput and up
//! to 10× the peak RSS; a thin variant with zero-sized metadata (state
//! in a side table, production layout) was still 35–80 % slower. The
//! `sched` feature is therefore a test-only build, not a default
//! (DESIGN.md §11.1). Inside a simulation every operation is a scheduler
//! decision point: it yields the baton, performs the access under
//! sequentially-consistent value semantics, tracks vector clocks for the
//! acquire/release edges the *requested* ordering implies, and flags
//! accesses to cells whose initialization the accessor has no
//! happens-before edge to (the relaxed-publish bug class).

pub use std::sync::atomic::Ordering;

use crate::rt::{current_ctx, CellMeta, SimCtx, Status};

fn is_acquire(o: Ordering) -> bool {
    matches!(o, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(o: Ordering) -> bool {
    matches!(o, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

fn pre_op(ctx: &SimCtx) {
    ctx.rt.yield_point(ctx.tid);
}

macro_rules! shim_atomic {
    ($name:ident, $std:ty, $prim:ty) => {
        /// Shim atomic: std semantics outside a simulation, a scheduler
        /// decision point plus clock tracking inside one.
        #[derive(Debug, Default)]
        pub struct $name {
            inner: $std,
            meta: CellMeta,
        }

        impl $name {
            /// Create the cell; inside a simulation the creator's clock is
            /// recorded as the cell's birth.
            pub fn new(v: $prim) -> Self {
                let meta = match current_ctx() {
                    Some(ctx) => CellMeta::on_create(&ctx),
                    None => CellMeta::default(),
                };
                Self {
                    inner: <$std>::new(v),
                    meta,
                }
            }

            /// Atomic load.
            #[inline]
            pub fn load(&self, order: Ordering) -> $prim {
                match current_ctx() {
                    None => self.inner.load(order),
                    Some(ctx) => {
                        pre_op(&ctx);
                        self.meta.check_birth(&ctx, "shim atomic");
                        self.meta.acquire_from(&ctx, is_acquire(order));
                        self.inner.load(Ordering::SeqCst)
                    }
                }
            }

            /// Atomic store.
            #[inline]
            pub fn store(&self, v: $prim, order: Ordering) {
                match current_ctx() {
                    None => self.inner.store(v, order),
                    Some(ctx) => {
                        pre_op(&ctx);
                        self.meta.check_birth(&ctx, "shim atomic");
                        self.meta.release_to(&ctx, is_release(order), false);
                        self.inner.store(v, Ordering::SeqCst)
                    }
                }
            }

            /// Atomic swap.
            #[inline]
            pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                match current_ctx() {
                    None => self.inner.swap(v, order),
                    Some(ctx) => {
                        pre_op(&ctx);
                        self.meta.check_birth(&ctx, "shim atomic");
                        self.meta.acquire_from(&ctx, is_acquire(order));
                        self.meta.release_to(&ctx, is_release(order), true);
                        self.inner.swap(v, Ordering::SeqCst)
                    }
                }
            }

            /// Atomic fetch-or.
            #[inline]
            pub fn fetch_or(&self, v: $prim, order: Ordering) -> $prim {
                match current_ctx() {
                    None => self.inner.fetch_or(v, order),
                    Some(ctx) => {
                        pre_op(&ctx);
                        self.meta.check_birth(&ctx, "shim atomic");
                        self.meta.acquire_from(&ctx, is_acquire(order));
                        self.meta.release_to(&ctx, is_release(order), true);
                        self.inner.fetch_or(v, Ordering::SeqCst)
                    }
                }
            }

            /// Atomic compare-exchange.
            #[inline]
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                match current_ctx() {
                    None => self.inner.compare_exchange(current, new, success, failure),
                    Some(ctx) => {
                        pre_op(&ctx);
                        self.meta.check_birth(&ctx, "shim atomic");
                        let r = self.inner.compare_exchange(
                            current,
                            new,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        );
                        match r {
                            Ok(_) => {
                                self.meta.acquire_from(&ctx, is_acquire(success));
                                self.meta.release_to(&ctx, is_release(success), true);
                            }
                            Err(_) => self.meta.acquire_from(&ctx, is_acquire(failure)),
                        }
                        r
                    }
                }
            }

            /// Non-atomic access through `&mut` (no simulation involvement).
            #[inline]
            pub fn get_mut(&mut self) -> &mut $prim {
                self.inner.get_mut()
            }

            /// Consume and return the value.
            #[inline]
            pub fn into_inner(self) -> $prim {
                self.inner.into_inner()
            }
        }
    };
}

macro_rules! shim_fetch_add {
    ($name:ident, $prim:ty) => {
        impl $name {
            /// Atomic fetch-add.
            #[inline]
            pub fn fetch_add(&self, v: $prim, order: Ordering) -> $prim {
                match current_ctx() {
                    None => self.inner.fetch_add(v, order),
                    Some(ctx) => {
                        pre_op(&ctx);
                        self.meta.check_birth(&ctx, "shim atomic");
                        self.meta.acquire_from(&ctx, is_acquire(order));
                        self.meta.release_to(&ctx, is_release(order), true);
                        self.inner.fetch_add(v, Ordering::SeqCst)
                    }
                }
            }

            /// Atomic fetch-sub.
            #[inline]
            pub fn fetch_sub(&self, v: $prim, order: Ordering) -> $prim {
                match current_ctx() {
                    None => self.inner.fetch_sub(v, order),
                    Some(ctx) => {
                        pre_op(&ctx);
                        self.meta.check_birth(&ctx, "shim atomic");
                        self.meta.acquire_from(&ctx, is_acquire(order));
                        self.meta.release_to(&ctx, is_release(order), true);
                        self.inner.fetch_sub(v, Ordering::SeqCst)
                    }
                }
            }
        }
    };
}

shim_atomic!(AtomicU32, std::sync::atomic::AtomicU32, u32);
shim_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
shim_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
shim_atomic!(AtomicBool, std::sync::atomic::AtomicBool, bool);
shim_fetch_add!(AtomicU32, u32);
shim_fetch_add!(AtomicU64, u64);
shim_fetch_add!(AtomicUsize, usize);

/// Shim atomic pointer: std semantics outside a simulation, a decision
/// point plus clock tracking inside one. The acquire/release clock edges
/// are exactly what makes publish-via-CAS sound to the model checker.
#[derive(Debug)]
pub struct AtomicPtr<T> {
    inner: std::sync::atomic::AtomicPtr<T>,
    meta: CellMeta,
}

impl<T> Default for AtomicPtr<T> {
    fn default() -> Self {
        Self::new(std::ptr::null_mut())
    }
}

impl<T> AtomicPtr<T> {
    /// Create the cell; inside a simulation the creator's clock is
    /// recorded as the cell's birth.
    pub fn new(p: *mut T) -> Self {
        let meta = match current_ctx() {
            Some(ctx) => CellMeta::on_create(&ctx),
            None => CellMeta::default(),
        };
        Self {
            inner: std::sync::atomic::AtomicPtr::new(p),
            meta,
        }
    }

    /// Atomic load.
    #[inline]
    pub fn load(&self, order: Ordering) -> *mut T {
        match current_ctx() {
            None => self.inner.load(order),
            Some(ctx) => {
                pre_op(&ctx);
                self.meta.check_birth(&ctx, "shim atomic pointer");
                self.meta.acquire_from(&ctx, is_acquire(order));
                self.inner.load(Ordering::SeqCst)
            }
        }
    }

    /// Atomic store.
    #[inline]
    pub fn store(&self, p: *mut T, order: Ordering) {
        match current_ctx() {
            None => self.inner.store(p, order),
            Some(ctx) => {
                pre_op(&ctx);
                self.meta.check_birth(&ctx, "shim atomic pointer");
                self.meta.release_to(&ctx, is_release(order), false);
                self.inner.store(p, Ordering::SeqCst)
            }
        }
    }

    /// Atomic swap.
    #[inline]
    pub fn swap(&self, p: *mut T, order: Ordering) -> *mut T {
        match current_ctx() {
            None => self.inner.swap(p, order),
            Some(ctx) => {
                pre_op(&ctx);
                self.meta.check_birth(&ctx, "shim atomic pointer");
                self.meta.acquire_from(&ctx, is_acquire(order));
                self.meta.release_to(&ctx, is_release(order), true);
                self.inner.swap(p, Ordering::SeqCst)
            }
        }
    }

    /// Atomic compare-exchange.
    #[inline]
    pub fn compare_exchange(
        &self,
        current: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        match current_ctx() {
            None => self.inner.compare_exchange(current, new, success, failure),
            Some(ctx) => {
                pre_op(&ctx);
                self.meta.check_birth(&ctx, "shim atomic pointer");
                let r =
                    self.inner
                        .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst);
                match r {
                    Ok(_) => {
                        self.meta.acquire_from(&ctx, is_acquire(success));
                        self.meta.release_to(&ctx, is_release(success), true);
                    }
                    Err(_) => self.meta.acquire_from(&ctx, is_acquire(failure)),
                }
                r
            }
        }
    }

    /// Non-atomic access through `&mut` (no simulation involvement).
    #[inline]
    pub fn get_mut(&mut self) -> &mut *mut T {
        self.inner.get_mut()
    }
}

/// Shim mutex with the parking_lot-style API the profiler uses: `lock`
/// returns a guard directly, `try_lock` an `Option`. Outside a simulation
/// it IS the workspace `parking_lot::Mutex`. Inside one, lock ownership is
/// simulated at the scheduler level (with blocking, waking and clock
/// hand-off) and the real inner lock is only ever taken uncontended.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
    meta: CellMeta,
}

/// Guard for [`Mutex`]. Dropping it is a decision point inside a
/// simulation (so other threads can observe the lock held), then releases.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
    sim: Option<SimCtx>,
}

impl<T> Mutex<T> {
    /// Create the mutex; inside a simulation the creator's clock is
    /// recorded as the birth.
    pub fn new(value: T) -> Self {
        let meta = match current_ctx() {
            Some(ctx) => CellMeta::on_create(&ctx),
            None => CellMeta::default(),
        };
        Self {
            inner: std::sync::Mutex::new(value),
            meta,
        }
    }

    fn key(&self) -> usize {
        self as *const Self as usize
    }

    fn inner_guard(&self) -> std::sync::MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Acquire, blocking (the simulated thread, when simulated).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match current_ctx() {
            None => MutexGuard {
                lock: self,
                inner: Some(self.inner_guard()),
                sim: None,
            },
            Some(ctx) => {
                loop {
                    ctx.rt.yield_point(ctx.tid);
                    self.meta.check_birth(&ctx, "shim mutex");
                    if self.meta.try_lock_sim(&ctx) {
                        break;
                    }
                    ctx.rt
                        .block_current(ctx.tid, Status::BlockedMutex(self.key()));
                }
                // Simulated ownership is exclusive, so the real lock is free.
                MutexGuard {
                    lock: self,
                    inner: Some(self.inner_guard()),
                    sim: Some(ctx),
                }
            }
        }
    }

    /// Acquire without blocking; `None` when held.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match current_ctx() {
            None => match self.inner.try_lock() {
                Ok(g) => Some(MutexGuard {
                    lock: self,
                    inner: Some(g),
                    sim: None,
                }),
                Err(_) => None,
            },
            Some(ctx) => {
                ctx.rt.yield_point(ctx.tid);
                self.meta.check_birth(&ctx, "shim mutex");
                if self.meta.try_lock_sim(&ctx) {
                    Some(MutexGuard {
                        lock: self,
                        inner: Some(self.inner_guard()),
                        sim: Some(ctx),
                    })
                } else {
                    None
                }
            }
        }
    }

    /// Exclusive access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|p| p.into_inner())
    }

    /// Consume the mutex and return the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard accessed after release")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard accessed after release")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock first so the next simulated owner finds it
        // free, then release the simulated ownership (publishing clocks and
        // waking blocked threads). The pre-release yield is what lets other
        // threads observe the lock *held* — without it no simulated thread
        // could ever witness contention.
        drop(self.inner.take());
        if let Some(ctx) = self.sim.take() {
            if !std::thread::panicking() {
                ctx.rt.yield_point(ctx.tid);
            }
            self.lock.meta.unlock_sim(&ctx, self.lock.key());
        }
    }
}

/// Shim condition variable for [`Mutex`]: `std::sync::Condvar` outside a
/// simulation. Inside one, [`Condvar::wait`] releases the mutex and blocks
/// the simulated thread in one step, and only a notify on this variable
/// makes it runnable again; a notify with no waiter is lost, and no
/// spurious wake-up is simulated. A waiter that nobody notifies therefore
/// stays blocked, and a lost wake-up ends the execution as a `Deadlock`
/// once no other thread can run.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// A condition variable with no waiter.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&self) -> usize {
        self as *const Self as usize
    }

    /// Release `guard`'s mutex, wait for a notify, and lock it again.
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let Some(ctx) = guard.sim.take() else {
            let inner = guard.inner.take().expect("guard accessed after release");
            let inner = self.inner.wait(inner).unwrap_or_else(|p| p.into_inner());
            guard.inner = Some(inner);
            return guard;
        };
        let lock = guard.lock;
        // No decision point between the release and the block: a notify
        // cannot fall between them, as with a real condition variable.
        drop(guard.inner.take());
        drop(guard);
        lock.meta.unlock_sim(&ctx, lock.key());
        ctx.rt
            .block_current(ctx.tid, Status::BlockedCondvar(self.key()));
        lock.lock()
    }

    /// Wake one waiter (the lowest simulated tid when simulated).
    pub fn notify_one(&self) {
        self.notify(false)
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.notify(true)
    }

    fn notify(&self, all: bool) {
        match current_ctx() {
            None if all => self.inner.notify_all(),
            None => self.inner.notify_one(),
            Some(ctx) => {
                ctx.rt.yield_point(ctx.tid);
                ctx.rt.wake(Status::BlockedCondvar(self.key()), all);
            }
        }
    }
}
