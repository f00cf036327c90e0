//! Abstractions over the two halves of the asymmetric signature memory.
//!
//! Algorithm 1 of the paper consults a *read* side (which threads have read
//! an address since its last write) and a *write* side (which thread wrote
//! it last). Both the approximate signature implementation and the exact
//! "perfect signature" baseline (§V-A3) implement these traits, so the RAW
//! detector in `lc-profiler` is generic over the accuracy/memory trade-off.

/// The read side: a per-address set of reader thread ids.
pub trait ReaderSet: Send + Sync {
    /// Record that thread `tid` read `addr`.
    fn insert(&self, addr: u64, tid: u32);

    /// Has thread `tid` read `addr` since the last clear of that address?
    ///
    /// Approximate implementations may report false positives (which
    /// *suppress* duplicate communication edges — a conservative error),
    /// never false negatives.
    fn contains(&self, addr: u64, tid: u32) -> bool;

    /// Forget all readers of `addr` (invoked on every write, Algorithm 1:
    /// "clear correspondent bloom filter in read signature").
    fn clear_addr(&self, addr: u64);

    /// Current heap footprint in bytes.
    fn memory_bytes(&self) -> usize;

    /// [`Self::insert`] with `h = fmix64(addr)` precomputed by the caller
    /// (the batched replay path hashes whole address blocks up front via
    /// [`crate::murmur::hash_block`]). Implementations that index by that
    /// hash override this to skip re-hashing; the default ignores `h`, so
    /// exact implementations stay correct unchanged.
    #[inline]
    fn insert_hashed(&self, addr: u64, h: u64, tid: u32) {
        let _ = h;
        self.insert(addr, tid);
    }

    /// [`Self::contains`] with `h = fmix64(addr)` precomputed.
    #[inline]
    fn contains_hashed(&self, addr: u64, h: u64, tid: u32) -> bool {
        let _ = h;
        self.contains(addr, tid)
    }

    /// Combined membership-test-and-insert: returns whether `(addr, tid)`
    /// was already present, and ensures it is present afterwards — the
    /// read path of Algorithm 1 in one signature traversal. The default
    /// composes [`Self::contains_hashed`] and [`Self::insert_hashed`];
    /// implementations override it to resolve the slot once and fold the
    /// probe into the insert's word pass.
    #[inline]
    fn insert_contains_hashed(&self, addr: u64, h: u64, tid: u32) -> bool {
        let present = self.contains_hashed(addr, h, tid);
        self.insert_hashed(addr, h, tid);
        present
    }

    /// [`Self::clear_addr`] with `h = fmix64(addr)` precomputed.
    #[inline]
    fn clear_addr_hashed(&self, addr: u64, h: u64) {
        let _ = h;
        self.clear_addr(addr);
    }

    /// Hint that the slot for hash `h` will be consulted shortly; batched
    /// callers issue this a few events ahead so the signature's cache lines
    /// are in flight by the time the probe lands. Default: no-op.
    #[inline]
    fn prefetch(&self, h: u64) {
        let _ = h;
    }
}

/// The write side: a per-address record of the last writing thread.
pub trait WriterMap: Send + Sync {
    /// Record that thread `tid` is now the last writer of `addr`.
    fn record(&self, addr: u64, tid: u32);

    /// The last recorded writer of `addr`, or `None` if the address was
    /// never written (approximate implementations may alias addresses,
    /// returning the writer of a colliding address — the false-positive
    /// source quantified in §V-A3).
    fn last_writer(&self, addr: u64) -> Option<u32>;

    /// Current heap footprint in bytes.
    fn memory_bytes(&self) -> usize;

    /// [`Self::record`] with `h = fmix64(addr)` precomputed by the caller.
    /// Same contract as [`ReaderSet::insert_hashed`].
    #[inline]
    fn record_hashed(&self, addr: u64, h: u64, tid: u32) {
        let _ = h;
        self.record(addr, tid);
    }

    /// [`Self::last_writer`] with `h = fmix64(addr)` precomputed.
    #[inline]
    fn last_writer_hashed(&self, addr: u64, h: u64) -> Option<u32> {
        let _ = h;
        self.last_writer(addr)
    }

    /// Hint that the slot for hash `h` will be consulted shortly.
    /// Default: no-op.
    #[inline]
    fn prefetch(&self, h: u64) {
        let _ = h;
    }
}
