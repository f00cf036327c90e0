//! The signature memory as Algorithm 1 uses it.
//!
//! Algorithm 1 of the paper takes two steps against the signatures: a read
//! asks who wrote the address last and whether this thread already read
//! it since, and a write records the new writer and forgets the readers.
//! Both the slot signature and the exact "perfect signature" baseline
//! (§V-A3) implement this trait, so the RAW detector in `lc-profiler` is
//! generic over the accuracy/memory trade-off.

/// Algorithm 1's two steps over one signature memory.
///
/// `Send`, not `Sync`: an implementation one thread at a time steps (an
/// [`crate::OwnedSlotSignature`]) is a signature too. Where threads share
/// one, the caller asks for `Sync` as well.
pub trait Signature: Send {
    /// The read step for thread `tid` at `addr`, with `h = fmix64(addr)`
    /// computed by the caller (the batched paths hash whole address blocks
    /// via [`crate::murmur::hash_block`]): returns the last writer and
    /// whether `tid` had already read since that write, and records `tid`
    /// as a reader.
    ///
    /// A bounded implementation aliases addresses: it may answer for an
    /// address sharing the slot (the false-positive source §V-A3
    /// quantifies), never lose a recorded reader.
    fn read(&self, addr: u64, h: u64, tid: u32) -> (Option<u32>, bool);

    /// The write step: `tid` becomes the last writer of `addr` and the
    /// reader history is forgotten, so later reads are fresh
    /// communications from this writer.
    fn write(&self, addr: u64, h: u64, tid: u32);

    /// Current heap footprint in bytes.
    fn memory_bytes(&self) -> usize;

    /// Hint that the state for hash `h` will be consulted shortly; batched
    /// callers issue this a few events ahead so its cache line is in
    /// flight by the time the step lands. Default: no-op.
    #[inline]
    fn prefetch(&self, h: u64) {
        let _ = h;
    }
}
