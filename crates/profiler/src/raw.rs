//! Algorithm 1 — RAW thread-dependence detection over signature memory.
//!
//! ```text
//! for all memory access a in the program do
//!   if Type(a) is read access then
//!     if a in write signature then
//!       if a not in read signature & lastWrite.tid != a.tid then
//!         add RAW dependency to comm. matrix;
//!     else {a not in write signature}
//!       insert a to read signature;
//!   else {a is write access}
//!     clear correspondent bloom filter in read signature;
//!     insert a to write signature;
//! ```
//!
//! **Documented deviation:** as printed, a read that *hits* the write
//! signature is never inserted into the read signature, so every later read
//! of the same address by the same thread would be re-counted — directly
//! contradicting §V-A5: "only first time access by a thread is counted as a
//! communication between relevant threads". We therefore insert the reader
//! into the read signature after the dependence check, which makes the
//! first-read-only semantics hold (and is what the read signature exists
//! for — it stores "the list of all threads which have accessed the
//! correspondent memory location", §IV-D2).
//!
//! **Documented deviation:** the paper's read signature is a Bloom filter
//! over reader thread ids; [`lc_sigmem::SlotSignature`] stores an exact
//! reader mask beside the last writer instead. At the paper's FPRate 0.001
//! the two answer identically for t ≤ 211 (no thread id's probe set is
//! covered by the others'). From t = 212 on the filter can claim a reader
//! that never read — suppressing a true dependence — where the mask
//! cannot, so reports for t ≥ 212 may count more dependences than the
//! paper's filter would.

use lc_sigmem::{PerfectSignature, Signature, SignatureConfig, SlotSignature};
use lc_trace::AccessKind;

/// One detected inter-thread RAW dependence: `bytes` flowed from the thread
/// that last wrote the address (`src`) to the reading thread (`dst`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dependence {
    /// Producer (last writer) thread.
    pub src: u32,
    /// Consumer (reader) thread.
    pub dst: u32,
    /// Communicated volume in bytes.
    pub bytes: u64,
}

/// Algorithm 1 over any [`Signature`].
///
/// ```
/// use lc_profiler::{Dependence, PerfectDetector};
/// use lc_trace::AccessKind;
///
/// let d = PerfectDetector::perfect();
/// assert_eq!(d.on_access(0, 0x10, 8, AccessKind::Write), None);
/// // Thread 1's first read of thread 0's value is communication...
/// assert_eq!(
///     d.on_access(1, 0x10, 8, AccessKind::Read),
///     Some(Dependence { src: 0, dst: 1, bytes: 8 })
/// );
/// // ...and a repeated read is not (§V-A5 first-read-only semantics).
/// assert_eq!(d.on_access(1, 0x10, 8, AccessKind::Read), None);
/// ```
#[derive(Debug)]
pub struct RawDetector<S> {
    sig: S,
}

/// The paper's detector: bounded-memory slot signature.
pub type AsymmetricDetector = RawDetector<SlotSignature>;

/// The §V-A3 baseline: exact, footprint-proportional structures.
pub type PerfectDetector = RawDetector<PerfectSignature>;

impl AsymmetricDetector {
    /// Build from a signature configuration.
    pub fn asymmetric(cfg: SignatureConfig) -> Self {
        Self::new(cfg.build())
    }
}

impl PerfectDetector {
    /// Build the collision-free baseline detector.
    pub fn perfect() -> Self {
        Self::new(PerfectSignature::new())
    }
}

impl<S: Signature> RawDetector<S> {
    /// Build over an explicit signature.
    pub fn new(sig: S) -> Self {
        Self { sig }
    }

    /// Process one access in program order; returns the RAW dependence the
    /// access completes, if any. Lock-free when the signatures are.
    #[inline]
    pub fn on_access(
        &self,
        tid: u32,
        addr: u64,
        size: u32,
        kind: AccessKind,
    ) -> Option<Dependence> {
        self.on_access_hashed(tid, addr, lc_sigmem::murmur::fmix64(addr), size, kind)
    }

    /// Algorithm 1's one body, with `h = fmix64(addr)` precomputed by the
    /// caller. The batched paths hash whole address blocks via
    /// [`lc_sigmem::hash_block`] and feed each event's hash to its one
    /// signature step — one `fmix64` per event.
    #[inline]
    pub fn on_access_hashed(
        &self,
        tid: u32,
        addr: u64,
        h: u64,
        size: u32,
        kind: AccessKind,
    ) -> Option<Dependence> {
        debug_assert_eq!(h, lc_sigmem::murmur::fmix64(addr), "stale hash for addr");
        match kind {
            AccessKind::Read => {
                // Communication iff another thread wrote last and `tid` has
                // not read since (§V-A5 first-read-only semantics).
                let (writer, seen) = self.sig.read(addr, h, tid);
                writer.filter(|&w| w != tid && !seen).map(|src| Dependence {
                    src,
                    dst: tid,
                    bytes: size as u64,
                })
            }
            AccessKind::Write => {
                self.sig.write(addr, h, tid);
                None
            }
        }
    }

    /// Hint the signature that the slot for hash `h` is about to be
    /// consulted. Batched replay issues this a few events ahead so the
    /// slot's line is in flight when [`Self::on_access_hashed`] lands.
    #[inline]
    pub fn prefetch(&self, h: u64) {
        self.sig.prefetch(h);
    }

    /// Heap footprint of the signature.
    pub fn memory_bytes(&self) -> usize {
        self.sig.memory_bytes()
    }

    /// The signature (diagnostics, checkpoints).
    pub fn signature(&self) -> &S {
        &self.sig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_trace::AccessKind::{Read, Write};

    fn perfect() -> PerfectDetector {
        PerfectDetector::perfect()
    }

    #[test]
    fn basic_raw_dependence() {
        let d = perfect();
        assert_eq!(d.on_access(0, 0x10, 8, Write), None);
        assert_eq!(
            d.on_access(1, 0x10, 8, Read),
            Some(Dependence {
                src: 0,
                dst: 1,
                bytes: 8
            })
        );
    }

    #[test]
    fn self_dependence_is_not_communication() {
        let d = perfect();
        d.on_access(2, 0x10, 8, Write);
        assert_eq!(d.on_access(2, 0x10, 8, Read), None);
    }

    #[test]
    fn repeated_reads_count_once() {
        // §V-A5: only the first read per thread after a write communicates.
        let d = perfect();
        d.on_access(0, 0x10, 8, Write);
        assert!(d.on_access(1, 0x10, 8, Read).is_some());
        assert_eq!(d.on_access(1, 0x10, 8, Read), None);
        assert_eq!(d.on_access(1, 0x10, 8, Read), None);
    }

    #[test]
    fn new_write_resets_reader_history() {
        let d = perfect();
        d.on_access(0, 0x10, 8, Write);
        assert!(d.on_access(1, 0x10, 8, Read).is_some());
        // Thread 2 writes a fresh value; thread 1's next read is a new
        // communication from thread 2.
        d.on_access(2, 0x10, 8, Write);
        assert_eq!(
            d.on_access(1, 0x10, 8, Read),
            Some(Dependence {
                src: 2,
                dst: 1,
                bytes: 8
            })
        );
    }

    #[test]
    fn read_before_any_write_is_silent() {
        let d = perfect();
        assert_eq!(d.on_access(1, 0x99, 8, Read), None);
        // ...and doesn't fabricate a dependence once someone writes later.
        d.on_access(0, 0x99, 8, Write);
        assert!(d.on_access(1, 0x99, 8, Read).is_some());
    }

    #[test]
    fn multiple_readers_each_get_an_edge() {
        let d = perfect();
        d.on_access(0, 0x20, 4, Write);
        for tid in 1..5u32 {
            assert_eq!(
                d.on_access(tid, 0x20, 4, Read),
                Some(Dependence {
                    src: 0,
                    dst: tid,
                    bytes: 4
                })
            );
        }
    }

    #[test]
    fn asymmetric_matches_perfect_on_collision_free_input() {
        // With ample slots and few addresses, the approximate detector must
        // agree with the exact one event-for-event.
        let asym = AsymmetricDetector::asymmetric(SignatureConfig::paper_default(1 << 16, 8));
        let perf = perfect();
        let script: Vec<(u32, u64, AccessKind)> = vec![
            (0, 0x100, Write),
            (1, 0x100, Read),
            (1, 0x100, Read),
            (2, 0x108, Write),
            (0, 0x108, Read),
            (2, 0x100, Read),
            (0, 0x100, Write),
            (1, 0x100, Read),
        ];
        for (tid, addr, kind) in script {
            assert_eq!(
                asym.on_access(tid, addr, 8, kind),
                perf.on_access(tid, addr, 8, kind),
                "divergence at tid={tid} addr={addr:#x} {kind:?}"
            );
        }
    }

    #[test]
    fn tiny_signature_produces_false_positives_not_negatives() {
        // One slot: addresses alias. The detector may claim extra deps but
        // must still flag the true one.
        let asym = AsymmetricDetector::asymmetric(SignatureConfig {
            n_slots: 1,
            threads: 4,
        });
        asym.on_access(0, 0x10, 8, Write);
        let dep = asym.on_access(1, 0x10, 8, Read);
        assert_eq!(
            dep,
            Some(Dependence {
                src: 0,
                dst: 1,
                bytes: 8
            })
        );
    }

    #[test]
    fn hashed_path_matches_the_perfect_detector() {
        // `on_access` is `on_access_hashed` with the hash taken inline, so
        // the independent reference is the exact detector: on
        // collision-free input the signature path must agree with it.
        use lc_sigmem::murmur::fmix64;
        let script: Vec<(u32, u64, AccessKind)> = vec![
            (0, 0x100, Write),
            (1, 0x100, Read),
            (1, 0x100, Read),
            (2, 0x108, Write),
            (0, 0x108, Read),
            (2, 0x100, Read),
            (0, 0x100, Write),
            (1, 0x100, Read),
            (3, 0x110, Read),
        ];
        let reference = perfect();
        let hashed = AsymmetricDetector::asymmetric(SignatureConfig::paper_default(1 << 16, 4));
        for (tid, addr, kind) in script {
            assert_eq!(
                hashed.on_access_hashed(tid, addr, fmix64(addr), 8, kind),
                reference.on_access(tid, addr, 8, kind),
                "divergence at tid={tid} addr={addr:#x} {kind:?}"
            );
        }
    }

    #[test]
    fn memory_accounting_is_visible() {
        let asym = AsymmetricDetector::asymmetric(SignatureConfig::paper_default(1 << 10, 4));
        let before = asym.memory_bytes();
        for a in 0..100u64 {
            asym.on_access(0, a * 8, 8, Read);
        }
        assert_eq!(asym.memory_bytes(), before);
        assert!(asym.signature().read_occupied() > 0);
        assert_eq!(asym.signature().n_slots(), 1 << 10);
    }
}
