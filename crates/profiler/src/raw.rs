//! Algorithm 1 — RAW thread-dependence detection over asymmetric
//! signature memory.
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

use lc_sigmem::{
    PerfectReaderSet, PerfectWriterMap, ReadSignature, ReaderSet, SignatureConfig, WriteSignature,
    WriterMap,
};
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

/// What one access observed inside Algorithm 1 — the telemetry layer's
/// view of a [`RawDetector::on_access_probed`] call. For writes both flags
/// stay `false`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessProbe {
    /// A read found a recorded last writer in the write signature.
    pub writer_hit: bool,
    /// The writer hit did not become a dependence: same thread, or the
    /// reader was already in the read signature (first-read-only rule).
    pub suppressed: bool,
}

/// Algorithm 1 over any read/write signature pair.
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
pub struct RawDetector<R: ReaderSet, W: WriterMap> {
    read_sig: R,
    write_sig: W,
}

/// The paper's detector: approximate, bounded-memory signatures.
pub type AsymmetricDetector = RawDetector<ReadSignature, WriteSignature>;

/// The §V-A3 baseline: exact, footprint-proportional structures.
pub type PerfectDetector = RawDetector<PerfectReaderSet, PerfectWriterMap>;

impl AsymmetricDetector {
    /// Build from a signature configuration.
    pub fn asymmetric(cfg: SignatureConfig) -> Self {
        let (read_sig, write_sig) = cfg.build();
        Self {
            read_sig,
            write_sig,
        }
    }
}

impl PerfectDetector {
    /// Build the collision-free baseline detector.
    pub fn perfect() -> Self {
        Self {
            read_sig: PerfectReaderSet::new(),
            write_sig: PerfectWriterMap::new(),
        }
    }
}

impl<R: ReaderSet, W: WriterMap> RawDetector<R, W> {
    /// Build from explicit signature halves.
    pub fn from_parts(read_sig: R, write_sig: W) -> Self {
        Self {
            read_sig,
            write_sig,
        }
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
    /// [`lc_sigmem::hash_block`] and feed each event's hash to all of its
    /// signature consultations (last-writer probe, read-set membership,
    /// insert/clear/record) — one `fmix64` per event.
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
                // Membership test and first-read bookkeeping in one
                // signature traversal (see module docs): `was_present` is
                // the pre-insert state, exactly what the old
                // `contains` + unconditional `insert` pair observed.
                let writer = self.write_sig.last_writer_hashed(addr, h);
                let was_present = self.read_sig.insert_contains_hashed(addr, h, tid);
                match writer {
                    Some(writer) if writer != tid && !was_present => Some(Dependence {
                        src: writer,
                        dst: tid,
                        bytes: size as u64,
                    }),
                    _ => None,
                }
            }
            AccessKind::Write => {
                // A new value invalidates the reader history: subsequent
                // reads are fresh communications from this writer.
                self.read_sig.clear_addr_hashed(addr, h);
                self.write_sig.record_hashed(addr, h, tid);
                None
            }
        }
    }

    /// Hint both signature halves that the slots for hash `h` are about to
    /// be consulted. Batched replay issues this a few events ahead so the
    /// slot lines are in flight when [`Self::on_access_hashed`] lands.
    #[inline]
    pub fn prefetch(&self, h: u64) {
        ReaderSet::prefetch(&self.read_sig, h);
        WriterMap::prefetch(&self.write_sig, h);
    }

    /// [`Self::on_access`] plus a probe describing what the signatures
    /// observed, for the telemetry layer. Kept as a separate body so the
    /// metrics-off hot path stays literally untouched (the zero-cost-when-off
    /// argument in DESIGN.md §8); the `telemetry_differential` test pins the
    /// two paths to identical dependence streams.
    #[inline]
    pub fn on_access_probed(
        &self,
        tid: u32,
        addr: u64,
        size: u32,
        kind: AccessKind,
    ) -> (Option<Dependence>, AccessProbe) {
        match kind {
            AccessKind::Read => {
                let mut probe = AccessProbe::default();
                let dep = match self.write_sig.last_writer(addr) {
                    Some(writer) => {
                        probe.writer_hit = true;
                        if writer != tid && !self.read_sig.contains(addr, tid) {
                            Some(Dependence {
                                src: writer,
                                dst: tid,
                                bytes: size as u64,
                            })
                        } else {
                            probe.suppressed = true;
                            None
                        }
                    }
                    None => None,
                };
                self.read_sig.insert(addr, tid);
                (dep, probe)
            }
            AccessKind::Write => {
                self.read_sig.clear_addr(addr);
                self.write_sig.record(addr, tid);
                (None, AccessProbe::default())
            }
        }
    }

    /// Combined heap footprint of both signatures.
    pub fn memory_bytes(&self) -> usize {
        self.read_sig.memory_bytes() + self.write_sig.memory_bytes()
    }

    /// The read half (diagnostics).
    pub fn read_sig(&self) -> &R {
        &self.read_sig
    }

    /// The write half (diagnostics).
    pub fn write_sig(&self) -> &W {
        &self.write_sig
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
            fp_rate: 0.5,
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
    fn probed_path_matches_plain_path_and_classifies() {
        // Two detectors fed the same script: the probed body must return the
        // exact dependences of the plain body, plus sensible probe flags.
        let plain = perfect();
        let probed = perfect();
        let script: Vec<(u32, u64, AccessKind)> = vec![
            (0, 0x10, Write),
            (1, 0x10, Read), // writer hit, dep
            (1, 0x10, Read), // writer hit, suppressed (already read)
            (0, 0x10, Read), // writer hit, suppressed (self)
            (2, 0x99, Read), // writer miss
            (3, 0x10, Write),
            (1, 0x10, Read), // fresh dep from 3
        ];
        let mut probes = Vec::new();
        for (tid, addr, kind) in script {
            let (dep, probe) = probed.on_access_probed(tid, addr, 8, kind);
            assert_eq!(dep, plain.on_access(tid, addr, 8, kind));
            probes.push(probe);
        }
        let hit = |w, s| AccessProbe {
            writer_hit: w,
            suppressed: s,
        };
        assert_eq!(
            probes,
            vec![
                hit(false, false), // write
                hit(true, false),
                hit(true, true),
                hit(true, true),
                hit(false, false), // miss
                hit(false, false), // write
                hit(true, false),
            ]
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
        assert!(asym.memory_bytes() >= before);
        assert!(asym.read_sig().allocated_filters() > 0);
        assert_eq!(asym.write_sig().n_slots(), 1 << 10);
    }
}
