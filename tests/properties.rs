//! Property-based tests over the detection semantics, matrices and
//! signature structures.

use lc_baselines::{exact_dependences, naive_pairwise};
use lc_profiler::{DenseMatrix, PerfectProfiler, ProfilerConfig, ThreadLoad};
use lc_sigmem::murmur::fmix64;
use lc_sigmem::{Signature, SignatureConfig, SlotSignature};
use lc_trace::{AccessEvent, AccessKind, FuncId, LoopId, StampedEvent, Trace};
use proptest::prelude::*;

const THREADS: u32 = 6;

fn arb_event() -> impl Strategy<Value = (u32, u64, bool)> {
    // Small address pool maximizes write/read interleaving interest.
    (0..THREADS, 0u64..24, any::<bool>())
}

fn script_to_trace(script: &[(u32, u64, bool)]) -> Trace {
    Trace::new(
        script
            .iter()
            .enumerate()
            .map(|(i, &(tid, slot, is_write))| StampedEvent {
                seq: i as u64,
                event: AccessEvent {
                    tid,
                    addr: 0x1000 + slot * 8,
                    size: 8,
                    kind: if is_write {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                    loop_id: LoopId::NONE,
                    parent_loop: LoopId::NONE,
                    func: FuncId::NONE,
                    site: 0,
                },
            })
            .collect(),
    )
}

proptest! {
    #[test]
    fn linear_and_quadratic_ground_truth_agree(script in prop::collection::vec(arb_event(), 1..300)) {
        let trace = script_to_trace(&script);
        prop_assert_eq!(exact_dependences(&trace), naive_pairwise(&trace));
    }

    #[test]
    fn perfect_profiler_equals_ground_truth(script in prop::collection::vec(arb_event(), 1..300)) {
        let trace = script_to_trace(&script);
        let p = PerfectProfiler::perfect(ProfilerConfig {
            threads: THREADS as usize,
            track_nested: false,
            phase_window: None,
        });
        trace.replay(&p);
        prop_assert_eq!(
            p.global_matrix(),
            exact_dependences(&trace).to_matrix(THREADS as usize)
        );
    }

    #[test]
    fn ample_signature_equals_ground_truth(
        script in prop::collection::vec(arb_event(), 1..300),
        wide in any::<bool>(),
    ) {
        // 2^16 slots vs ≤24 addresses: collision probability is negligible,
        // so Algorithm 1 over signatures must match the exact semantics.
        // `wide` lifts the tids to 34..40, so readers live in the second
        // word of a two-word slot.
        let shift = if wide { 34 } else { 0 };
        let threads = (THREADS + shift) as usize;
        let asym = lc_profiler::AsymmetricProfiler::asymmetric(
            SignatureConfig::paper_default(1 << 16, threads),
            ProfilerConfig { threads, track_nested: false, phase_window: None },
        );
        let script: Vec<_> = script.iter().map(|&(t, a, w)| (t + shift, a, w)).collect();
        let trace = script_to_trace(&script);
        trace.replay(&asym);
        prop_assert_eq!(
            asym.global_matrix(),
            exact_dependences(&trace).to_matrix(threads)
        );
    }

    #[test]
    fn read_signature_has_no_false_negatives(
        inserts in prop::collection::vec((0u64..4096, 0u32..64), 1..200),
        n_slots in 1usize..512,
    ) {
        let sig = SlotSignature::new(n_slots, 64);
        for &(addr, tid) in &inserts {
            sig.read(addr, fmix64(addr), tid);
        }
        for &(addr, tid) in &inserts {
            prop_assert!(sig.has_reader(addr, tid), "lost ({addr},{tid}) with {n_slots} slots");
        }
    }

    #[test]
    fn write_signature_returns_some_recorded_tid(
        records in prop::collection::vec((0u64..4096, 0u32..32), 1..200),
    ) {
        let sig = SlotSignature::new(64, 32);
        for &(addr, tid) in &records {
            sig.write(addr, fmix64(addr), tid);
        }
        // Any queried recorded address returns *a* recorded tid (aliasing
        // may substitute another thread's, never an unrecorded value).
        let tids: std::collections::HashSet<u32> = records.iter().map(|r| r.1).collect();
        for &(addr, _) in &records {
            let got = sig.last_writer(addr).expect("recorded address is present");
            prop_assert!(tids.contains(&got));
        }
    }

    #[test]
    fn matrix_accumulate_matches_scalar_sums(
        cells in prop::collection::vec((0usize..4, 0usize..4, 0u64..1000), 0..64),
    ) {
        let mut m = DenseMatrix::zero(4);
        let mut expect = 0u64;
        for &(i, j, v) in &cells {
            m.bump(i, j, v);
            expect += v;
        }
        prop_assert_eq!(m.total(), expect);
        prop_assert_eq!(m.row_sums().iter().sum::<u64>(), expect);
        prop_assert_eq!(m.col_sums().iter().sum::<u64>(), expect);
    }

    #[test]
    fn thread_load_eq1_scales_rows(
        cells in prop::collection::vec((0usize..4, 0usize..4, 0u64..1000), 0..64),
    ) {
        let mut m = DenseMatrix::zero(4);
        for &(i, j, v) in &cells {
            if i != j {
                m.bump(i, j, v);
            }
        }
        let tl = ThreadLoad::from_matrix(&m);
        // Σ threadLoad_i · t == total volume (Eq. 1 rearranged).
        let recon: f64 = tl.loads.iter().sum::<f64>() * 4.0;
        prop_assert!((recon - m.total() as f64).abs() < 1e-6);
    }

    #[test]
    fn l1_distance_is_a_metric_sample(
        a in prop::collection::vec(0u64..100, 16),
        b in prop::collection::vec(0u64..100, 16),
    ) {
        let ma = DenseMatrix::from_rows(4, a);
        let mb = DenseMatrix::from_rows(4, b);
        let d = ma.l1_distance(&mb);
        prop_assert!((0.0..=2.0 + 1e-12).contains(&d));
        prop_assert!((ma.l1_distance(&ma)).abs() < 1e-12);
        prop_assert!((d - mb.l1_distance(&ma)).abs() < 1e-12);
    }

    #[test]
    fn sd3_overlap_matches_brute_force(
        base_a in 0u64..200, stride_a in 0u64..20, count_a in 1u64..30,
        base_b in 0u64..200, stride_b in 0u64..20, count_b in 1u64..30,
    ) {
        use lc_baselines::StrideRecord;
        let a = StrideRecord { base: base_a, stride: stride_a, count: count_a, size: 8 };
        let b = StrideRecord { base: base_b, stride: stride_b, count: count_b, size: 8 };
        // Brute-force: enumerate both progressions, intersect.
        let set = |r: &StrideRecord| -> std::collections::HashSet<u64> {
            (0..r.count).map(|k| r.base + r.stride * k).collect()
        };
        let expect = set(&a).intersection(&set(&b)).count() as u64;
        // The GCD test assumes deduplicated progressions: stride-0 records
        // are points; positive strides are injective.
        prop_assume!(stride_a > 0 || count_a >= 1);
        let got = a.overlap_elems(&b);
        // For stride-0 "runs" (count>1 on one address) brute force dedups;
        // overlap_elems reports membership (0/1), matching the dedup view.
        prop_assert_eq!(got, expect, "a={:?} b={:?}", a, b);
        prop_assert_eq!(a.overlap_elems(&b), b.overlap_elems(&a));
    }

    #[test]
    fn trace_io_roundtrips_arbitrary_traces(
        script in prop::collection::vec(
            (0u32..16, 0u64..1_000_000, any::<bool>(), 1u32..64, 0u32..9, 0u64..4096),
            0..300,
        ),
    ) {
        use lc_trace::{read_trace, write_trace};
        let trace = Trace::new(
            script
                .iter()
                .enumerate()
                .map(|(i, &(tid, addr, is_write, size, lp, site))| StampedEvent {
                    seq: i as u64,
                    event: AccessEvent {
                        tid,
                        addr,
                        size,
                        kind: if is_write { AccessKind::Write } else { AccessKind::Read },
                        loop_id: LoopId(lp),
                        parent_loop: LoopId(lp / 2),
                        func: FuncId(lp % 3),
                        site,
                    },
                })
                .collect(),
        );
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        prop_assert_eq!(back.len(), trace.len());
        for (a, b) in trace.events().iter().zip(back.events()) {
            prop_assert_eq!(a.seq, b.seq);
            prop_assert_eq!(&a.event, &b.event); // sites < 2^32 here: lossless
        }
    }

    #[test]
    fn mapping_cost_is_invariant_under_socket_relabeling(
        cells in prop::collection::vec((0usize..16, 0usize..16, 1u64..1000), 1..60),
    ) {
        use lc_profiler::{MachineTopology, ThreadMapping};
        let topo = MachineTopology::dual_socket_xeon();
        let mut m = DenseMatrix::zero(16);
        for &(i, j, v) in &cells {
            if i != j {
                m.bump(i, j, v);
            }
        }
        let base = ThreadMapping::identity(16);
        // Swap the two sockets wholesale: distances are unchanged.
        let swapped = ThreadMapping {
            assignment: (0..16).map(|c| (c + 8) % 16).collect(),
        };
        prop_assert_eq!(base.cost(&m, &topo), swapped.cost(&m, &topo));
    }

    #[test]
    fn greedy_mapping_never_loses_to_identity_by_much(
        cells in prop::collection::vec((0usize..16, 0usize..16, 1u64..1000), 1..60),
    ) {
        use lc_profiler::{greedy_mapping, MachineTopology, ThreadMapping};
        let topo = MachineTopology::dual_socket_xeon();
        let mut m = DenseMatrix::zero(16);
        for &(i, j, v) in &cells {
            if i != j {
                m.bump(i, j, v);
            }
        }
        let greedy = greedy_mapping(&m, &topo).cost(&m, &topo);
        let identity = ThreadMapping::identity(16).cost(&m, &topo);
        // Local search makes greedy at least locally optimal; allow a small
        // slack for distinct local optima on adversarial random graphs.
        prop_assert!(
            greedy as f64 <= identity as f64 * 1.25 + 1.0,
            "greedy {greedy} vs identity {identity}"
        );
    }

    #[test]
    fn replay_is_idempotent(script in prop::collection::vec(arb_event(), 1..200)) {
        let trace = script_to_trace(&script);
        let once = {
            let p = PerfectProfiler::perfect(ProfilerConfig {
                threads: THREADS as usize, track_nested: false, phase_window: None,
            });
            trace.replay(&p);
            p.global_matrix()
        };
        let twice = {
            let p = PerfectProfiler::perfect(ProfilerConfig {
                threads: THREADS as usize, track_nested: false, phase_window: None,
            });
            trace.replay(&p);
            p.global_matrix()
        };
        prop_assert_eq!(once, twice);
    }
}

/// Pinned regression from `tests/properties.proptest-regressions`
/// (`base_a = 38, stride_a = 9, count_a = 17, base_b = 23, stride_b = 8,
/// count_b = 12`): the two progressions only meet where
/// `38 + 9i = 23 + 8j`, and the historical GCD/CRT walk mis-stepped the
/// first aligned element. Kept as a plain `#[test]` so the exact case runs
/// on every `cargo test` regardless of proptest seeding (the offline
/// proptest shim does not read regression files).
#[test]
fn sd3_overlap_pinned_regression() {
    use lc_baselines::StrideRecord;
    let a = StrideRecord {
        base: 38,
        stride: 9,
        count: 17,
        size: 8,
    };
    let b = StrideRecord {
        base: 23,
        stride: 8,
        count: 12,
        size: 8,
    };
    let set = |r: &StrideRecord| -> std::collections::HashSet<u64> {
        (0..r.count).map(|k| r.base + r.stride * k).collect()
    };
    let expect = set(&a).intersection(&set(&b)).count() as u64;
    assert_eq!(expect, 1); // both progressions contain exactly {47}
    assert_eq!(a.overlap_elems(&b), expect);
    assert_eq!(b.overlap_elems(&a), expect);
}
