//! Property: checkpoint → serialize → restore → finish is **byte-identical**
//! (canonical report) to an uninterrupted streaming run AND to the offline
//! parallel replay, across both detectors × random checkpoint points ×
//! coalesce on/off × v2/v3 spool round trips.
//!
//! This is the end-to-end statement of the crash-resumability contract:
//! nothing about *where* the analysis was cut, *how* the state crossed the
//! serialization boundary, or *which* spool format carried the events may
//! perturb a single byte of the result.

use lc_profiler::{
    analyze_trace_asymmetric, analyze_trace_perfect, canonical_report, AccumConfig, Checkpoint,
    DetectorKind, IncrementalAnalyzer, ParReplayConfig, ProfilerConfig,
};
use lc_sigmem::SignatureConfig;
use lc_trace::{AccessEvent, AccessKind, FuncId, LoopId, StampedEvent, Trace};
use proptest::prelude::*;

const THREADS: u32 = 4;
const SLOTS: usize = 1 << 8;

fn arb_event() -> impl Strategy<Value = (u32, u64, bool, u8)> {
    // Small address pool maximizes RAW interleaving; a few loop ids
    // exercise the per-loop matrices through the snapshot.
    (0..THREADS, 0u64..24, any::<bool>(), 0u8..4)
}

fn script_to_trace(script: &[(u32, u64, bool, u8)]) -> Trace {
    Trace::new(
        script
            .iter()
            .enumerate()
            .map(|(i, &(tid, slot, is_write, lp))| StampedEvent {
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
                    loop_id: if lp == 0 {
                        LoopId::NONE
                    } else {
                        LoopId(lp as u32)
                    },
                    parent_loop: LoopId::NONE,
                    func: FuncId::NONE,
                    site: 0,
                },
            })
            .collect(),
    )
}

/// Round-trip the trace through the requested on-disk spool format, as the
/// CLI would: v2 through the CRC-framed stream writer, v3 through the
/// page-aligned indexed writer.
fn spool_round_trip(trace: &Trace, v3: bool, tag: u64) -> Trace {
    if v3 {
        let path =
            std::env::temp_dir().join(format!("lc_cp_prop_{}_{tag}.lcv3", std::process::id()));
        lc_trace::write_trace_spool_v3(trace, &path, 7).expect("write v3");
        let back = lc_trace::load_trace(&path).expect("read v3");
        std::fs::remove_file(lc_trace::index_path(&path)).ok();
        std::fs::remove_file(&path).ok();
        back
    } else {
        let mut buf = Vec::new();
        lc_trace::write_trace_spool(trace, &mut buf, 7).expect("write v2");
        lc_trace::read_trace(&buf[..]).expect("read v2")
    }
}

fn analyzer(kind: DetectorKind, jobs: usize) -> IncrementalAnalyzer {
    IncrementalAnalyzer::new(
        kind,
        SignatureConfig::paper_default(SLOTS, THREADS as usize),
        ProfilerConfig {
            threads: THREADS as usize,
            track_nested: true,
            phase_window: None,
        },
        AccumConfig::default(),
        jobs,
    )
}

fn stream(a: &mut IncrementalAnalyzer, events: &[StampedEvent], batch: usize) {
    for frame in events.chunks(batch.max(1)) {
        a.on_frame(frame);
    }
}

proptest! {
    #[test]
    fn checkpoint_restore_finish_is_byte_identical(
        script in prop::collection::vec(arb_event(), 1..250),
        cut_pct in 0u64..101,
        jobs in 1usize..4,
        batch in 1usize..18,
        perfect in any::<bool>(),
        coalesce in any::<bool>(),
        v3 in any::<bool>(),
    ) {
        let kind = if perfect { DetectorKind::Perfect } else { DetectorKind::Asymmetric };
        let trace = script_to_trace(&script);
        let tag = (script.len() as u64) << 32
            | cut_pct << 16
            | (jobs as u64) << 8
            | (batch as u64) << 3
            | (perfect as u64) << 2
            | (coalesce as u64) << 1
            | v3 as u64;
        let trace = spool_round_trip(&trace, v3, tag);
        let events = trace.events();
        let cut = (events.len() as u64 * cut_pct / 100) as usize;

        // Interrupted: stream to the cut, cross the full serialization
        // boundary (encode → decode), restore, stream the rest.
        let mut first = analyzer(kind, jobs);
        stream(&mut first, &events[..cut], batch);
        let blob = Checkpoint::capture(&first).encode();
        let cp = Checkpoint::decode(&blob).expect("decode checkpoint");
        let mut resumed = cp.restore().expect("restore");
        stream(&mut resumed, &events[cut..], batch);
        let resumed_report = canonical_report(&resumed.report(), resumed.events());

        // Uninterrupted streaming run.
        let mut straight = analyzer(kind, jobs);
        stream(&mut straight, events, batch);
        prop_assert_eq!(
            &resumed_report,
            &canonical_report(&straight.report(), straight.events())
        );

        // Offline parallel replay (the coalesce axis lives here).
        let prof = ProfilerConfig { threads: THREADS as usize, track_nested: true, phase_window: None };
        let par = ParReplayConfig { jobs, coalesce, batch_events: batch.max(1), ..ParReplayConfig::sequential() };
        let offline = match kind {
            DetectorKind::Asymmetric => analyze_trace_asymmetric(
                &trace,
                SignatureConfig::paper_default(SLOTS, THREADS as usize),
                prof,
                AccumConfig::default(),
                &par,
            ),
            DetectorKind::Perfect => analyze_trace_perfect(&trace, prof, AccumConfig::default(), &par),
        };
        prop_assert_eq!(
            &resumed_report,
            &canonical_report(&offline.report, events.len() as u64)
        );
    }
}
