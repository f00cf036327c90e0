//! Full offline pipeline: record → save → load → analyze must equal
//! in-memory analysis of the same recording.

use std::path::Path;
use std::sync::Arc;

use lc_profiler::{PerfectProfiler, ProfilerConfig};
use lc_trace::{load_trace, write_trace_spool_v3, RecordingSink, Trace, DEFAULT_FRAME_EVENTS};
use loopcomm::prelude::*;

/// Save `trace` in the format every recorder writes (a v3 spool).
fn save(trace: &Trace, path: &Path) {
    write_trace_spool_v3(trace, path, DEFAULT_FRAME_EVENTS).unwrap();
}

fn flat(threads: usize) -> ProfilerConfig {
    ProfilerConfig {
        threads,
        track_nested: false,
        phase_window: None,
    }
}

#[test]
fn file_roundtrip_preserves_analysis_results() {
    let threads = 4;
    let rec = Arc::new(RecordingSink::new());
    let ctx = TraceCtx::new(rec.clone(), threads);
    by_name("ocean_ncp")
        .unwrap()
        .run(&ctx, &RunConfig::new(threads, InputSize::SimDev, 17));
    let trace = rec.finish();

    let dir = std::env::temp_dir().join("lc_pipeline_test");
    let path = dir.join("ocean.lctrace");
    save(&trace, &path);
    let reloaded = load_trace(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(reloaded.len(), trace.len());
    assert_eq!(reloaded.stats(), trace.stats());

    let direct = PerfectProfiler::perfect(flat(threads));
    trace.replay(&direct);
    let from_file = PerfectProfiler::perfect(flat(threads));
    reloaded.replay(&from_file);
    assert_eq!(direct.global_matrix(), from_file.global_matrix());
    assert_eq!(direct.dependencies(), from_file.dependencies());
}

#[test]
fn per_site_streams_survive_the_file_format() {
    // SD3 keys on the site id; a saved/loaded trace must compress the
    // same way as the live stream (low 32 site bits are preserved and
    // sites are distinct within a process).
    let threads = 4;
    let rec = Arc::new(RecordingSink::new());
    let ctx = TraceCtx::new(rec.clone(), threads);
    by_name("ocean_cp")
        .unwrap()
        .run(&ctx, &RunConfig::new(threads, InputSize::SimDev, 3));
    let trace = rec.finish();

    let dir = std::env::temp_dir().join("lc_pipeline_sites");
    let path = dir.join("t.lctrace");
    save(&trace, &path);
    let reloaded = load_trace(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let live = lc_baselines::Sd3Profiler::new(threads);
    trace.replay(&live);
    let offline = lc_baselines::Sd3Profiler::new(threads);
    reloaded.replay(&offline);
    assert_eq!(live.record_count(), offline.record_count());
    assert_eq!(live.analyze(), offline.analyze());
}
