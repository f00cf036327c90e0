//! # lc-workloads — SPLASH-style instrumented parallel kernels
//!
//! The evaluation substrate: the fourteen SPLASH applications the paper
//! profiles (§V), re-implemented as compact Rust kernels over the
//! `lc-trace` instrumentation API. Each kernel preserves the original's
//! algorithmic skeleton and — crucially for this paper — its inter-thread
//! **communication topology**:
//!
//! | kernel | topology |
//! |---|---|
//! | `radix` | per-digit histograms + all-to-all scan + permutation |
//! | `fft` | six-step transpose (all-to-all / spectral) |
//! | `lu_cb`, `lu_ncb` | blocked LU: diag broadcast + panel updates |
//! | `cholesky` | blocked right-looking factorization |
//! | `ocean_cp` | red-black SOR, row slabs (1-D neighbours) |
//! | `ocean_ncp` | Jacobi, 2-D tiles (4-neighbours) |
//! | `water_nsq` | O(n²) MD: all-to-all position reads |
//! | `water_spatial` | cell-list MD: spatial neighbours |
//! | `barnes` | Barnes–Hut: tree built by one, read by all |
//! | `fmm` | near/far field: neighbours + aggregate exchange |
//! | `raytrace` | shared scene + dynamic tile queue (master/worker-ish) |
//! | `radiosity` | Jacobi energy exchange, even all-to-all |
//! | `volrend` | shared volume raycast, tile queue |
//!
//! Alongside the SPLASH set, [`false_sharing`] registers three engineered
//! kernels (`fs_unpadded`, `fs_padded`, `fs_straddle`) whose communication
//! is invisible to the RAW matrices but lights up the coherence backend —
//! the ground truth for false-sharing detection.
//!
//! Every kernel validates its own numerical result (sorted output, residual
//! reduction, force/energy sanity, …) so that profiling never silently
//! measures a broken computation.

#![warn(missing_docs)]

use std::sync::Arc;

use lc_trace::TraceCtx;

pub mod barnes;
pub mod cholesky;
pub mod false_sharing;
pub mod fft;
pub mod fmm;
pub mod lu;
pub mod ocean;
pub mod radiosity;
pub mod radix;
pub mod raytrace;
pub mod rng;
pub mod synthetic;
pub mod util;
pub mod volrend;
pub mod water;

/// Input-size class, mirroring SPLASH's `simdev`/`simsmall`/`simlarge`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InputSize {
    /// Tiny development input (the paper's Figure 4/5a setting).
    SimDev,
    /// Small input.
    SimSmall,
    /// Large input (the paper's Figure 5b setting).
    SimLarge,
}

impl InputSize {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            InputSize::SimDev => "simdev",
            InputSize::SimSmall => "simsmall",
            InputSize::SimLarge => "simlarge",
        }
    }

    /// Pick among three per-size values.
    pub fn pick<T: Copy>(self, dev: T, small: T, large: T) -> T {
        match self {
            InputSize::SimDev => dev,
            InputSize::SimSmall => small,
            InputSize::SimLarge => large,
        }
    }
}

/// Parameters of one workload execution.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Number of worker threads.
    pub threads: usize,
    /// Input-size class.
    pub size: InputSize,
    /// RNG seed (same seed → same trace for race-free kernels).
    pub seed: u64,
}

impl RunConfig {
    /// Convenience constructor.
    pub fn new(threads: usize, size: InputSize, seed: u64) -> Self {
        assert!(threads >= 1);
        Self {
            threads,
            size,
            seed,
        }
    }
}

/// Outcome of one workload execution.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadResult {
    /// Deterministic numerical digest of the computed output (scheduling
    /// independent for race-free kernels).
    pub checksum: f64,
}

/// A runnable instrumented kernel.
pub trait Workload: Send + Sync {
    /// SPLASH-style name (e.g. `"lu_ncb"`).
    fn name(&self) -> &'static str;

    /// One-line description.
    fn description(&self) -> &'static str;

    /// Execute under `ctx`'s instrumentation. Panics on validation failure.
    fn run(&self, ctx: &Arc<TraceCtx>, cfg: &RunConfig) -> WorkloadResult;

    /// Fewest worker threads [`Workload::run`] accepts.
    fn min_threads(&self) -> usize {
        1
    }
}

/// All registered workloads: the fourteen SPLASH-style kernels in the
/// paper's Figure 4 order, followed by the engineered false-sharing
/// kernels the coherence backend is validated against.
pub fn all_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(barnes::Barnes),
        Box::new(fmm::Fmm),
        Box::new(ocean::OceanCp),
        Box::new(ocean::OceanNcp),
        Box::new(radiosity::Radiosity),
        Box::new(raytrace::Raytrace),
        Box::new(volrend::Volrend),
        Box::new(water::WaterNsq),
        Box::new(water::WaterSpatial),
        Box::new(cholesky::Cholesky),
        Box::new(fft::Fft),
        Box::new(lu::LuCb),
        Box::new(lu::LuNcb),
        Box::new(radix::Radix),
        Box::new(false_sharing::FsCounters { padded: false }),
        Box::new(false_sharing::FsCounters { padded: true }),
        Box::new(false_sharing::FsStraddle),
    ]
}

/// Look up a workload by name.
pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    all_workloads().into_iter().find(|w| w.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_fourteen_splash_kernels_plus_fs_trio() {
        let ws = all_workloads();
        assert_eq!(ws.len(), 17, "14 SPLASH kernels + 3 false-sharing kernels");
        let mut names: Vec<&str> = ws.iter().map(|w| w.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 17);
        for fs in ["fs_unpadded", "fs_padded", "fs_straddle"] {
            assert!(by_name(fs).is_some(), "{fs} must be registered");
        }
    }

    #[test]
    fn by_name_finds_and_misses() {
        assert!(by_name("radix").is_some());
        assert!(by_name("lu_ncb").is_some());
        assert!(by_name("does_not_exist").is_none());
    }

    #[test]
    fn input_size_pick() {
        assert_eq!(InputSize::SimDev.pick(1, 2, 3), 1);
        assert_eq!(InputSize::SimSmall.pick(1, 2, 3), 2);
        assert_eq!(InputSize::SimLarge.pick(1, 2, 3), 3);
        assert_eq!(InputSize::SimLarge.name(), "simlarge");
    }
}
