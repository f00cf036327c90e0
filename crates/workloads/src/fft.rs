//! `fft` — six-step (transpose-based) complex FFT, SPLASH-2 FFT skeleton.
//!
//! The length-n transform (n = m²) is computed as m row FFTs, a twiddle
//! scaling, and m column FFTs. Rows are distributed over threads; the
//! column pass reads data written by *every* other thread — the transpose
//! all-to-all that gives spectral codes their signature communication
//! pattern. Local butterfly scratch is uninstrumented (the user-selected
//! "do not analyze" partition of §IV-A); the shared input/intermediate/
//! output arrays are fully traced.

use std::sync::Arc;

use lc_trace::{enter_func, enter_loop, run_threads, InstrumentedBarrier, TraceCtx};

use crate::rng::Xoshiro256;
use crate::util::chunk;
use crate::{RunConfig, Workload, WorkloadResult};

/// In-place iterative radix-2 Cooley–Tukey FFT (decimation in time).
pub fn fft_inplace(re: &mut [f64], im: &mut [f64]) {
    let n = re.len();
    assert!(n.is_power_of_two() && n == im.len());
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 0..n {
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
        let mut bit = n >> 1;
        while bit > 0 && j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
    }
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let (mut cr, mut ci) = (1.0f64, 0.0f64);
            for k in 0..len / 2 {
                let (ur, ui) = (re[i + k], im[i + k]);
                let (vr, vi) = (
                    re[i + k + len / 2] * cr - im[i + k + len / 2] * ci,
                    re[i + k + len / 2] * ci + im[i + k + len / 2] * cr,
                );
                re[i + k] = ur + vr;
                im[i + k] = ui + vi;
                re[i + k + len / 2] = ur - vr;
                im[i + k + len / 2] = ui - vi;
                let ncr = cr * wr - ci * wi;
                ci = cr * wi + ci * wr;
                cr = ncr;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Naive O(n²) DFT, the correctness oracle of this module's tests.
pub fn naive_dft(re: &[f64], im: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let n = re.len();
    let mut or = vec![0.0; n];
    let mut oi = vec![0.0; n];
    for (k, (orv, oiv)) in or.iter_mut().zip(oi.iter_mut()).enumerate() {
        for j in 0..n {
            let ang = -2.0 * std::f64::consts::PI * (j * k % n) as f64 / n as f64;
            let (c, s) = (ang.cos(), ang.sin());
            *orv += re[j] * c - im[j] * s;
            *oiv += re[j] * s + im[j] * c;
        }
    }
    (or, oi)
}

/// The six-step FFT workload.
pub struct Fft;

impl Fft {
    /// Run the six-step transform under `ctx`: the random input (real,
    /// imaginary) and its transform (real, imaginary).
    fn transform(ctx: &Arc<TraceCtx>, cfg: &RunConfig) -> [Vec<f64>; 4] {
        let m = cfg.size.pick(16usize, 32, 64); // n = m*m
        let n = m * m;
        let iters = cfg.size.pick(6, 8, 10);
        let t = cfg.threads.min(m);

        let xr = ctx.alloc::<f64>(n);
        let xi = ctx.alloc::<f64>(n);
        let dr = ctx.alloc::<f64>(n); // intermediate D[j1][k2], row-major
        let di = ctx.alloc::<f64>(n);
        let yr = ctx.alloc::<f64>(n);
        let yi = ctx.alloc::<f64>(n);

        let mut rng = Xoshiro256::seed_from(cfg.seed);
        let input_re: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let input_im: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        for i in 0..n {
            xr.poke(i, input_re[i]);
            xi.poke(i, input_im[i]);
        }

        let f = ctx.func("fft");
        let l_iter = ctx.root_loop("fft_iter", f);
        let l_rows = ctx.nested_loop("row_ffts", l_iter, f);
        let l_cols = ctx.nested_loop("col_ffts", l_iter, f);
        let bar = InstrumentedBarrier::new(ctx, t, "fft_barrier", f);

        run_threads(t, |tid| {
            let _fg = enter_func(f);
            let (lo, hi) = chunk(m, t, tid);
            let mut sr = vec![0.0f64; m];
            let mut si = vec![0.0f64; m];
            for _ in 0..iters {
                let _ig = enter_loop(l_iter);
                {
                    // Step 1+2: row j1 gathers the stride-m slice of x,
                    // FFTs it locally, applies twiddles, stores to D.
                    let _g = enter_loop(l_rows);
                    for j1 in lo..hi {
                        for j2 in 0..m {
                            sr[j2] = xr.load(j1 + m * j2);
                            si[j2] = xi.load(j1 + m * j2);
                        }
                        fft_inplace(&mut sr, &mut si);
                        for k2 in 0..m {
                            let ang = -2.0 * std::f64::consts::PI * (j1 * k2) as f64 / n as f64;
                            let (c, s) = (ang.cos(), ang.sin());
                            dr.store(j1 * m + k2, sr[k2] * c - si[k2] * s);
                            di.store(j1 * m + k2, sr[k2] * s + si[k2] * c);
                        }
                    }
                }
                bar.wait();
                {
                    // Step 3: column k2 of D was written by all row owners —
                    // the transpose all-to-all. FFT it and scatter to y.
                    let _g = enter_loop(l_cols);
                    for k2 in lo..hi {
                        for j1 in 0..m {
                            sr[j1] = dr.load(j1 * m + k2);
                            si[j1] = di.load(j1 * m + k2);
                        }
                        fft_inplace(&mut sr, &mut si);
                        for k1 in 0..m {
                            yr.store(k2 + m * k1, sr[k1]);
                            yi.store(k2 + m * k1, si[k1]);
                        }
                    }
                }
                bar.wait();
            }
        });

        let out_re = (0..n).map(|k| yr.peek(k)).collect();
        let out_im = (0..n).map(|k| yi.peek(k)).collect();
        [input_re, input_im, out_re, out_im]
    }
}

impl Workload for Fft {
    fn name(&self) -> &'static str {
        "fft"
    }

    fn description(&self) -> &'static str {
        "six-step transpose FFT: row FFTs, twiddle, all-to-all column FFTs"
    }

    /// The transform, checked by Parseval's theorem (O(n)); the tests
    /// check it against the O(n²) DFT.
    fn run(&self, ctx: &Arc<TraceCtx>, cfg: &RunConfig) -> WorkloadResult {
        let [in_re, in_im, out_re, out_im] = Self::transform(ctx, cfg);
        let energy =
            |re: &[f64], im: &[f64]| -> f64 { re.iter().zip(im).map(|(r, i)| r * r + i * i).sum() };
        let ein = energy(&in_re, &in_im);
        let eout = energy(&out_re, &out_im) / out_re.len() as f64;
        assert!(
            ((ein - eout) / ein).abs() < 1e-9,
            "Parseval violated: {ein} vs {eout}"
        );
        let checksum = out_re
            .iter()
            .zip(&out_im)
            .map(|(r, i)| r.abs() + i.abs())
            .sum();
        WorkloadResult { checksum }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InputSize;
    use lc_trace::{NoopSink, RecordingSink};

    #[test]
    fn fft_inplace_matches_naive_dft() {
        let mut rng = Xoshiro256::seed_from(5);
        let re: Vec<f64> = (0..64).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let im: Vec<f64> = (0..64).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let (er, ei) = naive_dft(&re, &im);
        let (mut gr, mut gi) = (re.clone(), im.clone());
        fft_inplace(&mut gr, &mut gi);
        for k in 0..64 {
            assert!((gr[k] - er[k]).abs() < 1e-9, "re mismatch at {k}");
            assert!((gi[k] - ei[k]).abs() < 1e-9, "im mismatch at {k}");
        }
    }

    #[test]
    fn six_step_workload_validates_internally() {
        // The run() itself checks Parseval's theorem.
        let ctx = TraceCtx::new(Arc::new(NoopSink), 4);
        let r = Fft.run(&ctx, &RunConfig::new(4, InputSize::SimDev, 42));
        assert!(r.checksum.is_finite() && r.checksum > 0.0);
    }

    /// The six-step transform equals the O(n²) DFT at the two sizes whose
    /// n is at most 1 024 (SimDev n = 256, SimSmall n = 1 024).
    #[test]
    fn six_step_transform_matches_naive_dft() {
        for size in [InputSize::SimDev, InputSize::SimSmall] {
            let ctx = TraceCtx::new(Arc::new(NoopSink), 4);
            let [in_re, in_im, out_re, out_im] = Fft::transform(&ctx, &RunConfig::new(4, size, 42));
            let (er, ei) = naive_dft(&in_re, &in_im);
            for k in 0..out_re.len() {
                assert!(
                    (out_re[k] - er[k]).abs() < 1e-6 && (out_im[k] - ei[k]).abs() < 1e-6,
                    "{size:?}: fft mismatch at {k}: got ({},{}) want ({},{})",
                    out_re[k],
                    out_im[k],
                    er[k],
                    ei[k]
                );
            }
        }
    }

    #[test]
    fn checksum_is_thread_count_independent() {
        let c = |t| {
            let ctx = TraceCtx::new(Arc::new(NoopSink), t);
            Fft.run(&ctx, &RunConfig::new(t, InputSize::SimDev, 9))
                .checksum
        };
        assert!((c(1) - c(4)).abs() < 1e-6);
    }

    #[test]
    fn column_pass_reads_cross_thread_data() {
        let rec = Arc::new(RecordingSink::new());
        let ctx = TraceCtx::new(rec.clone(), 4);
        Fft.run(&ctx, &RunConfig::new(4, InputSize::SimDev, 1));
        let trace = rec.finish();
        let col_loop = ctx
            .loops()
            .all_loops()
            .into_iter()
            .find(|l| ctx.loops().name(*l) == "col_ffts")
            .unwrap();
        let col_reads = trace
            .events()
            .iter()
            .filter(|e| e.event.loop_id == col_loop)
            .count();
        assert!(col_reads > 1000);
    }
}
