//! Communication matrices.
//!
//! §IV-D: "Communication matrix is a n × n adjacency matrix while n is the
//! number of threads available in the program. It defines the volume of
//! data dependencies among the threads while the program is running."
//!
//! [`CommMatrix`] is the concurrent accumulator updated inline by
//! application threads (cell `[src][dst]` counts bytes communicated from
//! producer `src` to consumer `dst`); [`DenseMatrix`] is its immutable
//! snapshot with the arithmetic the reports, metrics and classifier need.

use std::sync::atomic::{AtomicU64, Ordering};

/// Concurrent t×t byte-volume accumulator.
///
/// Plain (unpadded) atomics: with t ≤ 64 a matrix is ≤ 32 KiB, and padding
/// every cell to a cache line would multiply the per-loop matrix footprint
/// by 16 for a structure the paper calls "negligible in comparison with the
/// size of signature memory" (§V-A2). Cross-thread contention on shared
/// cells is bounded a layer up instead: the fused engine ([`crate::fused`])
/// folds a block's dependences by `(loop, src, dst)` key and calls `add`
/// once per distinct key per block, not once per dependence. Cell addition
/// is commutative, which is what makes that folding lossless.
#[derive(Debug)]
pub struct CommMatrix {
    t: usize,
    cells: Box<[AtomicU64]>,
}

impl CommMatrix {
    /// New zeroed matrix for `t` threads.
    pub fn new(t: usize) -> Self {
        assert!(t >= 1);
        let cells = (0..t * t).map(|_| AtomicU64::new(0)).collect();
        Self { t, cells }
    }

    /// Thread count.
    pub fn threads(&self) -> usize {
        self.t
    }

    /// Record `bytes` communicated from producer `src` to consumer `dst`.
    #[inline]
    pub fn add(&self, src: u32, dst: u32, bytes: u64) {
        debug_assert!((src as usize) < self.t && (dst as usize) < self.t);
        self.cells[src as usize * self.t + dst as usize].fetch_add(bytes, Ordering::Relaxed);
    }

    /// Current value of one cell.
    pub fn get(&self, src: u32, dst: u32) -> u64 {
        self.cells[src as usize * self.t + dst as usize].load(Ordering::Relaxed)
    }

    /// Accumulate a dense snapshot into this live matrix — the checkpoint
    /// restore path (cell addition is commutative, so seeding before replay
    /// resumes is equivalent to having recorded the prefix live).
    pub fn add_dense(&self, other: &DenseMatrix) {
        assert_eq!(self.t, other.t, "matrix thread-count mismatch");
        for (cell, &v) in self.cells.iter().zip(&other.data) {
            if v != 0 {
                cell.fetch_add(v, Ordering::Relaxed);
            }
        }
    }

    /// Immutable snapshot.
    pub fn snapshot(&self) -> DenseMatrix {
        DenseMatrix {
            t: self.t,
            data: self
                .cells
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.cells.len() * 8
    }
}

/// Immutable t×t byte-volume matrix with report/metric arithmetic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DenseMatrix {
    t: usize,
    data: Vec<u64>,
}

impl DenseMatrix {
    /// New zero matrix.
    pub fn zero(t: usize) -> Self {
        assert!(t >= 1);
        Self {
            t,
            data: vec![0; t * t],
        }
    }

    /// Build from row-major data.
    pub fn from_rows(t: usize, data: Vec<u64>) -> Self {
        assert_eq!(data.len(), t * t);
        Self { t, data }
    }

    /// Thread count.
    pub fn threads(&self) -> usize {
        self.t
    }

    /// Cell value.
    #[inline]
    pub fn get(&self, src: usize, dst: usize) -> u64 {
        self.data[src * self.t + dst]
    }

    /// Set a cell.
    #[inline]
    pub fn set(&mut self, src: usize, dst: usize, v: u64) {
        self.data[src * self.t + dst] = v;
    }

    /// Add to a cell.
    #[inline]
    pub fn bump(&mut self, src: usize, dst: usize, v: u64) {
        self.data[src * self.t + dst] += v;
    }

    /// Row-major data.
    pub fn data(&self) -> &[u64] {
        &self.data
    }

    /// Element-wise sum (the "final communication matrix can be obtained by
    /// summing all its child matrices together", §V-A4).
    pub fn add(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.t, other.t);
        DenseMatrix {
            t: self.t,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// In-place element-wise accumulate.
    pub fn accumulate(&mut self, other: &DenseMatrix) {
        assert_eq!(self.t, other.t);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Element-wise saturating difference.
    pub fn saturating_sub(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.t, other.t);
        DenseMatrix {
            t: self.t,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
        }
    }

    /// Total communicated bytes.
    pub fn total(&self) -> u64 {
        self.data.iter().sum()
    }

    /// True when no communication was recorded.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|&v| v == 0)
    }

    /// Per-producer row sums.
    pub fn row_sums(&self) -> Vec<u64> {
        (0..self.t)
            .map(|i| self.data[i * self.t..(i + 1) * self.t].iter().sum())
            .collect()
    }

    /// Per-consumer column sums.
    pub fn col_sums(&self) -> Vec<u64> {
        (0..self.t)
            .map(|j| (0..self.t).map(|i| self.get(i, j)).sum())
            .collect()
    }

    /// Largest cell value.
    pub fn max(&self) -> u64 {
        self.data.iter().copied().max().unwrap_or(0)
    }

    /// Values normalized to fractions of the total (all-zero stays zero).
    pub fn normalized(&self) -> Vec<f64> {
        let total = self.total();
        if total == 0 {
            return vec![0.0; self.data.len()];
        }
        self.data.iter().map(|&v| v as f64 / total as f64).collect()
    }

    /// L1 distance between the normalized forms — the phase-transition
    /// metric ∈ [0, 2].
    pub fn l1_distance(&self, other: &DenseMatrix) -> f64 {
        assert_eq!(self.t, other.t);
        self.normalized()
            .iter()
            .zip(other.normalized())
            .map(|(a, b)| (a - b).abs())
            .sum()
    }

    /// Symmetry score ∈ [0, 1]: 1 for perfectly symmetric communication.
    pub fn symmetry(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 1.0;
        }
        let asym: u64 = (0..self.t)
            .flat_map(|i| (0..self.t).map(move |j| (i, j)))
            .filter(|(i, j)| i < j)
            .map(|(i, j)| self.get(i, j).abs_diff(self.get(j, i)))
            .sum();
        1.0 - asym as f64 / total as f64
    }

    /// ASCII heat map in the style of the paper's Figures 6–8 (producer
    /// rows top-to-bottom, consumer columns left-to-right, darker = more).
    pub fn heatmap(&self) -> String {
        const SHADES: &[u8] = b" .:-=+*#%@";
        let max = self.max();
        let mut out = String::with_capacity((self.t + 3) * (self.t + 3));
        out.push_str(&format!("      consumers 0..{}\n", self.t - 1));
        for i in 0..self.t {
            out.push_str(&format!("{i:>4} |"));
            for j in 0..self.t {
                let v = self.get(i, j);
                let shade = if max == 0 || v == 0 {
                    b' '
                } else {
                    // log scale: tiny values visible, peaks saturated
                    let f = ((v as f64).ln_1p() / (max as f64).ln_1p()).clamp(0.0, 1.0);
                    SHADES[((f * (SHADES.len() - 1) as f64).round() as usize).min(SHADES.len() - 1)]
                };
                out.push(shade as char);
            }
            out.push_str("|\n");
        }
        out
    }

    /// CSV rendering (one row per producer).
    pub fn to_csv(&self) -> String {
        let mut s = String::new();
        for i in 0..self.t {
            let row: Vec<String> = (0..self.t).map(|j| self.get(i, j).to_string()).collect();
            s.push_str(&row.join(","));
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn concurrent_adds_accumulate() {
        let m = Arc::new(CommMatrix::new(4));
        let mut hs = Vec::new();
        for tid in 0..4u32 {
            let m = Arc::clone(&m);
            hs.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    m.add(tid, (tid + 1) % 4, 8);
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        let s = m.snapshot();
        assert_eq!(s.total(), 4 * 1000 * 8);
        assert_eq!(s.get(0, 1), 8000);
        assert_eq!(m.get(0, 1), 8000);
        assert_eq!(m.memory_bytes(), 16 * 8);
    }

    #[test]
    fn sums_and_totals() {
        let mut m = DenseMatrix::zero(3);
        m.set(0, 1, 10);
        m.set(1, 2, 5);
        m.bump(1, 2, 5);
        assert_eq!(m.total(), 20);
        assert_eq!(m.row_sums(), vec![10, 10, 0]);
        assert_eq!(m.col_sums(), vec![0, 10, 10]);
        assert_eq!(m.max(), 10);
        assert!(!m.is_zero());
    }

    #[test]
    fn add_and_accumulate_agree() {
        let mut a = DenseMatrix::zero(2);
        a.set(0, 1, 3);
        let mut b = DenseMatrix::zero(2);
        b.set(1, 0, 4);
        let c = a.add(&b);
        let mut d = a.clone();
        d.accumulate(&b);
        assert_eq!(c, d);
        assert_eq!(c.total(), 7);
        assert_eq!(c.saturating_sub(&a), b);
    }

    #[test]
    fn normalized_sums_to_one() {
        let mut m = DenseMatrix::zero(2);
        m.set(0, 1, 1);
        m.set(1, 0, 3);
        let n = m.normalized();
        assert!((n.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((n[1] - 0.25).abs() < 1e-12);
        assert!(DenseMatrix::zero(2).normalized().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn l1_distance_bounds() {
        let mut a = DenseMatrix::zero(2);
        a.set(0, 1, 10);
        let mut b = DenseMatrix::zero(2);
        b.set(1, 0, 10);
        assert!((a.l1_distance(&b) - 2.0).abs() < 1e-12); // disjoint support
        assert_eq!(a.l1_distance(&a), 0.0);
    }

    #[test]
    fn symmetry_score() {
        let mut sym = DenseMatrix::zero(3);
        sym.set(0, 1, 5);
        sym.set(1, 0, 5);
        assert!((sym.symmetry() - 1.0).abs() < 1e-12);
        let mut asym = DenseMatrix::zero(3);
        asym.set(0, 1, 5);
        assert!(asym.symmetry() < 0.5);
        assert_eq!(DenseMatrix::zero(2).symmetry(), 1.0);
    }

    #[test]
    fn heatmap_and_csv_render() {
        let mut m = DenseMatrix::zero(2);
        m.set(0, 1, 100);
        let h = m.heatmap();
        assert!(h.contains('@'));
        assert_eq!(m.to_csv(), "0,100\n0,0\n");
    }

    #[test]
    #[should_panic]
    fn mismatched_sizes_panic() {
        let _ = DenseMatrix::zero(2).add(&DenseMatrix::zero(3));
    }
}
