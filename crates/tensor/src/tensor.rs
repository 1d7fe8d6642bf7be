//! Dense row-major 2-D `f32` tensor.
//!
//! All shape mismatches are programming errors in this workspace, so the
//! arithmetic methods assert shapes and panic with a descriptive message
//! rather than returning `Result` (the pattern DataFusion uses for kernel
//! internals: validate at the boundary, assert in the hot path).

/// A dense row-major matrix of `f32`.
///
/// Vectors are represented as `n×1` (column) or `1×d` (row) matrices.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Create a tensor from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Tensor::from_vec: buffer length {} != {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// An all-zeros tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// A `1×1` scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(1, 1, vec![value])
    }

    /// The identity matrix `n×n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(n, n);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow one row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow one row.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single element of a `1×1` tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not `1×1`.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() requires a 1x1 tensor");
        self.data[0]
    }

    /// Matrix multiply `self (n×k) · other (k×m) -> n×m`.
    ///
    /// Dispatches to the thread's active [`ComputeBackend`](crate::ComputeBackend)
    /// (see [`crate::backend`]): Reference runs the cache-friendly
    /// `i-k-j` scalar loop, Fast the register-tiled SIMD kernel. Fans
    /// out over output-row blocks when [`crate::parallel`] is enabled;
    /// for either backend every worker count produces bit-identical
    /// results, because rows are never split across workers.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let work = self.rows * self.cols * other.cols;
        self.matmul_workers(other, crate::parallel::workers_for(self.rows, work))
    }

    /// As [`Tensor::matmul`] with an explicit worker count (`1` = serial).
    ///
    /// Output rows are computed by the same per-row kernel regardless of
    /// how they are blocked across workers, so any `workers` value yields
    /// bit-identical results (asserted by the parallel proptests).
    pub fn matmul_workers(&self, other: &Tensor, workers: usize) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (n, k, m) = (self.rows, self.cols, other.cols);
        let mut out = Tensor::zeros(n, m);
        let a_data = &self.data;
        let b_data = &other.data;
        // Captured here: pool workers run the block under the backend of
        // the thread that *submitted* the kernel, not their own default.
        let be = crate::backend::active_backend();
        crate::parallel::for_row_blocks(&mut out.data, n, m, workers, |rows, block| {
            be.matmul_block(a_data, b_data, k, m, rows, block);
        });
        out
    }

    /// `self (n×k) · other^T (m×k) -> n×m` without materializing the transpose.
    pub fn matmul_tb(&self, other: &Tensor) -> Tensor {
        let work = self.rows * self.cols * other.rows;
        self.matmul_tb_workers(other, crate::parallel::workers_for(self.rows, work))
    }

    /// As [`Tensor::matmul_tb`] with an explicit worker count (`1` = serial);
    /// bit-identical for every `workers` value.
    pub fn matmul_tb_workers(&self, other: &Tensor, workers: usize) -> Tensor {
        assert_eq!(
            self.cols, other.cols,
            "matmul_tb: {}x{} · ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let (n, k, m) = (self.rows, self.cols, other.rows);
        let mut out = Tensor::zeros(n, m);
        let a_data = &self.data;
        let b_data = &other.data;
        let be = crate::backend::active_backend();
        crate::parallel::for_row_blocks(&mut out.data, n, m, workers, |rows, block| {
            be.matmul_tb_block(a_data, b_data, k, m, rows, block);
        });
        out
    }

    /// `self^T (k×n) · other (k×m) -> n×m` without materializing the transpose.
    ///
    /// The serial path keeps the cache-friendly `k`-outer loop; the blocked
    /// path recomputes each output row with the same `kk`-ascending,
    /// zero-skipping accumulation per element, so both orders produce
    /// bit-identical sums.
    pub fn matmul_ta(&self, other: &Tensor) -> Tensor {
        let (k, n, m) = (self.rows, self.cols, other.cols);
        self.matmul_ta_workers(other, crate::parallel::workers_for(n, k * n * m))
    }

    /// As [`Tensor::matmul_ta`] with an explicit worker count (`1` =
    /// serial); bit-identical for every `workers` value.
    pub fn matmul_ta_workers(&self, other: &Tensor, workers: usize) -> Tensor {
        assert_eq!(
            self.rows, other.rows,
            "matmul_ta: ({}x{})^T · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (k, n, m) = (self.rows, self.cols, other.cols);
        let mut out = Tensor::zeros(n, m);
        let be = crate::backend::active_backend();
        if workers <= 1 {
            be.matmul_ta_serial(&self.data, &other.data, n, k, m, &mut out.data);
            return out;
        }
        let a_data = &self.data;
        let b_data = &other.data;
        crate::parallel::for_row_blocks(&mut out.data, n, m, workers, |rows, block| {
            be.matmul_ta_block(a_data, b_data, n, k, m, rows, block);
        });
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise binary op with shape check.
    fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape(),
            other.shape(),
            "elementwise op: shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Elementwise addition.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a * b)
    }

    /// Multiply every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Apply `f` to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// In-place `self += other * s` (axpy).
    pub fn add_scaled_assign(&mut self, other: &Tensor, s: f32) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "add_scaled_assign: shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b * s;
        }
    }

    /// Broadcast-add a `1×d` row vector to every row of an `n×d` matrix.
    pub fn add_row_broadcast(&self, row: &Tensor) -> Tensor {
        assert_eq!(row.rows, 1, "add_row_broadcast: rhs must be 1×d");
        assert_eq!(self.cols, row.cols, "add_row_broadcast: width mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            let dst = &mut out.data[r * out.cols..(r + 1) * out.cols];
            for (d, &b) in dst.iter_mut().zip(&row.data) {
                *d += b;
            }
        }
        out
    }

    /// Scale each row `i` of an `n×d` matrix by element `i` of an `n×1` column.
    pub fn mul_rows_by_col(&self, col: &Tensor) -> Tensor {
        assert_eq!(col.cols, 1, "mul_rows_by_col: rhs must be n×1");
        assert_eq!(self.rows, col.rows, "mul_rows_by_col: height mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            let s = col.data[r];
            for d in out.row_mut(r) {
                *d *= s;
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Row-wise softmax (numerically stable).
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        for r in 0..out.rows {
            let row = out.row_mut(r);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut z = 0.0f32;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                z += *x;
            }
            for x in row.iter_mut() {
                *x /= z;
            }
        }
        out
    }

    /// Row-wise log-softmax (numerically stable).
    pub fn log_softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        for r in 0..out.rows {
            let row = out.row_mut(r);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let z: f32 = row.iter().map(|&x| (x - max).exp()).sum();
            let lse = max + z.ln();
            for x in row.iter_mut() {
                *x -= lse;
            }
        }
        out
    }

    /// L2-normalize each row; rows with norm < `eps` are left untouched.
    pub fn l2_normalize_rows(&self, eps: f32) -> Tensor {
        let mut out = self.clone();
        for r in 0..out.rows {
            let row = out.row_mut(r);
            let norm = row.iter().map(|&x| x * x).sum::<f32>().sqrt();
            if norm > eps {
                for x in row.iter_mut() {
                    *x /= norm;
                }
            }
        }
        out
    }

    /// Concatenate two matrices side by side (`n×a`, `n×b` → `n×(a+b)`).
    pub fn concat_cols(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "concat_cols: height mismatch");
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        Tensor {
            rows: self.rows,
            cols,
            data,
        }
    }

    /// Stack rows vertically (`a×d`, `b×d` → `(a+b)×d`).
    pub fn concat_rows(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.cols, "concat_rows: width mismatch");
        let mut data = Vec::with_capacity((self.rows + other.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Tensor {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Select rows by index (duplicates allowed).
    pub fn gather_rows(&self, idx: &[usize]) -> Tensor {
        let mut data = Vec::with_capacity(idx.len() * self.cols);
        for &i in idx {
            assert!(
                i < self.rows,
                "gather_rows: index {i} out of {} rows",
                self.rows
            );
            data.extend_from_slice(self.row(i));
        }
        Tensor {
            rows: idx.len(),
            cols: self.cols,
            data,
        }
    }

    /// Index of the largest element in each row. NaN entries never win:
    /// [`rank_asc`] ranks them below every number, so a row with a broken
    /// logit still yields the argmax of its finite entries (an all-NaN
    /// row deterministically yields the last index).
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                row.iter()
                    .enumerate()
                    .max_by(|a, b| rank_asc(*a.1, *b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Cosine similarity between row `i` of `self` and row `j` of `other`.
    pub fn cosine_rows(&self, i: usize, other: &Tensor, j: usize) -> f32 {
        assert_eq!(self.cols, other.cols, "cosine_rows: width mismatch");
        cosine_slices(self.row(i), other.row(j))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// True if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

/// Cosine similarity between two raw slices, without materialising a
/// [`Tensor`]. This is the single implementation [`Tensor::cosine_rows`]
/// delegates to, so callers holding plain `&[f32]` embeddings (e.g. the
/// Prompt Augmenter's cache) get identical scores with no allocation.
///
/// Dispatches to the active [`ComputeBackend`](crate::ComputeBackend);
/// under the default Reference backend the three accumulators (`dot`,
/// `na`, `nb`) are `k`-ascending scalar sums, bit-identical to the
/// historical implementation.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn cosine_slices(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "cosine_slices: length mismatch");
    crate::backend::active_backend().cosine(a, b)
}

/// L2 norm of a slice — the exact summation [`cosine_slices`] performs
/// internally for each operand under the same backend, so
/// `cosine_slices_with_norms(a, b, l2_norm(a), l2_norm(b))` is
/// bit-identical to `cosine_slices(a, b)` (for Reference: a
/// `k`-ascending scalar sum of squares, then sqrt).
pub fn l2_norm(a: &[f32]) -> f32 {
    crate::backend::active_backend().sum_sq(a).sqrt()
}

/// [`cosine_slices`] with both row norms precomputed (via [`l2_norm`]).
///
/// Scoring loops that pair every prompt row with every query row
/// (`P×N` combinations) recompute each row's norm `N` (resp. `P`) times
/// through `cosine_slices`; hoisting the norms cuts the inner loop to the
/// dot product alone — ~3× fewer flops — without changing a single bit:
/// each accumulator (`dot`, `na`, `nb`) is an independent sum under the
/// active backend, so splitting them across loops preserves every
/// rounding step. This holds for Fast too (its fused cosine runs the
/// same SIMD reduction per accumulator).
///
/// # Panics
/// Panics if the slices differ in length.
pub fn cosine_slices_with_norms(a: &[f32], b: &[f32], a_norm: f32, b_norm: f32) -> f32 {
    assert_eq!(
        a.len(),
        b.len(),
        "cosine_slices_with_norms: length mismatch"
    );
    let dot = crate::backend::active_backend().dot(a, b);
    dot / (a_norm * b_norm).max(1e-12)
}

/// Canonical key for deterministic float ordering: every NaN (either
/// sign, any payload) maps to the canonical *negative* NaN and `-0.0`
/// maps to `+0.0`, so that [`f32::total_cmp`] over the keys agrees with
/// `partial_cmp` on every pair of comparable floats (total_cmp only
/// disagrees on NaN and on `-0.0` vs `+0.0`, and both are canonicalized
/// away) while still totally ordering NaN — strictly below `-∞`, since
/// total_cmp places sign-negative NaN under every real value.
#[inline]
fn rank_key(v: f32) -> f32 {
    if v.is_nan() {
        f32::from_bits(0xffc0_0000) // canonical -NaN: below -∞ in total_cmp
    } else if v == 0.0 {
        0.0
    } else {
        v
    }
}

/// Deterministic **ascending** comparator for `f32` scores.
///
/// `sort_by(partial_cmp(..).unwrap_or(Equal))` silently turns any NaN
/// into an ordering that depends on sort internals and input order —
/// exactly the nondeterminism the Eq. 7–8 prompt ranking and the
/// WorkerPool bit-identity contract cannot tolerate. This comparator is
/// total: NaN (either sign) ranks **below every number**, so a broken
/// score (e.g. the cosine of a zero-norm embedding) loses every `max_by`
/// and lands last in a descending sort instead of poisoning the order.
///
/// On NaN-free inputs it is indistinguishable from `partial_cmp`: the
/// only other pair where [`f32::total_cmp`] disagrees with IEEE order is
/// `-0.0` vs `+0.0`, which [`rank_desc`]/`rank_asc` canonicalize to
/// equal. Every float sort in result-affecting crates must go through
/// these comparators (rule D2: `clippy.toml` bans `partial_cmp`).
#[inline]
pub fn rank_asc(a: f32, b: f32) -> std::cmp::Ordering {
    rank_key(a).total_cmp(&rank_key(b))
}

/// Deterministic **descending** comparator for `f32` scores: the reverse
/// of [`rank_asc`], so NaN still ranks last. Use as
/// `scores.sort_by(|a, b| rank_desc(a.score, b.score))` for
/// best-first orderings.
#[inline]
pub fn rank_desc(a: f32, b: f32) -> std::cmp::Ordering {
    rank_asc(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: usize, cols: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn rank_comparators_agree_with_partial_cmp_on_comparable_floats() {
        let vals = [
            -f32::INFINITY,
            -1.5e30,
            -1.0,
            -f32::MIN_POSITIVE / 2.0, // subnormal
            -0.0,
            0.0,
            f32::MIN_POSITIVE / 2.0,
            1.0,
            1.5e30,
            f32::INFINITY,
        ];
        for &a in &vals {
            for &b in &vals {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "partial_cmp is the reference the rank comparators must match"
                )]
                let want = a.partial_cmp(&b).expect("comparable");
                assert_eq!(rank_asc(a, b), want, "asc({a}, {b})");
                assert_eq!(rank_desc(a, b), want.reverse(), "desc({a}, {b})");
            }
        }
    }

    #[test]
    fn rank_comparators_put_nan_last() {
        use std::cmp::Ordering;
        for nan in [f32::NAN, -f32::NAN, f32::from_bits(0x7fc0_0001)] {
            for &v in &[-f32::INFINITY, -1.0, 0.0, 1.0, f32::INFINITY] {
                assert_eq!(rank_asc(nan, v), Ordering::Less, "NaN must rank below {v}");
                assert_eq!(rank_desc(nan, v), Ordering::Greater);
            }
            assert_eq!(rank_asc(nan, f32::NAN), Ordering::Equal);
        }
        // A descending sort pushes NaN to the back deterministically.
        let mut scores = [0.5, f32::NAN, 2.0, -1.0, -f32::NAN];
        scores.sort_by(|a, b| rank_desc(*a, *b));
        assert_eq!(&scores[..3], &[2.0, 0.5, -1.0]);
        assert!(scores[3].is_nan() && scores[4].is_nan());
    }

    #[test]
    fn argmax_ignores_nan_entries() {
        let m = t(
            3,
            3,
            &[
                f32::NAN,
                2.0,
                1.0,
                1.0,
                f32::NAN,
                3.0,
                f32::NAN,
                f32::NAN,
                f32::NAN,
            ],
        );
        assert_eq!(m.argmax_rows(), vec![1, 2, 2]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c, t(2, 2, &[58.0, 64.0, 139.0, 154.0]));
    }

    #[test]
    fn matmul_tb_equals_matmul_with_transpose() {
        let a = t(2, 3, &[1.0, -2.0, 3.0, 0.5, 5.0, -6.0]);
        let b = t(
            4,
            3,
            &[7.0, 8.0, 9.0, 1.0, -1.0, 2.0, 0.0, 3.0, 4.0, 2.0, 2.0, 2.0],
        );
        assert_eq!(a.matmul_tb(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn matmul_ta_equals_matmul_with_transpose() {
        let a = t(3, 2, &[1.0, -2.0, 3.0, 0.5, 5.0, -6.0]);
        let b = t(
            3,
            4,
            &[7.0, 8.0, 9.0, 1.0, -1.0, 2.0, 0.0, 3.0, 4.0, 2.0, 2.0, 2.0],
        );
        assert_eq!(a.matmul_ta(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let a = t(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.matmul(&Tensor::eye(2)), a);
        assert_eq!(Tensor::eye(2).matmul(&a), a);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, -5.0, 0.0, 5.0]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = t(1, 3, &[1000.0, 1001.0, 1002.0]);
        let s = a.softmax_rows();
        assert!(s.all_finite());
        let b = t(1, 3, &[0.0, 1.0, 2.0]).softmax_rows();
        for k in 0..3 {
            assert!((s.get(0, k) - b.get(0, k)).abs() < 1e-5);
        }
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let a = t(2, 4, &[0.3, -1.2, 2.0, 0.0, 5.0, 5.0, 5.0, 5.0]);
        let ls = a.log_softmax_rows();
        let s = a.softmax_rows();
        for r in 0..2 {
            for c in 0..4 {
                assert!((ls.get(r, c) - s.get(r, c).ln()).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn l2_normalize_gives_unit_rows() {
        let a = t(2, 2, &[3.0, 4.0, 0.0, 0.0]);
        let n = a.l2_normalize_rows(1e-12);
        assert!((n.row(0).iter().map(|x| x * x).sum::<f32>() - 1.0).abs() < 1e-6);
        // zero row untouched
        assert_eq!(n.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn concat_and_gather() {
        let a = t(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = t(2, 1, &[9.0, 8.0]);
        let c = a.concat_cols(&b);
        assert_eq!(c, t(2, 3, &[1.0, 2.0, 9.0, 3.0, 4.0, 8.0]));
        let g = c.gather_rows(&[1, 1, 0]);
        assert_eq!(g.rows(), 3);
        assert_eq!(g.row(0), &[3.0, 4.0, 8.0]);
        assert_eq!(g.row(2), &[1.0, 2.0, 9.0]);
    }

    #[test]
    fn broadcast_and_row_scaling() {
        let a = t(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let r = t(1, 2, &[10.0, 20.0]);
        assert_eq!(a.add_row_broadcast(&r), t(2, 2, &[11.0, 22.0, 13.0, 24.0]));
        let c = t(2, 1, &[2.0, -1.0]);
        assert_eq!(a.mul_rows_by_col(&c), t(2, 2, &[2.0, 4.0, -3.0, -4.0]));
    }

    #[test]
    fn argmax_and_cosine() {
        let a = t(2, 3, &[0.1, 0.9, 0.0, 3.0, 1.0, 2.0]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
        let b = t(1, 3, &[0.2, 1.8, 0.0]);
        assert!((a.cosine_rows(0, &b, 0) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn cosine_slices_is_bitwise_identical_to_cosine_rows() {
        let a = t(2, 4, &[0.3, -1.2, 5.0, 0.01, 2.0, 2.0, -7.5, 0.0]);
        let b = t(1, 4, &[1.0, 0.25, -3.0, 8.8]);
        for i in 0..2 {
            assert_eq!(
                a.cosine_rows(i, &b, 0).to_bits(),
                cosine_slices(a.row(i), b.row(0)).to_bits()
            );
        }
        // Zero vectors hit the 1e-12 denominator clamp, not NaN.
        assert_eq!(cosine_slices(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "cosine_slices: length mismatch")]
    fn cosine_slices_length_mismatch_panics() {
        let _ = cosine_slices(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn cosine_with_precomputed_norms_is_bitwise_identical() {
        // Values chosen to be inexact in f32 so any change in summation
        // order or rounding sequence would flip low-order bits.
        let a = t(
            3,
            5,
            &[
                0.1, -0.7, 3.3, 0.013, -2.9, //
                1.7, 1.7, -7.5, 0.31, 0.0, //
                -0.003, 12.5, 0.77, -0.1, 4.4,
            ],
        );
        let b = t(
            2,
            5,
            &[1.1, 0.25, -3.3, 8.8, 0.09, -0.5, 0.6, -0.7, 0.8, -0.9],
        );
        let a_norms: Vec<f32> = (0..a.rows()).map(|i| l2_norm(a.row(i))).collect();
        let b_norms: Vec<f32> = (0..b.rows()).map(|j| l2_norm(b.row(j))).collect();
        for (i, &a_norm) in a_norms.iter().enumerate() {
            for (j, &b_norm) in b_norms.iter().enumerate() {
                assert_eq!(
                    cosine_slices(a.row(i), b.row(j)).to_bits(),
                    cosine_slices_with_norms(a.row(i), b.row(j), a_norm, b_norm).to_bits(),
                    "({i},{j})"
                );
            }
        }
        // The zero-vector clamp behaves identically too.
        assert_eq!(
            cosine_slices(&[0.0, 0.0], &[1.0, 2.0]).to_bits(),
            cosine_slices_with_norms(
                &[0.0, 0.0],
                &[1.0, 2.0],
                l2_norm(&[0.0, 0.0]),
                l2_norm(&[1.0, 2.0])
            )
            .to_bits()
        );
    }

    #[test]
    fn matmul_ta_workers_is_bit_identical_to_serial() {
        let k = 67;
        let n = 9;
        let m = 7;
        let a = t(
            k,
            n,
            &(0..k * n)
                .map(|i| ((i * 31 % 17) as f32 - 8.0) / 7.0)
                .collect::<Vec<_>>(),
        );
        let b = t(
            k,
            m,
            &(0..k * m)
                .map(|i| ((i * 13 % 23) as f32 - 11.0) / 9.0)
                .collect::<Vec<_>>(),
        );
        let serial = a.matmul_ta_workers(&b, 1);
        for workers in [2usize, 3, 8] {
            let blocked = a.matmul_ta_workers(&b, workers);
            for (x, y) in serial.as_slice().iter().zip(blocked.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "workers={workers}");
            }
        }
        // And against the transpose-based reference.
        let reference = a.transpose().matmul_workers(&b, 1);
        for (x, y) in serial.as_slice().iter().zip(reference.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
