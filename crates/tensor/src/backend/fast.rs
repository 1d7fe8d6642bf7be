//! The tiled/SIMD backend: register-blocked kernels with `std::arch`
//! acceleration behind runtime feature detection.
//!
//! Three implementations of each micro-kernel live here, selected once
//! per process by [`simd_level`]:
//!
//! * **AVX2** (`x86_64`, detected via `is_x86_feature_detected!`):
//!   8-lane `f32` vectors, 16-wide register tiles for matmul rows, and
//!   4-way split accumulators for dot reductions.
//! * **NEON** (`aarch64`): 4-lane vectors with fused multiply-add; NEON
//!   is mandatory on aarch64 but detection keeps the dispatch uniform.
//! * **Scalar-tiled fallback** (any host): the same tiling expressed as
//!   fixed-size lane arrays, which LLVM auto-vectorizes with whatever
//!   the baseline target offers. This path keeps `Fast` safe and
//!   correct on hosts without AVX2 — only slower.
//!
//! All three reorder float accumulation relative to
//! [`ReferenceBackend`](super::ReferenceBackend) (lanes sum in
//! parallel), so Fast is **tolerance**-equal to Reference, not
//! bit-equal. It is still deterministic: the lane structure is fixed at
//! dispatch time, every output row is computed by one fixed-order
//! kernel, and row-blocking over the `WorkerPool` never splits a row —
//! so results are bit-identical run-to-run and across worker counts,
//! which the serve-layer replay tests rely on.
//!
//! `matmul_row` keeps one lane per output element and loads its
//! accumulators from the output row, so like Reference's `matmul_block`
//! it is a `k`-ascending left fold that starts from the block's value:
//! a fold split at any `k` and continued from the stored partial gives
//! the same bits ([`Tensor::matmul_onto`](crate::Tensor::matmul_onto)
//! relies on this). `Tensor::matmul` hands it a zeroed block, which is
//! exactly the zeroed accumulators the kernels started from before.
//!
//! This module (plus its `x86`/`arm` submodules) is the **only** place
//! in the workspace allowed to touch `std::arch`: `tests/arch_fence.rs`
//! fails on an `arch` path anywhere else, and the workspace denies
//! `unsafe_code`, which the loads, stores and `#[target_feature]` calls
//! here need, everywhere but this module and the worker pool.

#![expect(
    unsafe_code,
    reason = "std::arch intrinsics and #[target_feature] kernels, each entered only after runtime feature detection"
)]

use std::ops::Range;
use std::sync::OnceLock;

use super::{Backend, ComputeBackend, ReferenceBackend};
use crate::sparse::EdgeList;
use crate::tensor::Tensor;

/// The tiled/SIMD backend; tolerance-equal to Reference.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastBackend;

/// Which instruction set the Fast kernels dispatch to (fixed for the
/// lifetime of the process).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SimdLevel {
    /// Auto-vectorized lane-array kernels; correct on any host.
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "aarch64")]
    Neon,
}

fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimdLevel::Avx2;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            if std::arch::is_aarch64_feature_detected!("neon") {
                return SimdLevel::Neon;
            }
        }
        SimdLevel::Scalar
    })
}

/// True when Fast will run real `std::arch` SIMD on this host (false
/// means the scalar-tiled fallback is in effect).
pub(crate) fn simd_active() -> bool {
    simd_level() != SimdLevel::Scalar
}

// ---------------------------------------------------------------------------
// Dispatch wrappers: one safe entry per micro-kernel.

/// `o_row += a_row · b` for one output row (`b` is `k×m`, row-major):
/// each element's accumulator starts from its `o_row` value.
fn matmul_row(a_row: &[f32], b: &[f32], m: usize, o_row: &mut [f32]) {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only returned when the host supports it.
        SimdLevel::Avx2 => unsafe { x86::matmul_row(a_row, b, m, o_row) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: Neon is only returned when the host supports it.
        SimdLevel::Neon => unsafe { arm::matmul_row(a_row, b, m, o_row) },
        SimdLevel::Scalar => scalar::matmul_row(a_row, b, m, o_row),
    }
}

/// Dot product with split accumulators.
fn dot(a: &[f32], b: &[f32]) -> f32 {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only returned when the host supports it.
        SimdLevel::Avx2 => unsafe { x86::dot(a, b) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: Neon is only returned when the host supports it.
        SimdLevel::Neon => unsafe { arm::dot(a, b) },
        SimdLevel::Scalar => scalar::dot(a, b),
    }
}

/// `y += s · x` (slices of equal length).
fn axpy(s: f32, x: &[f32], y: &mut [f32]) {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only returned when the host supports it.
        SimdLevel::Avx2 => unsafe { x86::axpy(s, x, y) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: Neon is only returned when the host supports it.
        SimdLevel::Neon => unsafe { arm::axpy(s, x, y) },
        SimdLevel::Scalar => scalar::axpy(s, x, y),
    }
}

impl ComputeBackend for FastBackend {
    fn kind(&self) -> Backend {
        Backend::Fast
    }

    fn matmul_block(
        &self,
        a: &[f32],
        b: &[f32],
        k: usize,
        m: usize,
        rows: Range<usize>,
        block: &mut [f32],
    ) {
        for (local, i) in rows.enumerate() {
            let a_row = &a[i * k..(i + 1) * k];
            let o_row = &mut block[local * m..(local + 1) * m];
            matmul_row(a_row, b, m, o_row);
        }
    }

    fn matmul_tb_block(
        &self,
        a: &[f32],
        b: &[f32],
        k: usize,
        m: usize,
        rows: Range<usize>,
        block: &mut [f32],
    ) {
        debug_assert_eq!(block.len(), rows.len() * m);
        for (local, i) in rows.enumerate() {
            let a_row = &a[i * k..(i + 1) * k];
            let o_row = &mut block[local * m..(local + 1) * m];
            for (j, o) in o_row.iter_mut().enumerate() {
                *o = dot(a_row, &b[j * k..(j + 1) * k]);
            }
        }
    }

    /// Routed through the row-blocked kernel so Fast produces the same
    /// bits for every worker count (the serial/blocked split is a
    /// Reference cache-layout concern, not a contract).
    fn matmul_ta_serial(
        &self,
        a: &[f32],
        b: &[f32],
        n: usize,
        k: usize,
        m: usize,
        out: &mut [f32],
    ) {
        self.matmul_ta_block(a, b, n, k, m, 0..n, out);
    }

    fn matmul_ta_block(
        &self,
        a: &[f32],
        b: &[f32],
        n: usize,
        k: usize,
        m: usize,
        rows: Range<usize>,
        block: &mut [f32],
    ) {
        // Column `i` of the `k×n` matrix `a` is strided; gather its
        // entries scalar and vectorize the row-sized axpy instead.
        for (local, i) in rows.enumerate() {
            let o_row = &mut block[local * m..(local + 1) * m];
            for kk in 0..k {
                let av = a[kk * n + i];
                if av == 0.0 {
                    continue;
                }
                axpy(av, &b[kk * m..(kk + 1) * m], o_row);
            }
        }
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        dot(a, b)
    }

    fn sum_sq(&self, a: &[f32]) -> f32 {
        dot(a, a)
    }

    /// Same zero-norm guard as Reference; each accumulator is the same
    /// SIMD reduction [`dot`](Self::dot)/[`sum_sq`](Self::sum_sq) performs, so
    /// precomputed-norm cosine stays bit-identical *within* Fast.
    fn cosine(&self, a: &[f32], b: &[f32]) -> f32 {
        let dotv = dot(a, b);
        let denom = (dot(a, a).sqrt() * dot(b, b).sqrt()).max(1e-12);
        dotv / denom
    }

    /// Edge-order scatter like Reference, but with the row-sized axpy
    /// vectorized (each output element still receives its contributions
    /// in edge order, one multiply-add per edge).
    fn spmm(&self, edges: &EdgeList, x: &Tensor, w: Option<&[f32]>, out: &mut Tensor) {
        for e in 0..edges.len() {
            let (s, t) = (edges.src(e), edges.dst(e));
            let we = w.map_or(1.0, |ws| ws[e]);
            if we == 0.0 {
                continue;
            }
            axpy(we, x.row(s), out.row_mut(t));
        }
    }

    /// Delegates to the Reference loop: the cost here is `exp`, not
    /// memory order, and the grouped reduction is scatter-shaped — SIMD
    /// buys nothing worth a second accumulation order.
    fn edge_softmax(&self, edges: &EdgeList, scores: &[f32], out: &mut [f32]) {
        ReferenceBackend.edge_softmax(edges, scores, out);
    }
}

// ---------------------------------------------------------------------------
// Scalar-tiled fallback: fixed-size lane arrays the compiler can
// auto-vectorize; also the shape the SIMD kernels mirror.

mod scalar {
    /// Lane width of the fallback tiles (matches one AVX2 vector).
    pub(super) const LANES: usize = 8;

    /// One output row, `j`-tiled: a stack accumulator of [`LANES`]
    /// independent partial sums, loaded from `o_row`, is held across the
    /// whole `k` loop, so the output is read and written once instead of
    /// read-modified `k` times.
    pub(super) fn matmul_row(a_row: &[f32], b: &[f32], m: usize, o_row: &mut [f32]) {
        let k = a_row.len();
        let mut j = 0usize;
        while j + LANES <= m {
            let mut acc = [0.0f32; LANES];
            acc.copy_from_slice(&o_row[j..j + LANES]);
            for (kk, &av) in a_row.iter().enumerate() {
                let b_tile = &b[kk * m + j..kk * m + j + LANES];
                for (t, &bv) in b_tile.iter().enumerate() {
                    acc[t] += av * bv;
                }
            }
            o_row[j..j + LANES].copy_from_slice(&acc);
            j += LANES;
        }
        for jj in j..m {
            let mut acc = o_row[jj];
            for kk in 0..k {
                acc += a_row[kk] * b[kk * m + jj];
            }
            o_row[jj] = acc;
        }
    }

    /// Dot with [`LANES`] split accumulators: breaks the serial float
    /// dependency chain (which blocks auto-vectorization of reductions)
    /// at the cost of a reassociated sum.
    pub(super) fn dot(a: &[f32], b: &[f32]) -> f32 {
        let chunks = a.len() / LANES * LANES;
        let mut lanes = [0.0f32; LANES];
        for (ca, cb) in a[..chunks]
            .chunks_exact(LANES)
            .zip(b[..chunks].chunks_exact(LANES))
        {
            for t in 0..LANES {
                lanes[t] += ca[t] * cb[t];
            }
        }
        let mut s = 0.0f32;
        for &l in &lanes {
            s += l;
        }
        for i in chunks..a.len() {
            s += a[i] * b[i];
        }
        s
    }

    /// `y += s·x`: element-independent, so plain iteration vectorizes.
    pub(super) fn axpy(s: f32, x: &[f32], y: &mut [f32]) {
        for (yy, &xx) in y.iter_mut().zip(x) {
            *yy += s * xx;
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 kernels (x86_64, runtime-detected).

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// Horizontal sum of one 8-lane vector.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let q = _mm_add_ps(lo, hi);
        let shuf = _mm_movehdup_ps(q);
        let sums = _mm_add_ps(q, shuf);
        let hi2 = _mm_movehl_ps(shuf, sums);
        _mm_cvtss_f32(_mm_add_ss(sums, hi2))
    }

    /// One output row with 16-wide register tiles (two accumulators,
    /// loaded from `o_row`, held across the whole `k` loop), 8-wide then
    /// scalar tails.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support; `b.len() == k*m`,
    /// `o_row.len() == m`, `a_row.len() == k`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn matmul_row(a_row: &[f32], b: &[f32], m: usize, o_row: &mut [f32]) {
        let k = a_row.len();
        let bp = b.as_ptr();
        let op = o_row.as_mut_ptr();
        let mut j = 0usize;
        while j + 16 <= m {
            let mut acc0 = _mm256_loadu_ps(op.add(j));
            let mut acc1 = _mm256_loadu_ps(op.add(j + 8));
            for kk in 0..k {
                let av = _mm256_set1_ps(*a_row.get_unchecked(kk));
                let base = kk * m + j;
                acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(av, _mm256_loadu_ps(bp.add(base))));
                acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(av, _mm256_loadu_ps(bp.add(base + 8))));
            }
            _mm256_storeu_ps(op.add(j), acc0);
            _mm256_storeu_ps(op.add(j + 8), acc1);
            j += 16;
        }
        if j + 8 <= m {
            let mut acc = _mm256_loadu_ps(op.add(j));
            for kk in 0..k {
                let av = _mm256_set1_ps(*a_row.get_unchecked(kk));
                acc = _mm256_add_ps(acc, _mm256_mul_ps(av, _mm256_loadu_ps(bp.add(kk * m + j))));
            }
            _mm256_storeu_ps(op.add(j), acc);
            j += 8;
        }
        for jj in j..m {
            let mut acc = *o_row.get_unchecked(jj);
            for kk in 0..k {
                acc += *a_row.get_unchecked(kk) * *b.get_unchecked(kk * m + jj);
            }
            *o_row.get_unchecked_mut(jj) = acc;
        }
    }

    /// Dot with four 8-lane accumulators (32 floats in flight) to hide
    /// add latency, folded pairwise before the horizontal sum.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support; `a.len() == b.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut i = 0usize;
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        while i + 32 <= n {
            acc0 = _mm256_add_ps(
                acc0,
                _mm256_mul_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i))),
            );
            acc1 = _mm256_add_ps(
                acc1,
                _mm256_mul_ps(
                    _mm256_loadu_ps(ap.add(i + 8)),
                    _mm256_loadu_ps(bp.add(i + 8)),
                ),
            );
            acc2 = _mm256_add_ps(
                acc2,
                _mm256_mul_ps(
                    _mm256_loadu_ps(ap.add(i + 16)),
                    _mm256_loadu_ps(bp.add(i + 16)),
                ),
            );
            acc3 = _mm256_add_ps(
                acc3,
                _mm256_mul_ps(
                    _mm256_loadu_ps(ap.add(i + 24)),
                    _mm256_loadu_ps(bp.add(i + 24)),
                ),
            );
            i += 32;
        }
        let mut acc = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
        while i + 8 <= n {
            acc = _mm256_add_ps(
                acc,
                _mm256_mul_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i))),
            );
            i += 8;
        }
        let mut s = hsum(acc);
        while i < n {
            s += *a.get_unchecked(i) * *b.get_unchecked(i);
            i += 1;
        }
        s
    }

    /// `y += s·x`, 8 lanes at a time.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support; `x.len() == y.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy(s: f32, x: &[f32], y: &mut [f32]) {
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let sv = _mm256_set1_ps(s);
        let mut i = 0usize;
        while i + 8 <= n {
            let yv = _mm256_add_ps(
                _mm256_loadu_ps(yp.add(i)),
                _mm256_mul_ps(sv, _mm256_loadu_ps(xp.add(i))),
            );
            _mm256_storeu_ps(yp.add(i), yv);
            i += 8;
        }
        while i < n {
            *y.get_unchecked_mut(i) += s * *x.get_unchecked(i);
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// NEON kernels (aarch64; NEON is architecturally mandatory there, but
// the dispatch keeps the same runtime-detected shape as x86).

#[cfg(target_arch = "aarch64")]
mod arm {
    use std::arch::aarch64::*;

    /// One output row with 8-wide register tiles (two 4-lane
    /// accumulators, loaded from `o_row`) and fused multiply-add.
    ///
    /// # Safety
    /// Caller must have verified NEON support; `b.len() == k*m`,
    /// `o_row.len() == m`, `a_row.len() == k`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn matmul_row(a_row: &[f32], b: &[f32], m: usize, o_row: &mut [f32]) {
        let k = a_row.len();
        let bp = b.as_ptr();
        let op = o_row.as_mut_ptr();
        let mut j = 0usize;
        while j + 8 <= m {
            let mut acc0 = vld1q_f32(op.add(j));
            let mut acc1 = vld1q_f32(op.add(j + 4));
            for kk in 0..k {
                let av = *a_row.get_unchecked(kk);
                let base = kk * m + j;
                acc0 = vfmaq_n_f32(acc0, vld1q_f32(bp.add(base)), av);
                acc1 = vfmaq_n_f32(acc1, vld1q_f32(bp.add(base + 4)), av);
            }
            vst1q_f32(op.add(j), acc0);
            vst1q_f32(op.add(j + 4), acc1);
            j += 8;
        }
        if j + 4 <= m {
            let mut acc = vld1q_f32(op.add(j));
            for kk in 0..k {
                acc = vfmaq_n_f32(acc, vld1q_f32(bp.add(kk * m + j)), *a_row.get_unchecked(kk));
            }
            vst1q_f32(op.add(j), acc);
            j += 4;
        }
        for jj in j..m {
            let mut acc = *o_row.get_unchecked(jj);
            for kk in 0..k {
                acc += *a_row.get_unchecked(kk) * *b.get_unchecked(kk * m + jj);
            }
            *o_row.get_unchecked_mut(jj) = acc;
        }
    }

    /// Dot with four 4-lane accumulators folded before `vaddvq`.
    ///
    /// # Safety
    /// Caller must have verified NEON support; `a.len() == b.len()`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut i = 0usize;
        let mut acc0 = vdupq_n_f32(0.0);
        let mut acc1 = vdupq_n_f32(0.0);
        let mut acc2 = vdupq_n_f32(0.0);
        let mut acc3 = vdupq_n_f32(0.0);
        while i + 16 <= n {
            acc0 = vfmaq_f32(acc0, vld1q_f32(ap.add(i)), vld1q_f32(bp.add(i)));
            acc1 = vfmaq_f32(acc1, vld1q_f32(ap.add(i + 4)), vld1q_f32(bp.add(i + 4)));
            acc2 = vfmaq_f32(acc2, vld1q_f32(ap.add(i + 8)), vld1q_f32(bp.add(i + 8)));
            acc3 = vfmaq_f32(acc3, vld1q_f32(ap.add(i + 12)), vld1q_f32(bp.add(i + 12)));
            i += 16;
        }
        let mut acc = vaddq_f32(vaddq_f32(acc0, acc1), vaddq_f32(acc2, acc3));
        while i + 4 <= n {
            acc = vfmaq_f32(acc, vld1q_f32(ap.add(i)), vld1q_f32(bp.add(i)));
            i += 4;
        }
        let mut s = vaddvq_f32(acc);
        while i < n {
            s += *a.get_unchecked(i) * *b.get_unchecked(i);
            i += 1;
        }
        s
    }

    /// `y += s·x`, 4 lanes at a time with fused multiply-add.
    ///
    /// # Safety
    /// Caller must have verified NEON support; `x.len() == y.len()`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn axpy(s: f32, x: &[f32], y: &mut [f32]) {
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0usize;
        while i + 4 <= n {
            let yv = vfmaq_n_f32(vld1q_f32(yp.add(i)), vld1q_f32(xp.add(i)), s);
            vst1q_f32(yp.add(i), yv);
            i += 4;
        }
        while i < n {
            *y.get_unchecked_mut(i) += s * *x.get_unchecked(i);
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random fill (seeded LCG; no entropy).
    fn fill(seed: u64, len: usize) -> Vec<f32> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            })
            .collect()
    }

    fn assert_close(fast: &[f32], reference: &[f32], what: &str) {
        assert_eq!(fast.len(), reference.len(), "{what}: length");
        for (i, (f, r)) in fast.iter().zip(reference).enumerate() {
            let tol = 1e-5 + 1e-4 * r.abs();
            assert!(
                (f - r).abs() <= tol,
                "{what}[{i}]: fast {f} vs reference {r} (tol {tol})"
            );
        }
    }

    #[test]
    fn fast_matmul_block_matches_reference_within_tolerance() {
        // Shapes straddle every tile boundary: below one lane, exact
        // multiples, odd tails, degenerate empties.
        for &(n, k, m) in &[
            (0usize, 3usize, 4usize),
            (1, 1, 1),
            (2, 0, 5),
            (3, 7, 1),
            (4, 8, 8),
            (5, 13, 16),
            (6, 9, 17),
            (7, 33, 23),
            (3, 64, 48),
        ] {
            let a = fill(1 + n as u64, n * k);
            let b = fill(2 + m as u64, k * m);
            let mut rf = vec![0.0f32; n * m];
            let mut ff = vec![0.0f32; n * m];
            ReferenceBackend.matmul_block(&a, &b, k, m, 0..n, &mut rf);
            FastBackend.matmul_block(&a, &b, k, m, 0..n, &mut ff);
            assert_close(&ff, &rf, &format!("matmul {n}x{k}x{m}"));
        }
    }

    /// The per-element sequence the Fast `matmul_row` kernels run: start
    /// from the block's value, then for `kk` ascending one multiply and
    /// one add, with no zero skip. NEON fuses the two in its vector
    /// lanes (every column below the last multiple of 4); its scalar
    /// tail and every other kernel round both.
    fn kept_fold(a: &[f32], b: &[f32], k: usize, m: usize, rows: Range<usize>, block: &mut [f32]) {
        #[cfg(target_arch = "aarch64")]
        let fused_below = if simd_level() == SimdLevel::Neon {
            m / 4 * 4
        } else {
            0
        };
        #[cfg(not(target_arch = "aarch64"))]
        let fused_below = 0;
        for (local, i) in rows.enumerate() {
            for j in 0..m {
                let o = &mut block[local * m + j];
                for kk in 0..k {
                    let (av, bv) = (a[i * k + kk], b[kk * m + j]);
                    *o = if j < fused_below {
                        bv.mul_add(av, *o)
                    } else {
                        *o + av * bv
                    };
                }
            }
        }
    }

    #[test]
    fn fast_matmul_block_is_a_left_fold_from_the_block() {
        // On a zeroed block (what `Tensor::matmul` passes) this is the
        // output the kernels gave when they zeroed their accumulators;
        // on any other block the fold continues from its value.
        for &(n, k, m) in &[
            (1usize, 1usize, 1usize),
            (2, 0, 5),
            (3, 7, 3),
            (4, 8, 8),
            (5, 13, 16),
            (6, 9, 17),
            (7, 33, 23),
            (3, 72, 64),
            (2, 40, 65),
        ] {
            let mut a = fill(51 + n as u64, n * k);
            for (i, x) in a.iter_mut().enumerate() {
                // ReLU zeros of both signs.
                if *x < -0.25 {
                    *x = if i % 2 == 0 { 0.0 } else { -0.0 };
                }
            }
            let b = fill(52 + m as u64, k * m);
            for init in [vec![0.0f32; n * m], fill(53, n * m)] {
                let mut want = init.clone();
                let mut got = init;
                kept_fold(&a, &b, k, m, 0..n, &mut want);
                FastBackend.matmul_block(&a, &b, k, m, 0..n, &mut got);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&want), bits(&got), "matmul {n}x{k}x{m}");
            }
        }
    }

    #[test]
    fn fast_matmul_tb_and_ta_match_reference_within_tolerance() {
        for &(n, k, m) in &[(1usize, 1usize, 1usize), (4, 8, 8), (5, 13, 3), (7, 40, 17)] {
            // tb: a is n×k, b is m×k.
            let a = fill(11, n * k);
            let b = fill(12, m * k);
            let mut rf = vec![0.0f32; n * m];
            let mut ff = vec![0.0f32; n * m];
            ReferenceBackend.matmul_tb_block(&a, &b, k, m, 0..n, &mut rf);
            FastBackend.matmul_tb_block(&a, &b, k, m, 0..n, &mut ff);
            assert_close(&ff, &rf, &format!("matmul_tb {n}x{k}x{m}"));

            // ta: a is k×n, b is k×m.
            let at = fill(13, k * n);
            let bt = fill(14, k * m);
            let mut rta = vec![0.0f32; n * m];
            let mut fta = vec![0.0f32; n * m];
            ReferenceBackend.matmul_ta_serial(&at, &bt, n, k, m, &mut rta);
            FastBackend.matmul_ta_serial(&at, &bt, n, k, m, &mut fta);
            assert_close(&fta, &rta, &format!("matmul_ta {n}x{k}x{m}"));
        }
    }

    #[test]
    fn fast_rows_are_bit_identical_across_block_splits() {
        // The worker-count invariance Fast promises: a row's bits do not
        // depend on which block computed it.
        let (n, k, m) = (6usize, 21usize, 19usize);
        let a = fill(21, n * k);
        let b = fill(22, k * m);
        let mut whole = vec![0.0f32; n * m];
        FastBackend.matmul_block(&a, &b, k, m, 0..n, &mut whole);
        let mut split = vec![0.0f32; n * m];
        let cut = 2usize;
        let (lo, hi) = split.split_at_mut(cut * m);
        FastBackend.matmul_block(&a, &b, k, m, 0..cut, lo);
        FastBackend.matmul_block(&a, &b, k, m, cut..n, hi);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&whole), bits(&split));
    }

    #[test]
    fn scalar_fallback_agrees_with_dispatched_kernels() {
        // On AVX2/NEON hosts this cross-checks SIMD against the scalar
        // tile; on anything else both sides run the fallback and the
        // test still guards the fallback's own correctness vs Reference.
        let a = fill(31, 103);
        let b = fill(32, 103);
        let d_dispatch = dot(&a, &b);
        let d_scalar = scalar::dot(&a, &b);
        let d_ref = ReferenceBackend.dot(&a, &b);
        for d in [d_dispatch, d_scalar] {
            assert!((d - d_ref).abs() <= 1e-4 * (1.0 + d_ref.abs()));
        }

        let (k, m) = (9usize, 21usize);
        let a_row = fill(33, k);
        let bm = fill(34, k * m);
        let mut o_dispatch = vec![0.0f32; m];
        let mut o_scalar = vec![0.0f32; m];
        matmul_row(&a_row, &bm, m, &mut o_dispatch);
        scalar::matmul_row(&a_row, &bm, m, &mut o_scalar);
        let mut o_ref = vec![0.0f32; m];
        ReferenceBackend.matmul_block(&a_row, &bm, k, m, 0..1, &mut o_ref);
        assert_close(&o_dispatch, &o_ref, "matmul_row dispatch");
        assert_close(&o_scalar, &o_ref, "matmul_row scalar");

        let x = fill(35, 37);
        let mut y_dispatch = fill(36, 37);
        let mut y_scalar = y_dispatch.clone();
        axpy(0.75, &x, &mut y_dispatch);
        scalar::axpy(0.75, &x, &mut y_scalar);
        assert_close(&y_dispatch, &y_scalar, "axpy");
    }

    #[test]
    fn fast_cosine_is_consistent_with_split_norms() {
        let a = fill(41, 50);
        let b = fill(42, 50);
        let fused = FastBackend.cosine(&a, &b);
        let an = FastBackend.sum_sq(&a).sqrt();
        let bn = FastBackend.sum_sq(&b).sqrt();
        let split = FastBackend.dot(&a, &b) / (an * bn).max(1e-12);
        assert_eq!(fused.to_bits(), split.to_bits());
        let r = ReferenceBackend.cosine(&a, &b);
        assert!((fused - r).abs() <= 1e-5);
    }
}
