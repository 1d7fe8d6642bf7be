//! The Fast backend: Reference plus one AVX2 kernel.
//!
//! Fast overrides only `matmul_block`. On an x86_64 host with AVX2 it
//! runs [`x86::matmul_row`], which keeps one lane per output element:
//! each element starts from the block's value and, for `kk` ascending,
//! does one rounded multiply and one rounded add, like Reference's
//! fold, but with no zero skip. Elsewhere it runs Reference's
//! `matmul_block`. Every other kernel is Reference's on both backends.
//! The contract this gives, and its one exception, are stated in the
//! [backend docs](super).
//!
//! This module is the **only** place in the workspace allowed to touch
//! `std::arch`: `tests/arch_fence.rs` fails on an `arch` path anywhere
//! else, and the workspace denies `unsafe_code`, which the loads,
//! stores and `#[target_feature]` call here need, everywhere but this
//! module and the worker pool.

#![expect(
    unsafe_code,
    reason = "one #[target_feature] AVX2 kernel, entered only after runtime feature detection"
)]

use std::ops::Range;

use super::{Backend, ComputeBackend, ReferenceBackend};

/// Reference plus the AVX2 `matmul_block`; bit-equal to Reference but
/// for the exception the [backend docs](super) state.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastBackend;

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
        // std caches the detection: one load per block.
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            assert!(b.len() >= k * m, "matmul_block: b holds fewer than k×m");
            for (local, i) in rows.enumerate() {
                let a_row = &a[i * k..(i + 1) * k];
                let o_row = &mut block[local * m..(local + 1) * m];
                // SAFETY: AVX2 was detected above; `a_row` holds k
                // entries, `o_row` m, and `b` at least k×m.
                unsafe { x86::matmul_row(a_row, b, m, o_row) };
            }
            return;
        }
        ReferenceBackend.matmul_block(a, b, k, m, rows, block);
    }
}

// ---------------------------------------------------------------------------
// AVX2 kernel (x86_64, runtime-detected).

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// One output row with 16-wide register tiles (two accumulators,
    /// loaded from `o_row`, held across the whole `k` loop), 8-wide then
    /// scalar tails.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support; `b.len() >= k*m`,
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

    /// `fill` with every entry below `-0.25` replaced by a ReLU zero,
    /// `0.0` and `-0.0` in turn.
    fn relu_fill(seed: u64, len: usize) -> Vec<f32> {
        let mut a = fill(seed, len);
        for (i, x) in a.iter_mut().enumerate() {
            if *x < -0.25 {
                *x = if i % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        a
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Both sides of the 8-lane tail, the 16-lane tile and Reference's
    /// 32-lane tile, degenerate empties, and multi-tile rows.
    const SHAPES: [(usize, usize, usize); 16] = [
        (0, 3, 4),
        (1, 1, 1),
        (2, 0, 5),
        (3, 7, 1),
        (5, 9, 7),
        (4, 8, 8),
        (6, 9, 9),
        (5, 13, 15),
        (5, 13, 16),
        (6, 9, 17),
        (7, 33, 23),
        (3, 40, 31),
        (3, 64, 32),
        (2, 40, 33),
        (3, 72, 64),
        (2, 40, 65),
    ];

    #[test]
    fn fast_matmul_block_matches_reference_within_tolerance() {
        // The tolerance is zero: on finite operands, with ReLU zeros of
        // both signs in `a`, Fast's bits are Reference's, from a zeroed
        // block (`Tensor::matmul`) and from a noise block (a partial
        // fold continued by `Tensor::matmul_onto`).
        for (n, k, m) in SHAPES {
            let a = relu_fill(1 + n as u64, n * k);
            let b = fill(2 + m as u64, k * m);
            for init in [vec![0.0f32; n * m], fill(3, n * m)] {
                let mut want = init.clone();
                let mut got = init;
                ReferenceBackend.matmul_block(&a, &b, k, m, 0..n, &mut want);
                FastBackend.matmul_block(&a, &b, k, m, 0..n, &mut got);
                assert_eq!(bits(&want), bits(&got), "matmul {n}x{k}x{m}");
            }
        }
    }

    /// The per-element sequence `matmul_row` runs: start from the
    /// block's value, then for `kk` ascending one rounded multiply and
    /// one rounded add, with no zero skip.
    fn kept_fold(a: &[f32], b: &[f32], k: usize, m: usize, rows: Range<usize>, block: &mut [f32]) {
        for (local, i) in rows.enumerate() {
            for j in 0..m {
                let o = &mut block[local * m + j];
                for kk in 0..k {
                    *o += a[i * k + kk] * b[kk * m + j];
                }
            }
        }
    }

    #[test]
    fn fast_matmul_block_is_a_left_fold_from_the_block() {
        // On a zeroed block (what `Tensor::matmul` passes) this is the
        // output the kernels gave when they zeroed their accumulators;
        // on any other block the fold continues from its value.
        for (n, k, m) in SHAPES {
            let a = relu_fill(51 + n as u64, n * k);
            let b = fill(52 + m as u64, k * m);
            for init in [vec![0.0f32; n * m], fill(53, n * m)] {
                let mut want = init.clone();
                let mut got = init;
                kept_fold(&a, &b, k, m, 0..n, &mut want);
                FastBackend.matmul_block(&a, &b, k, m, 0..n, &mut got);
                assert_eq!(bits(&want), bits(&got), "matmul {n}x{k}x{m}");
            }
        }
    }

    #[test]
    fn fast_zero_times_non_finite_is_the_one_exception() {
        // A zero `a` entry (either sign) meeting an `inf` or NaN `b`
        // entry: Reference skips the step, the AVX2 row multiplies and
        // stores NaN. Without AVX2, Fast runs Reference's fold.
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        for m in [1usize, 8, 16, 17] {
            for zero in [0.0f32, -0.0] {
                for poison in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
                    let (k, n) = (3usize, 1usize);
                    let a = vec![1.5, zero, -2.0];
                    let mut b = fill(61, k * m);
                    b[m..2 * m].fill(poison);
                    let mut want = vec![0.0f32; n * m];
                    let mut got = want.clone();
                    ReferenceBackend.matmul_block(&a, &b, k, m, 0..n, &mut want);
                    FastBackend.matmul_block(&a, &b, k, m, 0..n, &mut got);
                    assert!(want.iter().all(|x| x.is_finite()), "Reference skips");
                    if avx2 {
                        assert!(got.iter().all(|x| x.is_nan()), "m={m} {zero} × {poison}");
                    } else {
                        assert_eq!(bits(&want), bits(&got), "m={m} {zero} × {poison}");
                    }
                }
            }
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
        assert_eq!(bits(&whole), bits(&split));
    }
}
