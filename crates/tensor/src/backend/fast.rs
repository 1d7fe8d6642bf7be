//! The AVX2 compilation of the kernels, and the one dispatch to it.
//!
//! [`Kernel::run`] runs every call of a [`Kernel`]. On an x86_64 host
//! with AVX2 (detected at run time) `Matmul` runs [`x86::matmul_row`],
//! an intrinsics row that keeps one lane per output element: each
//! element starts from the output's value and, for `kk` ascending, does
//! one rounded multiply and one rounded add, Reference's sequence.
//! `MatmulTb`, `MatmulTa` and `Spmm` run Reference's own source, the
//! `#[inline(always)]` bodies behind [`Kernel::baseline`], compiled
//! inside a `#[target_feature(enable = "avx2")]` fn. Elsewhere every
//! kernel runs its baseline compilation. Both compilations give the same
//! bits, which `avx2_kernels_are_bit_identical_to_the_baseline` holds.
//!
//! This module is the **only** place in the workspace allowed to touch
//! `std::arch`: `tests/arch_fence.rs` fails on an `arch` path anywhere
//! else, and the workspace denies `unsafe_code`, which the loads,
//! stores and `#[target_feature]` calls here need, everywhere but this
//! module and the `gp` binary's `signal(2)` call.

#![expect(
    unsafe_code,
    reason = "the AVX2 kernels, entered only after runtime feature detection"
)]

use super::reference::Kernel;

impl Kernel<'_> {
    /// Runs the kernel: its AVX2 compilation where the host has AVX2,
    /// its baseline compilation elsewhere.
    pub(crate) fn run(self) {
        if let Some(kernel) = avx2(self) {
            kernel.baseline();
        }
    }
}

/// Runs `kernel`'s AVX2 compilation and returns `None`, or returns the
/// kernel unrun on a host without AVX2.
fn avx2(kernel: Kernel<'_>) -> Option<Kernel<'_>> {
    // std caches the detection: one load per call.
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 was detected just above.
        unsafe { x86::run(kernel) };
        return None;
    }
    Some(kernel)
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use super::Kernel;

    /// `kernel` compiled for AVX2: `Matmul` row by row through
    /// [`matmul_row`], every other kernel through its inlined
    /// [`Kernel::baseline`] source.
    #[target_feature(enable = "avx2")]
    pub(super) fn run(kernel: Kernel<'_>) {
        match kernel {
            Kernel::Matmul { a, b, k, m, out } => {
                assert!(b.len() >= k * m, "matmul: b holds fewer than k×m");
                if m == 0 {
                    return; // no output element
                }
                for (i, o_row) in out.chunks_exact_mut(m).enumerate() {
                    let a_row = &a[i * k..(i + 1) * k];
                    // SAFETY: this fn runs only on AVX2 hosts; `a_row`
                    // holds k entries, `o_row` m, and `b` at least k×m.
                    unsafe { matmul_row(a_row, b, m, o_row) };
                }
            }
            other => other.baseline(),
        }
    }

    /// One output row with 16-wide register tiles (two accumulators,
    /// loaded from `o_row`, held across the whole `k` loop), 8-wide then
    /// scalar tails.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support; `b.len() >= k*m`,
    /// `o_row.len() == m`, `a_row.len() == k`.
    #[target_feature(enable = "avx2")]
    unsafe fn matmul_row(a_row: &[f32], b: &[f32], m: usize, o_row: &mut [f32]) {
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
    use crate::rng::StdRng;
    use crate::sparse::EdgeList;
    use crate::tensor::Tensor;

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

    /// `Matmul` of `a` onto `out`, through the dispatch.
    fn matmul(a: &[f32], b: &[f32], k: usize, m: usize, out: &mut [f32]) {
        Kernel::Matmul { a, b, k, m, out }.run();
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
        // both signs in `a`, the dispatched `Matmul` (the AVX2 row on
        // AVX2 hosts) gives the baseline compilation's bits, from a
        // zeroed output (`Tensor::matmul`) and from a noise output (a
        // partial fold continued by `Tensor::matmul_onto`).
        for (n, k, m) in SHAPES {
            let a = relu_fill(1 + n as u64, n * k);
            let b = fill(2 + m as u64, k * m);
            for init in [vec![0.0f32; n * m], fill(3, n * m)] {
                let mut want = init.clone();
                let mut got = init;
                let (a, b) = (&a[..], &b[..]);
                let out = &mut want[..];
                Kernel::Matmul { a, b, k, m, out }.baseline();
                matmul(a, b, k, m, &mut got);
                assert_eq!(bits(&want), bits(&got), "matmul {n}x{k}x{m}");
            }
        }
    }

    /// The per-element sequence of every `Matmul` path: start from the
    /// output's value, then for `kk` ascending one rounded multiply and
    /// one rounded add.
    fn kept_fold(a: &[f32], b: &[f32], k: usize, m: usize, n: usize, out: &mut [f32]) {
        for i in 0..n {
            for j in 0..m {
                let o = &mut out[i * m + j];
                for kk in 0..k {
                    *o += a[i * k + kk] * b[kk * m + j];
                }
            }
        }
    }

    #[test]
    fn fast_matmul_block_is_a_left_fold_from_the_block() {
        // On a zeroed output (what `Tensor::matmul` passes) this is the
        // output the kernels gave when they zeroed their accumulators;
        // on any other output the fold continues from its value.
        for (n, k, m) in SHAPES {
            let a = relu_fill(51 + n as u64, n * k);
            let b = fill(52 + m as u64, k * m);
            for init in [vec![0.0f32; n * m], fill(53, n * m)] {
                let mut want = init.clone();
                let mut got = init;
                kept_fold(&a, &b, k, m, n, &mut want);
                matmul(&a, &b, k, m, &mut got);
                assert_eq!(bits(&want), bits(&got), "matmul {n}x{k}x{m}");
            }
        }
    }

    /// Output widths of the baseline/AVX2 comparison: both sides of the
    /// 8- and 16-lane AVX2 tiles, of the 8-wide narrow split and of the
    /// 32-lane tile.
    const WIDTHS: [usize; 11] = [1, 7, 8, 15, 16, 17, 31, 32, 33, 64, 65];

    /// `len` entries in `[-2, 2)`, about a quarter of them `0.0` or
    /// `-0.0`.
    fn sparse(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len)
            .map(|_| match rng.gen_range(0..8usize) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-2.0f32..2.0),
            })
            .collect()
    }

    /// `sparse`, with `inf`, `-inf` or NaN at the positions `poisoned`
    /// picks.
    fn poisoned(rng: &mut StdRng, len: usize, poisoned: bool) -> Vec<f32> {
        let poison = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let mut v = sparse(rng, len);
        if poisoned {
            for x in &mut v {
                if rng.gen_range(0..16usize) == 0 {
                    *x = poison[rng.gen_range(0..poison.len())];
                }
            }
        }
        v
    }

    /// Runs `kernel` by its baseline compilation, or through
    /// [`Kernel::run`] (the AVX2 compilation on AVX2 hosts).
    fn go(kernel: Kernel<'_>, baseline: bool) {
        if baseline {
            kernel.baseline();
        } else {
            kernel.run();
        }
    }

    /// Runs `kernel` on two copies of `out`, by both compilations
    /// ([`go`]), and asserts equal bits, with every NaN compared as one:
    /// an add of two NaNs returns one of them, the first operand on
    /// x86, and the two compilations may order an add's operands
    /// differently.
    fn assert_both(out: &[f32], case: &str, kernel: impl Fn(&mut [f32], bool)) {
        let (mut want, mut got) = (out.to_vec(), out.to_vec());
        kernel(&mut want, true);
        kernel(&mut got, false);
        let class = |x: f32| if x.is_nan() { f32::NAN } else { x }.to_bits();
        for (e, (&w, &g)) in want.iter().zip(&got).enumerate() {
            assert_eq!(class(w), class(g), "{case} element {e}: {w} vs {g}");
        }
    }

    #[test]
    fn avx2_kernels_are_bit_identical_to_the_baseline() {
        // Zeros of both signs in `a` meet `inf` and NaN in `b` (and in
        // the prior output, for the kernels that accumulate); a skipped
        // zero, an FMA or a reassociated sum in either compilation moves
        // bits here. On a host without AVX2 both sides are the baseline.
        let rng = &mut StdRng::seed_from_u64(0x5eed);
        let n = 5usize;
        for m in WIDTHS {
            for k in [0usize, 1, 3, 8, 33, 72] {
                for poison in [false, true] {
                    let case = format!("m={m} k={k} poison={poison}");
                    let a = poisoned(rng, n * k, false);
                    let at = poisoned(rng, k * n, false);
                    let b = poisoned(rng, k * m, poison);
                    let init = poisoned(rng, n * m, poison);
                    assert_both(&init, &format!("matmul {case}"), |out, baseline| {
                        // Rows 1..4 of `a`.
                        let out = &mut out[..3 * m];
                        let (a, b) = (&a[k..4 * k], &b[..]);
                        go(Kernel::Matmul { a, b, k, m, out }, baseline);
                    });
                    assert_both(&init, &format!("matmul_tb {case}"), |out, baseline| {
                        let (a, bt) = (&a[..], &b[..]);
                        go(Kernel::MatmulTb { a, bt, k, m, out }, baseline);
                    });
                    assert_both(&init, &format!("matmul_ta {case}"), |out, baseline| {
                        let (a, b) = (&at[..], &b[..]);
                        go(Kernel::MatmulTa { a, b, n, k, m, out }, baseline);
                    });
                    // Edges with repeats and self-loops, weights with
                    // signed zeros (skipped) and non-finite entries.
                    let pairs = (0..3 * n).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)));
                    let edges = EdgeList::from_pairs(pairs.map(|(s, t)| (s as u32, t as u32)));
                    let w = poisoned(rng, edges.len(), poison);
                    let x = Tensor::from_vec(n, m, poisoned(rng, n * m, poison));
                    assert_both(&init, &format!("spmm {case}"), |block, baseline| {
                        let mut out = Tensor::from_vec(n, m, block.to_vec());
                        let (edges, x, w) = (&edges, &x, Some(&w[..]));
                        go(
                            Kernel::Spmm {
                                edges,
                                x,
                                w,
                                out: &mut out,
                            },
                            baseline,
                        );
                        block.copy_from_slice(out.as_slice());
                    });
                }
            }
        }
    }

    #[test]
    fn zero_times_non_finite_is_nan_on_every_path() {
        // A zero `a` entry (either sign) meeting an `inf` or NaN `b`
        // entry multiplies, so the element is NaN, in `matmul`,
        // `matmul_tb` and `matmul_ta`, in both compilations.
        for m in [1usize, 8, 16, 17] {
            for zero in [0.0f32, -0.0] {
                for poison in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
                    let (k, n) = (3usize, 1usize);
                    let a = [1.5, zero, -2.0];
                    let mut b = fill(61, k * m);
                    b[m..2 * m].fill(poison);
                    // `a` as a `k×1` column is its own `aᵀ` for `MatmulTa`.
                    let kernel = |which: usize, baseline: bool| {
                        let (a, b) = (&a[..], &b[..]);
                        let mut got = vec![0.0f32; m];
                        let out = &mut got[..];
                        match which {
                            0 => go(Kernel::Matmul { a, b, k, m, out }, baseline),
                            1 => go(
                                Kernel::MatmulTb {
                                    a,
                                    bt: b,
                                    k,
                                    m,
                                    out,
                                },
                                baseline,
                            ),
                            _ => go(Kernel::MatmulTa { a, b, n, k, m, out }, baseline),
                        }
                        got
                    };
                    for which in 0..3 {
                        for baseline in [true, false] {
                            let got = kernel(which, baseline);
                            assert!(
                                got.iter().all(|x| x.is_nan()),
                                "kernel {which} baseline {baseline} m={m} {zero} × {poison}: {got:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fast_rows_are_bit_identical_across_block_splits() {
        // Rows are computed on their own: a row's bits do not depend on
        // which other rows the call covers, which the read-rows pass and
        // `keyed_rows` (each computing a subset of rows) rely on.
        let (n, k, m) = (6usize, 21usize, 19usize);
        let a = fill(21, n * k);
        let b = fill(22, k * m);
        let mut whole = vec![0.0f32; n * m];
        matmul(&a, &b, k, m, &mut whole);
        let mut split = vec![0.0f32; n * m];
        let cut = 2usize;
        let (lo, hi) = split.split_at_mut(cut * m);
        matmul(&a[..cut * k], &b, k, m, lo);
        matmul(&a[cut * k..], &b, k, m, hi);
        assert_eq!(bits(&whole), bits(&split));
    }
}
