//! The bit-exact scalar kernels of the pre-backend `Tensor`/`Tape`
//! implementations; `matmul_block` is register-tiled, every other
//! kernel is the original loop.
//!
//! **The contract is the per-element float sequence, not the loop.**
//! Every output element of every kernel here runs a pinned sequence of
//! IEEE operations, and that sequence *is* the determinism contract:
//! it is what the kernel unit tests, the parallel bit-identity
//! proptests and the end-to-end pipeline tests pin. For
//! `matmul_block`, element `(i, j)` starts from the block's value and,
//! for `kk` ascending, skips the step when `a[i][kk] == 0.0` (so
//! `-0.0` too) and otherwise does one rounded multiply `a[i][kk] *
//! b[kk][j]` followed by one rounded add onto the accumulator. Loop
//! nesting and what stays in registers may change; the sequence may
//! not. So no FMA (`mul_add`), no `std::arch` or `#[target_feature]`,
//! and no reassociation (split accumulators, pairwise or lane sums):
//! each is mathematically neutral but changes bits of every previously
//! committed prediction. `tests::matmul_block_is_bit_identical_to_the_kept_loop`
//! holds `matmul_block` to the original loop bit for bit. Speed that
//! needs a different sequence belongs in [`FastBackend`](super::FastBackend).

use std::ops::Range;

use super::{Backend, ComputeBackend};
use crate::sparse::EdgeList;
use crate::tensor::Tensor;

/// The default backend: scalar kernels with a pinned accumulation
/// order, bit-identical across runs, hosts, and worker counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReferenceBackend;

impl ComputeBackend for ReferenceBackend {
    fn kind(&self) -> Backend {
        Backend::Reference
    }

    /// Register-tiled `i-k-j` order, chosen by the output width `m`:
    /// wide rows keep a column tile in a local array across the whole
    /// `kk` loop (one load and one store per tile instead of one per
    /// `kk`), narrow outputs interleave four rows' accumulators. Zero
    /// `a` entries skip their `b` row (subgraph one-hots and ReLU
    /// outputs are sparse); see the module docs for the per-element
    /// sequence both paths keep.
    fn matmul_block(
        &self,
        a: &[f32],
        b: &[f32],
        k: usize,
        m: usize,
        rows: Range<usize>,
        block: &mut [f32],
    ) {
        if m < NARROW_BELOW {
            matmul_block_narrow(a, b, k, m, rows, block);
            return;
        }
        for (local, i) in rows.enumerate() {
            let a_row = &a[i * k..(i + 1) * k];
            let o_row = &mut block[local * m..(local + 1) * m];
            let mut j0 = 0;
            while j0 + TILE <= m {
                row_tile(a_row, b, m, j0, &mut o_row[j0..j0 + TILE]);
                j0 += TILE;
            }
            if j0 < m {
                let o_tail = &mut o_row[j0..];
                for (kk, &av) in a_row.iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    let b_tail = &b[kk * m + j0..(kk + 1) * m];
                    for (o, &bv) in o_tail.iter_mut().zip(b_tail) {
                        *o += av * bv;
                    }
                }
            }
        }
    }

    /// Per-element `kk`-ascending dot product.
    fn matmul_tb_block(
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
            for (j, o) in o_row.iter_mut().enumerate() {
                let b_row = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a_row[kk] * b_row[kk];
                }
                *o = acc;
            }
        }
    }

    /// `k`-outer loop streaming whole rows of `a` and `b`; each output
    /// element still accumulates in `kk`-ascending order, which is why
    /// this is bit-identical to the row-blocked path below.
    fn matmul_ta_serial(
        &self,
        a: &[f32],
        b: &[f32],
        n: usize,
        k: usize,
        m: usize,
        out: &mut [f32],
    ) {
        for kk in 0..k {
            let a_row = &a[kk * n..(kk + 1) * n];
            let b_row = &b[kk * m..(kk + 1) * m];
            for (i, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let o_row = &mut out[i * m..(i + 1) * m];
                for (o, &bv) in o_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    }

    /// Per-row recomputation with the same `kk`-ascending, zero-skipping
    /// accumulation per element as the serial path.
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
        for (local, i) in rows.enumerate() {
            let o_row = &mut block[local * m..(local + 1) * m];
            for kk in 0..k {
                let av = a[kk * n + i];
                if av == 0.0 {
                    continue;
                }
                let b_row = &b[kk * m..(kk + 1) * m];
                for (o, &bv) in o_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    }

    /// Ascending-index sum — the exact loop `cosine` runs for its `dot`
    /// accumulator, so precomputed-norm cosine stays bit-identical.
    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        let mut dot = 0.0f32;
        for kk in 0..a.len() {
            dot += a[kk] * b[kk];
        }
        dot
    }

    /// Ascending-index sum of squares (the pre-sqrt half of `l2_norm`).
    fn sum_sq(&self, a: &[f32]) -> f32 {
        let mut n = 0.0f32;
        for &x in a {
            n += x * x;
        }
        n
    }

    /// Three independent `k`-ascending accumulators in one pass; each
    /// matches the corresponding standalone [`dot`](Self::dot)/
    /// [`sum_sq`](Self::sum_sq) sum bit-for-bit.
    fn cosine(&self, a: &[f32], b: &[f32]) -> f32 {
        let (mut dot, mut na, mut nb) = (0.0f32, 0.0f32, 0.0f32);
        for k in 0..a.len() {
            dot += a[k] * b[k];
            na += a[k] * a[k];
            nb += b[k] * b[k];
        }
        let denom = (na.sqrt() * nb.sqrt()).max(1e-12);
        dot / denom
    }

    /// Edge-order scatter; zero-weight edges are skipped entirely.
    fn spmm(&self, edges: &EdgeList, x: &Tensor, w: Option<&[f32]>, out: &mut Tensor) {
        for e in 0..edges.len() {
            let (s, t) = (edges.src(e), edges.dst(e));
            let we = w.map_or(1.0, |ws| ws[e]);
            if we == 0.0 {
                continue;
            }
            let src_row = x.row(s);
            let dst_row = out.row_mut(t);
            for (o, &v) in dst_row.iter_mut().zip(src_row) {
                *o += we * v;
            }
        }
    }

    /// Stable grouped softmax: per-destination max subtraction, then
    /// edge-order exp/sum/normalize with the `1e-12` empty-group guard.
    fn edge_softmax(&self, edges: &EdgeList, scores: &[f32], out: &mut [f32]) {
        let n = edges.min_num_nodes();
        let mut gmax = vec![f32::NEG_INFINITY; n];
        for (e, &score) in scores[..edges.len()].iter().enumerate() {
            let d = edges.dst(e);
            gmax[d] = gmax[d].max(score);
        }
        let mut gsum = vec![0.0f32; n];
        for (e, x) in out.iter_mut().enumerate() {
            let d = edges.dst(e);
            *x = (scores[e] - gmax[d]).exp();
            gsum[d] += *x;
        }
        for (e, x) in out.iter_mut().enumerate() {
            *x /= gsum[edges.dst(e)].max(1e-12);
        }
    }
}

/// Output widths below this take [`matmul_block_narrow`]; the rest are
/// column-tiled by [`row_tile`], with any columns past the last whole
/// tile left to the untiled loop.
const NARROW_BELOW: usize = 8;

/// Column-tile width: the model's 32- and 64-wide layers are whole
/// tiles.
const TILE: usize = 32;

/// Columns `j0..j0 + TILE` of one output row: the tile is loaded once
/// into `acc`, takes every nonzero `a_row[kk]`'s `b` row slice in `kk`
/// order, and is stored once. Each lane is its own accumulator, so the
/// per-element sequence is the untiled loop's.
#[inline(always)]
fn row_tile(a_row: &[f32], b: &[f32], m: usize, j0: usize, out: &mut [f32]) {
    let mut acc = [0.0f32; TILE];
    acc.copy_from_slice(out);
    for (kk, &av) in a_row.iter().enumerate() {
        if av == 0.0 {
            continue;
        }
        let bt = &b[kk * m + j0..kk * m + j0 + TILE];
        for (l, &bv) in bt.iter().enumerate() {
            acc[l] += av * bv;
        }
    }
    out.copy_from_slice(&acc);
}

/// `m < 8` (the 64→1 score heads): four rows per pass, each with its
/// own accumulator, so their add chains overlap. The zero skip is a
/// select rather than a branch: when `av == 0.0` the sum is computed
/// and discarded, so the stored value is the skipping loop's even when
/// `bv` is `inf` or NaN.
fn matmul_block_narrow(
    a: &[f32],
    b: &[f32],
    k: usize,
    m: usize,
    rows: Range<usize>,
    block: &mut [f32],
) {
    #[inline(always)]
    fn step(acc: f32, av: f32, bv: f32) -> f32 {
        if av == 0.0 {
            acc
        } else {
            acc + av * bv
        }
    }
    if k == 0 {
        return; // nothing accumulates, and `b` is empty
    }
    let a_row = |local: usize| {
        let i = rows.start + local;
        &a[i * k..(i + 1) * k]
    };
    let n = rows.len();
    let quads = n - n % 4;
    for local in (0..quads).step_by(4) {
        let (a0, a1, a2, a3) = (
            a_row(local),
            a_row(local + 1),
            a_row(local + 2),
            a_row(local + 3),
        );
        for j in 0..m {
            let mut acc = [0usize, 1, 2, 3].map(|r| block[(local + r) * m + j]);
            let b_col = b[j..].iter().step_by(m);
            for ((((&x0, &x1), &x2), &x3), &bv) in a0.iter().zip(a1).zip(a2).zip(a3).zip(b_col) {
                acc[0] = step(acc[0], x0, bv);
                acc[1] = step(acc[1], x1, bv);
                acc[2] = step(acc[2], x2, bv);
                acc[3] = step(acc[3], x3, bv);
            }
            for (r, v) in acc.into_iter().enumerate() {
                block[(local + r) * m + j] = v;
            }
        }
    }
    for local in quads..n {
        let a0 = a_row(local);
        for j in 0..m {
            let mut acc = block[local * m + j];
            for (&x0, &bv) in a0.iter().zip(b[j..].iter().step_by(m)) {
                acc = step(acc, x0, bv);
            }
            block[local * m + j] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{check, StdRng};

    /// The untiled `matmul_block` loop this kernel replaced, kept
    /// verbatim as the oracle for its per-element float sequence.
    fn kept_loop(a: &[f32], b: &[f32], k: usize, m: usize, rows: Range<usize>, block: &mut [f32]) {
        for (local, i) in rows.enumerate() {
            let a_row = &a[i * k..(i + 1) * k];
            let o_row = &mut block[local * m..(local + 1) * m];
            for (kk, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &b[kk * m..(kk + 1) * m];
                for (o, &bv) in o_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    }

    /// How many of `A`'s entries are exact zeros.
    #[derive(Clone, Copy, Debug)]
    enum Zeros {
        None,
        Relu,
        All,
    }

    /// A signed zero: `-0.0` must be skipped exactly like `0.0`.
    fn zero(rng: &mut StdRng) -> f32 {
        if rng.gen_range(0..2usize) == 0 {
            0.0
        } else {
            -0.0
        }
    }

    /// `n×k` `A` with the given zero pattern and `k×m` `B`. In the
    /// sparse patterns some columns of `A` are zero in every row (dead
    /// ReLU units), and the matching `B` rows hold `inf`/NaN: a kernel
    /// that multiplies instead of skipping turns them into NaN.
    fn operands(
        rng: &mut StdRng,
        n: usize,
        k: usize,
        m: usize,
        zeros: Zeros,
    ) -> (Vec<f32>, Vec<f32>) {
        let mut a: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        let mut b: Vec<f32> = (0..k * m).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        match zeros {
            Zeros::None => {
                for x in &mut a {
                    if *x == 0.0 {
                        *x = 1.0;
                    }
                }
            }
            Zeros::Relu => {
                for x in &mut a {
                    if *x < 0.0 {
                        *x = zero(rng);
                    }
                }
            }
            Zeros::All => {
                for x in &mut a {
                    *x = zero(rng);
                }
            }
        }
        if !matches!(zeros, Zeros::None) {
            for kk in 0..k {
                if rng.gen_range(0..4usize) != 0 {
                    continue;
                }
                for i in 0..n {
                    a[i * k + kk] = zero(rng);
                }
                let poison = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
                for j in 0..m {
                    b[kk * m + j] = poison[rng.gen_range(0..poison.len())];
                }
            }
        }
        (a, b)
    }

    #[test]
    fn matmul_block_is_bit_identical_to_the_kept_loop() {
        // Both sides of the narrow split (8) and of the tile width (32),
        // multi-tile rows with remainders; k from empty to past two
        // 64-wide hidden layers; empty and offset row ranges.
        const MS: [usize; 12] = [1, 2, 7, 8, 9, 31, 32, 33, 63, 64, 65, 80];
        check(2, |rng| {
            for m in MS {
                for k in 0..=140 {
                    for zeros in [Zeros::None, Zeros::Relu, Zeros::All] {
                        let n = rng.gen_range(0..8usize);
                        let (a, b) = operands(rng, n, k, m, zeros);
                        let start = rng.gen_range(0..=n);
                        let end = rng.gen_range(start..=n);
                        let init: Vec<f32> = (0..(end - start) * m)
                            .map(|_| rng.gen_range(-1.0f32..1.0))
                            .collect();
                        let (mut want, mut got) = (init.clone(), init);
                        kept_loop(&a, &b, k, m, start..end, &mut want);
                        ReferenceBackend.matmul_block(&a, &b, k, m, start..end, &mut got);
                        for (e, (w, g)) in want.iter().zip(&got).enumerate() {
                            assert_eq!(
                                w.to_bits(),
                                g.to_bits(),
                                "n={n} k={k} m={m} rows={start}..{end} {zeros:?} element {e}: {w} vs {g}"
                            );
                        }
                    }
                }
            }
        });
    }
}
