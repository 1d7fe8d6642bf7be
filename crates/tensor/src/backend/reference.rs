//! The bit-exact scalar kernels of the pre-backend `Tensor`/`Tape`
//! implementations; the three matmul kernels are register-tiled, every
//! other kernel is the original loop.
//!
//! [`Kernel`] names the four kernels that also have an AVX2
//! compilation (`matmul`, `matmul_tb`, `matmul_ta` and `spmm`);
//! [`Kernel::baseline`] runs the source here as the target's baseline
//! compiles it, and the [arch module](super::fast) runs it, or for
//! `matmul` an intrinsics row with the same sequence, on AVX2 hosts.
//! Every other kernel is a plain function here.
//!
//! **The contract is the per-element float sequence, not the loop.**
//! Every output element of every kernel here runs a pinned sequence of
//! IEEE operations, and that sequence *is* the determinism contract:
//! it is what the kernel unit tests, the golden digests and the
//! end-to-end pipeline tests pin. For `matmul`,
//! element `(i, j)` starts from the output's value and, for `kk`
//! ascending, does one rounded multiply `a[i][kk] * b[kk][j]` followed
//! by one rounded add onto the accumulator. `matmul_ta` (`aᵀ · b`, `a`
//! is `k×n`) is the same fold with `a[kk][i]` in place of `a[i][kk]`.
//! `matmul_tb` (`a · bᵀ`) is the same fold over `bᵀ` from `+0.0`. None
//! skips a zero `a` entry, so a zero times `inf` or NaN is NaN on every
//! path.
//!
//! Loop nesting, what stays in registers and the instruction set may
//! change; the sequence may not. So no FMA (`mul_add`) and no
//! reassociation (split accumulators, pairwise or lane sums): each is
//! mathematically neutral but changes bits of every previously
//! committed prediction and pre-trained model. Rust neither contracts
//! `a * b + c` into an FMA nor reassociates, so compiling this source
//! for AVX2 keeps the sequence. The tests hold each kernel to its
//! original loop, kept in the test module, bit for bit.

use crate::sparse::EdgeList;
use crate::tensor::Tensor;

/// One call of a kernel with an AVX2 compilation, with its operands.
/// Each call covers its whole output. Every output row is computed on
/// its own, so a call over some of the rows gives those rows' bits.
pub(crate) enum Kernel<'a> {
    /// `out[i] += a[i] · b` for every row `i` of the `n×m` `out`: `a` is
    /// `n×k`, `b` is `k×m`, each element folding `kk` ascending from
    /// `out`'s value. A fold split at any `kk` and continued from the
    /// stored partial (see [`Tensor::matmul_onto`]) gives the unsplit
    /// result.
    Matmul {
        a: &'a [f32],
        b: &'a [f32],
        k: usize,
        m: usize,
        out: &'a mut [f32],
    },
    /// `out[i] = a[i] · bt`: `Matmul` from a zeroed `out`, where `bt` is
    /// the transpose (`k×m`) of [`Tensor::matmul_tb`]'s `m×k` right
    /// operand. It differs from `Matmul` only in its AVX2 compilation.
    MatmulTb {
        a: &'a [f32],
        bt: &'a [f32],
        k: usize,
        m: usize,
        out: &'a mut [f32],
    },
    /// `out[i] += (column i of a) · b` for every row `i` of the `n×m`
    /// `out`: `a` is `k×n`, `b` is `k×m` (see [`matmul_ta_block`]).
    MatmulTa {
        a: &'a [f32],
        b: &'a [f32],
        n: usize,
        k: usize,
        m: usize,
        out: &'a mut [f32],
    },
    /// `out[dst] += w_e · x[src]` over `edges` (see [`spmm`]).
    Spmm {
        edges: &'a EdgeList,
        x: &'a Tensor,
        w: Option<&'a [f32]>,
        out: &'a mut Tensor,
    },
}

impl Kernel<'_> {
    /// Runs the kernel's source as the caller's target features compile
    /// it: the baseline from [`Kernel::run`](super::fast), AVX2 from
    /// inside the arch module's `#[target_feature]` fn. Every kernel
    /// body below is `#[inline(always)]` so that it is compiled there.
    #[inline(always)]
    pub(crate) fn baseline(self) {
        match self {
            Kernel::Matmul { a, b, k, m, out } => fold_block(a, b, k, m, out),
            Kernel::MatmulTb { a, bt, k, m, out } => {
                out.fill(0.0);
                fold_block(a, bt, k, m, out);
            }
            Kernel::MatmulTa { a, b, n, k, m, out } => matmul_ta_block(a, b, n, k, m, out),
            Kernel::Spmm { edges, x, w, out } => spmm(edges, x, w, out),
        }
    }
}

/// Dot product `Σ a[i]·b[i]` (slices already length-checked), as an
/// ascending-index sum — the exact loop [`cosine`] runs for its `dot`
/// accumulator, so precomputed-norm cosine stays bit-identical.
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    let mut dot = 0.0f32;
    for kk in 0..a.len() {
        dot += a[kk] * b[kk];
    }
    dot
}

/// Ascending-index sum of squares `Σ a[i]²` (the pre-sqrt half of
/// [`l2_norm`](crate::l2_norm)).
pub(crate) fn sum_sq(a: &[f32]) -> f32 {
    let mut n = 0.0f32;
    for &x in a {
        n += x * x;
    }
    n
}

/// Cosine similarity with the `1e-12` zero-norm guard of
/// [`cosine_slices`](crate::cosine_slices): three independent
/// `k`-ascending accumulators in one pass; each matches the
/// corresponding standalone [`dot`]/[`sum_sq`] sum bit-for-bit.
pub(crate) fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let (mut dot, mut na, mut nb) = (0.0f32, 0.0f32, 0.0f32);
    for k in 0..a.len() {
        dot += a[k] * b[k];
        na += a[k] * a[k];
        nb += b[k] * b[k];
    }
    let denom = (na.sqrt() * nb.sqrt()).max(1e-12);
    dot / denom
}

/// Sparse aggregate `out[dst] += w_e · x[src]` over `edges`, in edge
/// order (`w = None` means unit weights); zero-weight edges are skipped
/// entirely.
#[inline(always)]
fn spmm(edges: &EdgeList, x: &Tensor, w: Option<&[f32]>, out: &mut Tensor) {
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

/// Stable grouped-by-destination softmax of `E×1` edge `scores` into
/// `out`: per-destination max subtraction, then edge-order
/// exp/sum/normalize with the `1e-12` empty-group guard.
pub(crate) fn edge_softmax(edges: &EdgeList, scores: &[f32], out: &mut [f32]) {
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

/// Output widths below this take [`matmul_block_narrow`] (and
/// [`ta_lanes`]); the rest are column-tiled by [`row_tile`], with any
/// columns past the last whole tile left to the untiled loop.
const NARROW_BELOW: usize = 8;

/// Column-tile width: the model's 32- and 64-wide layers are whole
/// tiles. Also the lane count of [`ta_lanes`]' row tiles.
const TILE: usize = 32;

/// `kk` rows per pass of [`matmul_ta_block`]'s wide path: the pass's
/// slice of `b` stays in L1 while every output row takes it.
const TA_CHUNK: usize = 32;

/// `out[i] += a[i] · b` for every row `i` of `out` (`a` is `n×k`, `b`
/// is `k×m`, `out` is `n×m`), each element folding `kk` ascending from
/// `out`'s value: wide rows keep a column tile in a local array across
/// the whole `kk` loop (one load and one store per tile instead of one
/// per `kk`), narrow outputs interleave four rows' accumulators.
#[inline(always)]
fn fold_block(a: &[f32], b: &[f32], k: usize, m: usize, out: &mut [f32]) {
    if m < NARROW_BELOW {
        matmul_block_narrow(a, b, k, m, out);
        return;
    }
    for (i, o_row) in out.chunks_exact_mut(m).enumerate() {
        fold_row(&a[i * k..(i + 1) * k], b, m, o_row);
    }
}

/// `o_row += a_row · b`: whole column tiles by [`row_tile`], the rest
/// by the untiled loop.
#[inline(always)]
fn fold_row(a_row: &[f32], b: &[f32], m: usize, o_row: &mut [f32]) {
    let mut j0 = 0;
    while j0 + TILE <= m {
        row_tile(a_row, b, m, j0, &mut o_row[j0..j0 + TILE]);
        j0 += TILE;
    }
    if j0 < m {
        let o_tail = &mut o_row[j0..];
        for (kk, &av) in a_row.iter().enumerate() {
            let b_tail = &b[kk * m + j0..(kk + 1) * m];
            for (o, &bv) in o_tail.iter_mut().zip(b_tail) {
                *o += av * bv;
            }
        }
    }
}

/// Columns `j0..j0 + TILE` of one output row: the tile is loaded once
/// into `acc`, takes every `a_row[kk]`'s `b` row slice in `kk` order,
/// and is stored once. Each lane is its own accumulator, so the
/// per-element sequence is the untiled loop's.
#[inline(always)]
fn row_tile(a_row: &[f32], b: &[f32], m: usize, j0: usize, out: &mut [f32]) {
    let mut acc = [0.0f32; TILE];
    acc.copy_from_slice(out);
    for (kk, &av) in a_row.iter().enumerate() {
        let bt = &b[kk * m + j0..kk * m + j0 + TILE];
        for (l, &bv) in bt.iter().enumerate() {
            acc[l] += av * bv;
        }
    }
    out.copy_from_slice(&acc);
}

/// `m < 8` (the 64→1 score heads): four rows per pass, each with its
/// own accumulator, so their add chains overlap.
#[inline(always)]
fn matmul_block_narrow(a: &[f32], b: &[f32], k: usize, m: usize, out: &mut [f32]) {
    if k == 0 || m == 0 {
        return; // nothing accumulates
    }
    let a_row = |i: usize| &a[i * k..(i + 1) * k];
    let n = out.len() / m;
    let quads = n - n % 4;
    for i in (0..quads).step_by(4) {
        let (a0, a1, a2, a3) = (a_row(i), a_row(i + 1), a_row(i + 2), a_row(i + 3));
        for j in 0..m {
            let mut acc = [0usize, 1, 2, 3].map(|r| out[(i + r) * m + j]);
            let b_col = b[j..].iter().step_by(m);
            for ((((&x0, &x1), &x2), &x3), &bv) in a0.iter().zip(a1).zip(a2).zip(a3).zip(b_col) {
                acc[0] += x0 * bv;
                acc[1] += x1 * bv;
                acc[2] += x2 * bv;
                acc[3] += x3 * bv;
            }
            for (r, v) in acc.into_iter().enumerate() {
                out[(i + r) * m + j] = v;
            }
        }
    }
    for i in quads..n {
        let a0 = a_row(i);
        for j in 0..m {
            let mut acc = out[i * m + j];
            for (&x0, &bv) in a0.iter().zip(b[j..].iter().step_by(m)) {
                acc += x0 * bv;
            }
            out[i * m + j] = acc;
        }
    }
}

/// `out += aᵀ · b`: `out[i] += (column i of a) · b` for every row `i`
/// of the `n×m` `out`. `a` is `k×n`, `b` is `k×m`, each element folds
/// `kk` ascending from `out`'s value.
///
/// Output row `i` is `matmul`'s fold with column `i` of `a` as its `a`
/// row: wide rows take it in `kk` chunks, each gathering the chunk's
/// columns of `a` into contiguous rows and keeping a column tile in
/// registers across the chunk; narrow outputs put one output row in
/// each lane. A wide element's fold is stored at the end of each `kk`
/// chunk and reloaded at the start of the next, which rounds nothing.
#[inline(always)]
fn matmul_ta_block(a: &[f32], b: &[f32], n: usize, k: usize, m: usize, out: &mut [f32]) {
    if k == 0 {
        return; // nothing accumulates, and `a` is empty
    }
    if m < NARROW_BELOW {
        let mut i0 = 0;
        while i0 + TILE <= n {
            ta_lanes::<TILE>(a, b, n, m, i0, &mut out[i0 * m..]);
            i0 += TILE;
        }
        for i in i0..n {
            ta_lanes::<1>(a, b, n, m, i, &mut out[i * m..]);
        }
        return;
    }
    let mut at = vec![0.0f32; n * TA_CHUNK];
    for kc in (0..k).step_by(TA_CHUNK) {
        let ke = (kc + TA_CHUNK).min(k);
        let c = ke - kc;
        for kk in kc..ke {
            for (i, &v) in a[kk * n..(kk + 1) * n].iter().enumerate() {
                at[i * TA_CHUNK + kk - kc] = v;
            }
        }
        let b_chunk = &b[kc * m..ke * m];
        for (i, o_row) in out.chunks_exact_mut(m).enumerate() {
            let a_col = &at[i * TA_CHUNK..i * TA_CHUNK + c];
            fold_row(a_col, b_chunk, m, o_row);
        }
    }
}

/// `m < 8` (the gradients of the 64→1 heads' weights): output rows
/// `i0..i0 + L`, the first `L` rows of `out`, side by side, one lane
/// each. Every `kk` loads `L` contiguous `a[kk][i]` and one `b[kk][j]`.
#[inline(always)]
fn ta_lanes<const L: usize>(a: &[f32], b: &[f32], n: usize, m: usize, i0: usize, out: &mut [f32]) {
    for j in 0..m {
        let mut acc = [0.0f32; L];
        for (l, x) in acc.iter_mut().enumerate() {
            *x = out[l * m + j];
        }
        for (a_row, b_row) in a.chunks_exact(n).zip(b.chunks_exact(m)) {
            let bv = b_row[j];
            for (x, &av) in acc.iter_mut().zip(&a_row[i0..i0 + L]) {
                *x += av * bv;
            }
        }
        for (l, &x) in acc.iter().enumerate() {
            out[l * m + j] = x;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::ops::Range;

    use super::*;
    use crate::rng::{check, StdRng};

    /// The untiled `matmul_block` loop this kernel replaced, kept as the
    /// oracle for its per-element float sequence (without the zero skip
    /// it once had).
    fn kept_loop(a: &[f32], b: &[f32], k: usize, m: usize, rows: Range<usize>, block: &mut [f32]) {
        for (local, i) in rows.enumerate() {
            let a_row = &a[i * k..(i + 1) * k];
            let o_row = &mut block[local * m..(local + 1) * m];
            for (kk, &av) in a_row.iter().enumerate() {
                let b_row = &b[kk * m..(kk + 1) * m];
                for (o, &bv) in o_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    }

    /// The per-element dot `matmul_tb_block` ran before it was tiled,
    /// kept verbatim as the oracle for its float sequence.
    fn kept_tb_loop(
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

    /// The `k`-outer `matmul_ta_serial` loop before it was tiled, kept
    /// as an oracle (without the zero skip it once had).
    fn kept_ta_serial(a: &[f32], b: &[f32], n: usize, k: usize, m: usize, out: &mut [f32]) {
        for kk in 0..k {
            let a_row = &a[kk * n..(kk + 1) * n];
            let b_row = &b[kk * m..(kk + 1) * m];
            for (i, &av) in a_row.iter().enumerate() {
                let o_row = &mut out[i * m..(i + 1) * m];
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

    /// A signed zero: `-0.0` must fold exactly like `0.0`.
    fn zero(rng: &mut StdRng) -> f32 {
        if rng.gen_range(0..2usize) == 0 {
            0.0
        } else {
            -0.0
        }
    }

    /// `n×k` `A` with the given zero pattern and `k×m` `B`. In the
    /// sparse patterns some columns of `A` are zero in every row (dead
    /// ReLU units), and the matching `B` rows hold `inf`/NaN: the loops
    /// multiply there and store NaN, so a kernel that skips zeros stores
    /// a number instead.
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

    /// Both sides of the narrow split (8) and of the tile width (32), and
    /// multi-tile rows with remainders.
    const MS: [usize; 12] = [1, 2, 7, 8, 9, 31, 32, 33, 63, 64, 65, 80];

    /// `x` (`rows×cols`, row-major) transposed.
    fn transpose(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut t = vec![0.0f32; x.len()];
        for r in 0..rows {
            for c in 0..cols {
                t[c * rows + r] = x[r * cols + c];
            }
        }
        t
    }

    /// `len` values in `[-1, 1)`: a block's prior contents.
    fn noise(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    /// Bit equality, with every NaN compared as one: which NaN an add of
    /// two NaNs returns is not specified (it follows the operand order
    /// the compiler picks).
    fn assert_bits(want: &[f32], got: &[f32], case: &str) {
        assert_eq!(want.len(), got.len(), "{case}");
        let class = |x: f32| if x.is_nan() { f32::NAN } else { x }.to_bits();
        for (e, (&w, &g)) in want.iter().zip(got).enumerate() {
            assert_eq!(class(w), class(g), "{case} element {e}: {w} vs {g}");
        }
    }

    #[test]
    fn matmul_block_is_bit_identical_to_the_kept_loop() {
        // k from empty to past two 64-wide hidden layers; empty outputs.
        check(2, |rng| {
            for m in MS {
                for k in 0..=140 {
                    for zeros in [Zeros::None, Zeros::Relu, Zeros::All] {
                        let n = rng.gen_range(0..8usize);
                        let (a, b) = operands(rng, n, k, m, zeros);
                        let init = noise(rng, n * m);
                        let (mut want, mut got) = (init.clone(), init);
                        kept_loop(&a, &b, k, m, 0..n, &mut want);
                        Kernel::Matmul {
                            a: &a,
                            b: &b,
                            k,
                            m,
                            out: &mut got,
                        }
                        .baseline();
                        let case = format!("n={n} k={k} m={m} {zeros:?}");
                        assert_bits(&want, &got, &case);
                    }
                }
            }
        });
    }

    #[test]
    fn matmul_tb_block_is_bit_identical_to_the_kept_loop() {
        // The kept loop takes `b` as `m×k`, the kernel its transpose
        // (`operands`' `k×m` matrix), so the `inf`/NaN poison sits
        // where `a` is zero. The output starts as noise: the kernel
        // overwrites.
        check(2, |rng| {
            for m in MS {
                for k in 0..=140 {
                    for zeros in [Zeros::None, Zeros::Relu, Zeros::All] {
                        let n = rng.gen_range(0..8usize);
                        let (a, bt) = operands(rng, n, k, m, zeros);
                        let b = transpose(&bt, k, m);
                        let init = noise(rng, n * m);
                        let (mut want, mut got) = (init.clone(), init);
                        kept_tb_loop(&a, &b, k, m, 0..n, &mut want);
                        Kernel::MatmulTb {
                            a: &a,
                            bt: &bt,
                            k,
                            m,
                            out: &mut got,
                        }
                        .baseline();
                        let case = format!("n={n} k={k} m={m} {zeros:?}");
                        assert_bits(&want, &got, &case);
                    }
                }
            }
        });
    }

    #[test]
    fn matmul_ta_is_bit_identical_to_the_kept_loops() {
        // `a` is `operands`' `n×k` matrix transposed (`k×n`), so an
        // all-zero `a` row `kk` meets a poisoned `b` row `kk`. Narrow
        // outputs take up to 71 rows, so lane tiles (32 rows) and their
        // remainders both run.
        check(2, |rng| {
            for m in MS {
                for k in 0..=140 {
                    for zeros in [Zeros::None, Zeros::Relu, Zeros::All] {
                        let n = rng.gen_range(0..if m < NARROW_BELOW { 72 } else { 8usize });
                        let (a, b) = operands(rng, n, k, m, zeros);
                        let a = transpose(&a, n, k);
                        let init = noise(rng, n * m);
                        let (mut want, mut got) = (init.clone(), init);
                        kept_ta_serial(&a, &b, n, k, m, &mut want);
                        Kernel::MatmulTa {
                            a: &a,
                            b: &b,
                            n,
                            k,
                            m,
                            out: &mut got,
                        }
                        .baseline();
                        assert_bits(&want, &got, &format!("n={n} k={k} m={m} {zeros:?}"));
                    }
                }
            }
        });
    }
}
