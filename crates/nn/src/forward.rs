//! One forward pass over a [`ParamStore`], written once for training and
//! inference.
//!
//! Every layer's forward is generic over [`Forward`]. Two contexts
//! implement it:
//!
//! * [`Session`](crate::Session) records each op on a [`gp_tensor::Tape`] so that a
//!   backward pass can follow. Its values are tape [`gp_tensor::Var`]s.
//! * [`Eval`] runs the same ops with no tape. Its values are
//!   [`Cow`] tensors: parameters and data inputs are borrowed, never
//!   copied, and an op that can overwrite an input it owns (bias add,
//!   activations, row normalization) does so in place. Each intermediate
//!   is freed as soon as its last reader is done with it.
//!
//! Both contexts compute every value with the same gp-tensor functions,
//! so an [`Eval`] pass is bit-identical to a [`Session`](crate::Session) pass.
//!
//! Ownership follows the ops: an input an op may overwrite is taken by
//! value, one it only reads (or that its caller reads again) by
//! reference.
//!
//! One op lets the two contexts compute different row sets:
//! [`Forward::keyed_rows`] builds rows that depend only on a key.
//! [`Session`](crate::Session) records the build over every row, so the
//! tape and its gradient sums are those of the plain per-row pass.
//! [`Eval`] builds one row per distinct key and expands nothing. Both
//! return a [`RowMap`] from each keyed row to the built row that holds
//! its value, and the caller reads the built rows through it: a gather
//! ([`RowMap::expand`]) where it needs one row per keyed row, or edges
//! whose `src` is the built row ([`RowMap::sources`], [`RowMap::at`])
//! for an `spmm`, which then reads the same row values in the same edge
//! order. A `Session`'s map is the identity, and reading through it
//! records no op, so its tape is that of the plain pass (an identity
//! gather would not be: its scatter turns `-0.0` adjoints into `+0.0`).
//! The built rows agree bit for bit because the build must be row-local:
//! each output row may depend only on its own input row (gathers,
//! [`Forward::concat_cols`], a `Linear`, elementwise activations), never
//! on which other rows are computed with it. gp-tensor's `matmul` and
//! `matmul_tb` compute each output row on its own, so
//! a row's bits do not change with the row count.
//!
//! A second op shares work inside a row: [`Forward::gather_concat_matmul`]
//! computes `[x[idx] | B] · W`, the first layer of an MLP whose input
//! rows start with a gathered row of `x`, where a key marks equal
//! gathered rows (the reconstruction MLP's `h_u` share, and GraphSAGE's
//! `x_v` self share). [`Session`](crate::Session) records the plain
//! `gather_rows`, `concat_cols` and `matmul`. [`Eval`] never builds the
//! concatenation. It folds `x[idx[r]] · W[..c]` (`c = x.cols()`) once
//! per distinct key onto a zeroed output, gathers those partial sums to
//! every row, and continues each row's fold with `B · W[c..]` through
//! [`Tensor::matmul_onto`]. The two agree bit for bit because gp-tensor's
//! `matmul` is a `k`-ascending left fold per
//! output element that starts from the block's value: stopping after
//! step `c`, storing the partial sum and resuming from it runs the same
//! float operations in the same order. `W`'s gradient is `catᵀ·g` over
//! the same `cat` values either way.
//!
//! Row sets can also shrink in both contexts alike: a GNN encoder runs
//! its last layer only at the rows its caller reads (see
//! [`crate::gnn`]). That is a choice of inputs, not an op: the ops above
//! are row-local or edge-order folds, so each computed row keeps the
//! bits it has in the all-rows pass.

use std::borrow::Cow;
use std::sync::Arc;

use gp_tensor::tape::NORM_EPS;
use gp_tensor::{EdgeList, Tensor};

use crate::params::{ParamId, ParamStore};

/// The ops a layer's forward pass may use; see the [module docs](self).
///
/// `'a` is how long borrowed inputs ([`Forward::param`],
/// [`Forward::input`]) must live.
pub trait Forward<'a> {
    /// One value of the pass.
    type V;

    /// A parameter of the store.
    fn param(&mut self, id: ParamId) -> Self::V;
    /// A non-trainable data input, borrowed for the pass.
    fn input(&mut self, t: &'a Tensor) -> Self::V;
    /// A non-trainable data input the pass owns.
    fn data(&mut self, t: Tensor) -> Self::V;
    /// The tensor behind a value.
    fn value<'v>(&'v self, v: &'v Self::V) -> &'v Tensor;

    /// `A·B`.
    fn matmul(&mut self, a: &Self::V, b: &Self::V) -> Self::V;
    /// `A·Bᵀ`.
    fn matmul_tb(&mut self, a: &Self::V, b: &Self::V) -> Self::V;
    /// Elementwise `A + B`.
    fn add(&mut self, a: Self::V, b: &Self::V) -> Self::V;
    /// Elementwise `A ⊙ B`.
    fn mul(&mut self, a: Self::V, b: &Self::V) -> Self::V;
    /// `A · s`.
    fn scale(&mut self, a: Self::V, s: f32) -> Self::V;
    /// `X + row` broadcast over rows (bias add).
    fn add_row_broadcast(&mut self, x: Self::V, row: &Self::V) -> Self::V;
    /// Row `i` of `X` times element `i` of the column `col`.
    fn mul_rows_by_col(&mut self, x: Self::V, col: &Self::V) -> Self::V;
    /// Logistic sigmoid.
    fn sigmoid(&mut self, x: Self::V) -> Self::V;
    /// ReLU.
    fn relu(&mut self, x: Self::V) -> Self::V;
    /// Leaky ReLU with negative slope `slope`.
    fn leaky_relu(&mut self, x: Self::V, slope: f32) -> Self::V;
    /// tanh.
    fn tanh(&mut self, x: Self::V) -> Self::V;
    /// Elementwise `1/(x + eps)`.
    fn recip(&mut self, x: Self::V, eps: f32) -> Self::V;
    /// L2-normalize each row.
    fn row_l2_normalize(&mut self, x: Self::V) -> Self::V;
    /// `[A | B]`.
    fn concat_cols(&mut self, a: &Self::V, b: &Self::V) -> Self::V;
    /// Rows of `x` by index (duplicates allowed).
    fn gather_rows(&mut self, x: &Self::V, idx: Arc<Vec<usize>>) -> Self::V;
    /// `out[dst] += w_e · x[src]` over `edges`, into `out_rows` rows.
    fn spmm(
        &mut self,
        edges: &Arc<EdgeList>,
        x: &Self::V,
        w: Option<&Self::V>,
        out_rows: usize,
    ) -> Self::V;
    /// Softmax of `E×1` edge scores grouped by destination node.
    fn edge_softmax(&mut self, edges: &Arc<EdgeList>, scores: &Self::V) -> Self::V;
    /// `[x[idx] | B] · W`: rows of `x` by index, concatenated with `B`,
    /// times a `W` of `x.cols() + B.cols()` rows. `keys` has one entry
    /// per row and must be equal wherever the gathered rows `x[idx[r]]`
    /// are equal; like [`Forward::keyed_rows`]' keys they index a table
    /// of `max(keys) + 1` slots. See the [module docs](self) for how
    /// the two contexts compute it.
    fn gather_concat_matmul(
        &mut self,
        x: &Self::V,
        idx: Arc<Vec<usize>>,
        keys: &[usize],
        b: &Self::V,
        w: &Self::V,
    ) -> Self::V;
    /// Outputs for the rows of `keys`, where rows with equal keys are
    /// equal, and for each of those rows the built row that holds its
    /// value. `build(f, rows)` computes the outputs for the rows `rows`
    /// (indices into `keys`), one output row per entry, in order; it must
    /// be row-local (see the [module docs](self)). Keys index a table of
    /// `max(keys) + 1` slots, so they should be small.
    fn keyed_rows<const N: usize>(
        &mut self,
        keys: &[usize],
        build: impl FnOnce(&mut Self, &[usize]) -> [Self::V; N],
    ) -> ([Self::V; N], RowMap);
}

/// For each row of a [`Forward::keyed_rows`] call, the built row that
/// holds its value: the identity when every row was built (a `Session`,
/// or keys that are all distinct), else each row's first-appearance row.
#[derive(Clone, Debug)]
pub struct RowMap(Option<Arc<Vec<usize>>>);

impl RowMap {
    /// Every row is its own built row.
    pub fn identity() -> Self {
        Self(None)
    }

    /// The built row of row `r`.
    pub fn at(&self, r: usize) -> usize {
        self.0.as_ref().map_or(r, |map| map[r])
    }

    /// The built row of each row in `idx`; `idx` itself under the
    /// identity.
    pub fn compose(&self, idx: Arc<Vec<usize>>) -> Arc<Vec<usize>> {
        match &self.0 {
            None => idx,
            Some(map) => Arc::new(idx.iter().map(|&r| map[r]).collect()),
        }
    }

    /// `edges` with each `src` replaced by its built row; `edges` itself
    /// under the identity.
    pub fn sources(&self, edges: &Arc<EdgeList>) -> Arc<EdgeList> {
        match &self.0 {
            None => edges.clone(),
            Some(map) => EdgeList::from_pairs(edges.iter().map(|(s, d)| (map[s] as u32, d as u32)))
                .into_shared(),
        }
    }

    /// The built rows `x` expanded to one row per keyed row: `x` itself
    /// under the identity (no op is recorded), else a gather.
    pub fn expand<'a, F: Forward<'a>>(&self, f: &mut F, x: F::V) -> F::V {
        match &self.0 {
            None => x,
            Some(map) => f.gather_rows(&x, map.clone()),
        }
    }
}

/// The tape-free forward context: inference and validation passes that
/// never call for gradients.
pub struct Eval<'a> {
    store: &'a ParamStore,
}

impl<'a> Eval<'a> {
    /// A forward-only pass over `store`.
    pub fn new(store: &'a ParamStore) -> Self {
        Self { store }
    }
}

/// The first row of each distinct key, in first-appearance order, and
/// for each row the position of its key's first row in that list.
fn first_appearance(keys: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let mut slot = vec![usize::MAX; keys.iter().max().map_or(0, |&k| k + 1)];
    let mut rows = Vec::new();
    let expand = keys
        .iter()
        .enumerate()
        .map(|(r, &k)| {
            if slot[k] == usize::MAX {
                slot[k] = rows.len();
                rows.push(r);
            }
            slot[k]
        })
        .collect();
    (rows, expand)
}

/// Wrap a freshly computed value, checked like a tape node.
fn fresh<'a>(t: Tensor, op: &str) -> Cow<'a, Tensor> {
    t.debug_assert_finite(&op);
    Cow::Owned(t)
}

/// Run `f` on an owned copy of `x` (no copy when `x` is already owned).
fn in_place<'a>(x: Cow<'a, Tensor>, op: &str, f: impl FnOnce(&mut Tensor)) -> Cow<'a, Tensor> {
    let mut t = x.into_owned();
    f(&mut t);
    fresh(t, op)
}

impl<'a> Forward<'a> for Eval<'a> {
    type V = Cow<'a, Tensor>;

    fn param(&mut self, id: ParamId) -> Self::V {
        let t = self.store.get(id);
        t.debug_assert_finite(&"param");
        Cow::Borrowed(t)
    }

    fn input(&mut self, t: &'a Tensor) -> Self::V {
        t.debug_assert_finite(&"input");
        Cow::Borrowed(t)
    }

    fn data(&mut self, t: Tensor) -> Self::V {
        fresh(t, "input")
    }

    fn value<'v>(&'v self, v: &'v Self::V) -> &'v Tensor {
        v
    }

    fn matmul(&mut self, a: &Self::V, b: &Self::V) -> Self::V {
        fresh(a.matmul(b), "matmul")
    }

    fn matmul_tb(&mut self, a: &Self::V, b: &Self::V) -> Self::V {
        fresh(a.matmul_tb(b), "matmul_tb")
    }

    fn add(&mut self, a: Self::V, b: &Self::V) -> Self::V {
        in_place(a, "add", |t| t.add_in_place(b))
    }

    fn mul(&mut self, a: Self::V, b: &Self::V) -> Self::V {
        in_place(a, "mul", |t| t.mul_in_place(b))
    }

    fn scale(&mut self, a: Self::V, s: f32) -> Self::V {
        in_place(a, "scale", |t| t.scale_in_place(s))
    }

    fn add_row_broadcast(&mut self, x: Self::V, row: &Self::V) -> Self::V {
        in_place(x, "add_row_broadcast", |t| {
            t.add_row_broadcast_in_place(row)
        })
    }

    fn mul_rows_by_col(&mut self, x: Self::V, col: &Self::V) -> Self::V {
        in_place(x, "mul_rows_by_col", |t| t.mul_rows_by_col_in_place(col))
    }

    fn sigmoid(&mut self, x: Self::V) -> Self::V {
        in_place(x, "sigmoid", Tensor::sigmoid_in_place)
    }

    fn relu(&mut self, x: Self::V) -> Self::V {
        in_place(x, "relu", Tensor::relu_in_place)
    }

    fn leaky_relu(&mut self, x: Self::V, slope: f32) -> Self::V {
        in_place(x, "leaky_relu", |t| t.leaky_relu_in_place(slope))
    }

    fn tanh(&mut self, x: Self::V) -> Self::V {
        in_place(x, "tanh", Tensor::tanh_in_place)
    }

    fn recip(&mut self, x: Self::V, eps: f32) -> Self::V {
        in_place(x, "recip", |t| t.recip_in_place(eps))
    }

    fn row_l2_normalize(&mut self, x: Self::V) -> Self::V {
        in_place(x, "row_l2_normalize", |t| {
            t.l2_normalize_rows_in_place(NORM_EPS)
        })
    }

    fn concat_cols(&mut self, a: &Self::V, b: &Self::V) -> Self::V {
        fresh(a.concat_cols(b), "concat_cols")
    }

    fn gather_rows(&mut self, x: &Self::V, idx: Arc<Vec<usize>>) -> Self::V {
        fresh(x.gather_rows(&idx), "gather_rows")
    }

    fn spmm(
        &mut self,
        edges: &Arc<EdgeList>,
        x: &Self::V,
        w: Option<&Self::V>,
        out_rows: usize,
    ) -> Self::V {
        fresh(edges.spmm(x, w.map(|w| &**w), out_rows), "spmm")
    }

    fn edge_softmax(&mut self, edges: &Arc<EdgeList>, scores: &Self::V) -> Self::V {
        fresh(edges.edge_softmax(scores), "edge_softmax")
    }

    /// Folds `x[idx[r]] · W[..x.cols()]` once per distinct key, gathers
    /// the partial sums to every row, then continues each row's fold
    /// with `B · W[x.cols()..]` ([`Tensor::matmul_onto`]).
    fn gather_concat_matmul(
        &mut self,
        x: &Self::V,
        idx: Arc<Vec<usize>>,
        keys: &[usize],
        b: &Self::V,
        w: &Self::V,
    ) -> Self::V {
        let (rows, expand) = first_appearance(keys);
        let split = x.cols();
        let firsts: Vec<usize> = rows.iter().map(|&r| idx[r]).collect();
        let mut prefix = Tensor::zeros(firsts.len(), w.cols());
        prefix.matmul_onto(&x.gather_rows(&firsts), w, 0..split);
        let mut out = if rows.len() == keys.len() {
            // Every key distinct: `expand` is the identity.
            prefix
        } else {
            prefix.gather_rows(&expand)
        };
        out.matmul_onto(b, w, split..w.rows());
        fresh(out, "gather_concat_matmul")
    }

    /// Builds the first row of each distinct key and maps every row to
    /// its key's built row; nothing is expanded.
    fn keyed_rows<const N: usize>(
        &mut self,
        keys: &[usize],
        build: impl FnOnce(&mut Self, &[usize]) -> [Self::V; N],
    ) -> ([Self::V; N], RowMap) {
        let (rows, expand) = first_appearance(keys);
        let built = build(self, &rows);
        // Every key distinct: `expand` is the identity.
        let map = if rows.len() == keys.len() {
            RowMap::identity()
        } else {
            RowMap(Some(Arc::new(expand)))
        };
        (built, map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;

    /// A forward pass whose only op overflows to `+inf`.
    fn overflow<'a, F: Forward<'a>>(f: &mut F, x: &'a Tensor) -> F::V {
        let v = f.input(x);
        f.scale(v, f32::MAX)
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-finite forward value")]
    fn tape_panics_on_a_non_finite_forward_value() {
        let store = ParamStore::new();
        let x = Tensor::scalar(2.0);
        let _ = overflow(&mut Session::new(&store), &x);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-finite forward value")]
    fn eval_panics_on_a_non_finite_forward_value() {
        let store = ParamStore::new();
        let x = Tensor::scalar(2.0);
        let _ = overflow(&mut Eval::new(&store), &x);
    }

    #[test]
    fn eval_borrows_parameters_and_owns_what_it_computes() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(1, 2, vec![0.5, -1.0]));
        let mut ev = Eval::new(&store);
        let wv = ev.param(w);
        assert!(matches!(wv, Cow::Borrowed(_)));
        let y = ev.relu(wv);
        assert!(matches!(y, Cow::Owned(_)));
        assert_eq!(y.as_slice(), &[0.5, 0.0]);
        assert_eq!(
            store.get(w).as_slice(),
            &[0.5, -1.0],
            "the store is untouched"
        );
    }
}
