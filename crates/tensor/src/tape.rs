//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] is a Wengert list: each operation appends a node holding
//! its forward value and an [`Op`] record of its inputs. Because ids are
//! assigned in creation order they are already topologically sorted, so
//! [`Tape::backward`] is one reverse sweep that dispatches on the `Op`
//! enum — every adjoint is written out analytically, no boxed closures.
//!
//! Each node records on push whether it needs a gradient: a
//! [`Tape::input`] leaf does, a [`Tape::constant`] leaf (data) does not,
//! and an op does if and only if one of its inputs does. The sweep
//! computes no adjoint for a node that needs none, so the gradient of
//! data (say, the input of a first layer) costs nothing, and every
//! gradient that is computed takes the same operations as without the
//! pruning.
//!
//! Typical use (one tape per training step):
//!
//! ```
//! use gp_tensor::{Tape, Tensor};
//!
//! let mut tape = Tape::new();
//! let x = tape.input(Tensor::from_vec(1, 2, vec![1.0, 2.0]));
//! let w = tape.input(Tensor::from_vec(2, 1, vec![0.5, -0.25]));
//! let y = tape.matmul(x, w);
//! let loss = tape.sum_all(y);
//! let grads = tape.backward(loss);
//! assert_eq!(grads.get(w).as_slice(), &[1.0, 2.0]);
//! ```

use std::ops::Range;
use std::sync::Arc;

use crate::{EdgeList, Tensor};

/// Rows whose L2 norm is at most this pass [`Tape::row_l2_normalize`]
/// (and every other row-normalizing forward pass) unchanged.
pub const NORM_EPS: f32 = 1e-8;

/// Handle to a node on a [`Tape`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Var(usize);

/// The operation that produced a tape node, with its input handles.
#[derive(Clone, Debug)]
pub enum Op {
    /// A leaf: model parameter or data ([`Tape::input`] or
    /// [`Tape::constant`]).
    Input,
    /// `A·B`.
    MatMul(Var, Var),
    /// `A·Bᵀ` (used for cosine-similarity logits between row sets).
    MatMulTb(Var, Var),
    /// Elementwise `A + B`.
    Add(Var, Var),
    /// Elementwise `A - B`.
    Sub(Var, Var),
    /// Elementwise `A ⊙ B`.
    Mul(Var, Var),
    /// `A · s` for a compile-time-known scalar `s`.
    Scale(Var, f32),
    /// `X (n×d) + row (1×d)` broadcast over rows (bias add).
    AddRowBroadcast(Var, Var),
    /// Logistic sigmoid.
    Sigmoid(Var),
    /// Rectified linear unit.
    Relu(Var),
    /// Leaky ReLU with the given negative slope.
    LeakyRelu(Var, f32),
    /// Hyperbolic tangent.
    Tanh(Var),
    /// `[A | B]` column concatenation.
    ConcatCols(Var, Var),
    /// Row selection (duplicates allowed).
    GatherRows(Var, Arc<Vec<usize>>),
    /// Scale row `i` of `X (n×d)` by element `i` of a column `(n×1)`.
    MulRowsByCol(Var, Var),
    /// L2-normalize each row (rows with tiny norm pass through).
    RowL2Normalize(Var),
    /// Sparse-matrix × dense-matrix with optional differentiable edge
    /// weights: `out[dst] += w_e · x[src]` for every edge.
    Spmm {
        /// Dense input features, `n_src×d`.
        x: Var,
        /// Optional `E×1` edge weights (ones when absent).
        w: Option<Var>,
        /// The sparsity pattern.
        edges: Arc<EdgeList>,
        /// Number of output rows (destination nodes).
        out_rows: usize,
    },
    /// Softmax over `E×1` edge scores, grouped by destination node.
    EdgeSoftmax {
        /// Raw edge scores, `E×1`.
        scores: Var,
        /// Grouping pattern (`dst` defines the groups).
        edges: Arc<EdgeList>,
    },
    /// Elementwise reciprocal `1/(x + eps)`.
    Recip(Var, f32),
    /// Sum of all elements, producing `1×1`.
    SumAll(Var),
    /// Mean of all elements, producing `1×1`.
    MeanAll(Var),
    /// Mean cross-entropy of row logits against integer targets, `1×1`.
    CrossEntropyLogits {
        /// `n×m` unnormalized scores.
        logits: Var,
        /// `n` class indices, each `< m`.
        targets: Arc<Vec<usize>>,
    },
}

impl Op {
    /// The nodes this op reads (none for a leaf).
    fn inputs(&self) -> [Option<Var>; 2] {
        match self {
            Op::Input => [None, None],
            Op::MatMul(a, b)
            | Op::MatMulTb(a, b)
            | Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::AddRowBroadcast(a, b)
            | Op::ConcatCols(a, b)
            | Op::MulRowsByCol(a, b) => [Some(*a), Some(*b)],
            Op::Scale(x, _)
            | Op::Sigmoid(x)
            | Op::Relu(x)
            | Op::LeakyRelu(x, _)
            | Op::Tanh(x)
            | Op::GatherRows(x, _)
            | Op::RowL2Normalize(x)
            | Op::Recip(x, _)
            | Op::SumAll(x)
            | Op::MeanAll(x)
            | Op::EdgeSoftmax { scores: x, .. }
            | Op::CrossEntropyLogits { logits: x, .. } => [Some(*x), None],
            Op::Spmm { x, w, .. } => [Some(*x), *w],
        }
    }
}

struct Node {
    value: Tensor,
    op: Op,
    /// Whether the loss's gradient w.r.t. this node is wanted: an
    /// [`Tape::input`] leaf, or an op with such a node upstream.
    needs_grad: bool,
}

/// Gradients produced by [`Tape::backward`], indexed by [`Var`]. Only
/// [`Tape::input`] variables keep theirs: an intermediate node's gradient
/// is dropped once it has been propagated to that node's inputs, and a
/// [`Tape::constant`] gets none.
pub struct Grads {
    grads: Vec<Option<Tensor>>,
    shapes: Vec<(usize, usize)>,
}

impl Grads {
    /// Gradient of the loss w.r.t. the input `var`; a zero tensor if the
    /// variable did not influence the loss (or is not an input).
    pub fn get(&self, var: Var) -> Tensor {
        match &self.grads[var.0] {
            Some(g) => g.clone(),
            None => {
                let (r, c) = self.shapes[var.0];
                Tensor::zeros(r, c)
            }
        }
    }

    /// Borrow the gradient if the input `var` influenced the loss.
    pub fn try_get(&self, var: Var) -> Option<&Tensor> {
        self.grads[var.0].as_ref()
    }
}

/// The autodiff tape. Create one per forward/backward pass.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Forward value of a node.
    pub fn value(&self, var: Var) -> &Tensor {
        &self.nodes[var.0].value
    }

    /// Record an op; it needs a gradient if one of its inputs does.
    fn push(&mut self, value: Tensor, op: Op) -> Var {
        let needs_grad = op
            .inputs()
            .into_iter()
            .flatten()
            .any(|v| self.needs_grad(v));
        self.push_node(value, op, needs_grad)
    }

    fn push_node(&mut self, value: Tensor, op: Op, needs_grad: bool) -> Var {
        value.debug_assert_finite(&op);
        self.nodes.push(Node {
            value,
            op,
            needs_grad,
        });
        Var(self.nodes.len() - 1)
    }

    fn needs_grad(&self, var: Var) -> bool {
        self.nodes[var.0].needs_grad
    }

    /// Record a leaf whose gradient [`Tape::backward`] returns (a model
    /// parameter).
    pub fn input(&mut self, value: Tensor) -> Var {
        self.push_node(value, Op::Input, true)
    }

    /// Record a data leaf: no gradient is computed for it, nor for any op
    /// whose inputs are all constants.
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push_node(value, Op::Input, false)
    }

    /// `A·B`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        self.push(v, Op::MatMul(a, b))
    }

    /// `A·Bᵀ`.
    pub fn matmul_tb(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul_tb(self.value(b));
        self.push(v, Op::MatMulTb(a, b))
    }

    /// Elementwise `A + B`.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).add(self.value(b));
        self.push(v, Op::Add(a, b))
    }

    /// Elementwise `A - B`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).sub(self.value(b));
        self.push(v, Op::Sub(a, b))
    }

    /// Elementwise `A ⊙ B`.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).mul(self.value(b));
        self.push(v, Op::Mul(a, b))
    }

    /// `A · s`.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let v = self.value(a).scale(s);
        self.push(v, Op::Scale(a, s))
    }

    /// `X + row` broadcast (bias add).
    pub fn add_row_broadcast(&mut self, x: Var, row: Var) -> Var {
        let v = self.value(x).add_row_broadcast(self.value(row));
        self.push(v, Op::AddRowBroadcast(x, row))
    }

    /// Record `op`, whose value is `x`'s value transformed in place by `f`.
    fn unary(&mut self, x: Var, op: Op, f: impl FnOnce(&mut Tensor)) -> Var {
        let mut v = self.value(x).clone();
        f(&mut v);
        self.push(v, op)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        self.unary(x, Op::Sigmoid(x), Tensor::sigmoid_in_place)
    }

    /// ReLU.
    pub fn relu(&mut self, x: Var) -> Var {
        self.unary(x, Op::Relu(x), Tensor::relu_in_place)
    }

    /// Leaky ReLU.
    pub fn leaky_relu(&mut self, x: Var, slope: f32) -> Var {
        self.unary(x, Op::LeakyRelu(x, slope), |v| v.leaky_relu_in_place(slope))
    }

    /// tanh.
    pub fn tanh(&mut self, x: Var) -> Var {
        self.unary(x, Op::Tanh(x), Tensor::tanh_in_place)
    }

    /// `[A | B]`.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).concat_cols(self.value(b));
        self.push(v, Op::ConcatCols(a, b))
    }

    /// Select rows by index.
    pub fn gather_rows(&mut self, x: Var, idx: Arc<Vec<usize>>) -> Var {
        let v = self.value(x).gather_rows(&idx);
        self.push(v, Op::GatherRows(x, idx))
    }

    /// Scale rows of `x` by a column vector.
    pub fn mul_rows_by_col(&mut self, x: Var, col: Var) -> Var {
        let v = self.value(x).mul_rows_by_col(self.value(col));
        self.push(v, Op::MulRowsByCol(x, col))
    }

    /// L2-normalize each row (rows with norm ≤ [`NORM_EPS`] pass through).
    pub fn row_l2_normalize(&mut self, x: Var) -> Var {
        let v = self.value(x).l2_normalize_rows(NORM_EPS);
        self.push(v, Op::RowL2Normalize(x))
    }

    /// Sparse aggregate: `out[dst] += w_e · x[src]` over `edges`.
    ///
    /// `w` is an optional `E×1` weight column; when `None` every edge has
    /// weight 1. Gradients flow into both `x` and `w`.
    pub fn spmm(&mut self, edges: Arc<EdgeList>, x: Var, w: Option<Var>, out_rows: usize) -> Var {
        let out = edges.spmm(self.value(x), w.map(|wv| self.value(wv)), out_rows);
        self.push(
            out,
            Op::Spmm {
                x,
                w,
                edges,
                out_rows,
            },
        )
    }

    /// Softmax of `E×1` edge scores grouped by destination node.
    pub fn edge_softmax(&mut self, edges: Arc<EdgeList>, scores: Var) -> Var {
        let out = edges.edge_softmax(self.value(scores));
        self.push(out, Op::EdgeSoftmax { scores, edges })
    }

    /// Elementwise reciprocal `1/(x + eps)`; `eps > 0` guards division.
    pub fn recip(&mut self, x: Var, eps: f32) -> Var {
        self.unary(x, Op::Recip(x, eps), |v| v.recip_in_place(eps))
    }

    /// Sum of all elements → `1×1`.
    pub fn sum_all(&mut self, x: Var) -> Var {
        let v = Tensor::scalar(self.value(x).sum());
        self.push(v, Op::SumAll(x))
    }

    /// Mean of all elements → `1×1`.
    pub fn mean_all(&mut self, x: Var) -> Var {
        let v = Tensor::scalar(self.value(x).mean());
        self.push(v, Op::MeanAll(x))
    }

    /// Mean softmax cross-entropy of `logits` against integer `targets` → `1×1`.
    pub fn cross_entropy_logits(&mut self, logits: Var, targets: Arc<Vec<usize>>) -> Var {
        let lv = self.value(logits);
        assert_eq!(
            lv.rows(),
            targets.len(),
            "cross_entropy: batch size mismatch"
        );
        let ls = lv.log_softmax_rows();
        let mut loss = 0.0f32;
        for (r, &t) in targets.iter().enumerate() {
            assert!(
                t < lv.cols(),
                "cross_entropy: target {t} out of {} classes",
                lv.cols()
            );
            loss -= ls.get(r, t);
        }
        loss /= targets.len().max(1) as f32;
        self.push(
            Tensor::scalar(loss),
            Op::CrossEntropyLogits { logits, targets },
        )
    }

    /// Reverse sweep from a scalar `loss` node; returns the gradients of
    /// the input variables.
    ///
    /// No adjoint is computed for a node that needs no gradient (see the
    /// module docs), so a constant's gradient is never formed.
    ///
    /// A node's gradient is complete once the sweep reaches it, so an
    /// intermediate one is freed as soon as it has been propagated: the
    /// sweep holds the activations plus the gradients still in flight,
    /// not a second copy of every activation.
    ///
    /// # Panics
    /// Panics if `loss` is not `1×1`.
    pub fn backward(&self, loss: Var) -> Grads {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward: loss must be a 1×1 scalar"
        );
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        if self.needs_grad(loss) {
            grads[loss.0] = Some(Tensor::scalar(1.0));
        }

        // A node that needs no gradient never receives one, so the sweep
        // passes over it.
        for id in (0..=loss.0).rev() {
            let Some(g) = grads[id].take() else { continue };
            self.accumulate_adjoints(id, &g, &mut grads);
            if matches!(self.nodes[id].op, Op::Input) {
                grads[id] = Some(g);
            }
        }

        let shapes = self.nodes.iter().map(|n| n.value.shape()).collect();
        Grads { grads, shapes }
    }

    /// Add `delta()` to `var`'s gradient; `delta` is not called when
    /// `var` needs no gradient.
    fn acc(&self, grads: &mut [Option<Tensor>], var: Var, delta: impl FnOnce() -> Tensor) {
        if !self.needs_grad(var) {
            return;
        }
        let delta = delta();
        match &mut grads[var.0] {
            Some(g) => g.add_scaled_assign(&delta, 1.0),
            slot @ None => *slot = Some(delta),
        }
    }

    /// Propagate the adjoint `g` of node `id` into its inputs.
    fn accumulate_adjoints(&self, id: usize, g: &Tensor, grads: &mut [Option<Tensor>]) {
        let node = &self.nodes[id];
        match &node.op {
            Op::Input => {}
            Op::MatMul(a, b) => {
                self.acc(grads, *a, || g.matmul_tb(self.value(*b)));
                self.acc(grads, *b, || self.value(*a).matmul_ta(g));
            }
            Op::MatMulTb(a, b) => {
                // C = A·Bᵀ → dA = G·B, dB = Gᵀ·A.
                self.acc(grads, *a, || g.matmul(self.value(*b)));
                self.acc(grads, *b, || g.matmul_ta(self.value(*a)));
            }
            Op::Add(a, b) => {
                self.acc(grads, *a, || g.clone());
                self.acc(grads, *b, || g.clone());
            }
            Op::Sub(a, b) => {
                self.acc(grads, *a, || g.clone());
                self.acc(grads, *b, || g.scale(-1.0));
            }
            Op::Mul(a, b) => {
                self.acc(grads, *a, || g.mul(self.value(*b)));
                self.acc(grads, *b, || g.mul(self.value(*a)));
            }
            Op::Scale(a, s) => self.acc(grads, *a, || g.scale(*s)),
            Op::AddRowBroadcast(x, row) => {
                self.acc(grads, *x, || g.clone());
                // Column-sum the adjoint into the 1×d bias.
                self.acc(grads, *row, || {
                    let mut db = Tensor::zeros(1, g.cols());
                    for r in 0..g.rows() {
                        for (c, &v) in g.row(r).iter().enumerate() {
                            db.as_mut_slice()[c] += v;
                        }
                    }
                    db
                });
            }
            Op::Sigmoid(x) => self.acc(grads, *x, || {
                unary_adjoint(g, &node.value, |t| t * (1.0 - t))
            }),
            // `g · 0.0` rather than a select, so a negative `g` leaves -0.0.
            Op::Relu(x) => self.acc(grads, *x, || {
                unary_adjoint(g, self.value(*x), |t| if t > 0.0 { 1.0 } else { 0.0 })
            }),
            Op::LeakyRelu(x, slope) => self.acc(grads, *x, || {
                unary_adjoint(g, self.value(*x), |t| if t > 0.0 { 1.0 } else { *slope })
            }),
            Op::Tanh(x) => self.acc(grads, *x, || unary_adjoint(g, &node.value, |t| 1.0 - t * t)),
            Op::ConcatCols(a, b) => {
                let wa = self.value(*a).cols();
                let half = |cols: Range<usize>| {
                    let mut d = Tensor::zeros(g.rows(), cols.len());
                    for r in 0..g.rows() {
                        d.row_mut(r).copy_from_slice(&g.row(r)[cols.clone()]);
                    }
                    d
                };
                self.acc(grads, *a, || half(0..wa));
                self.acc(grads, *b, || half(wa..g.cols()));
            }
            Op::GatherRows(x, idx) => self.acc(grads, *x, || {
                let xv = self.value(*x);
                let mut dx = Tensor::zeros(xv.rows(), xv.cols());
                for (out_r, &src_r) in idx.iter().enumerate() {
                    for (d, &v) in dx.row_mut(src_r).iter_mut().zip(g.row(out_r)) {
                        *d += v;
                    }
                }
                dx
            }),
            Op::MulRowsByCol(x, col) => {
                let xv = self.value(*x);
                let cv = self.value(*col);
                self.acc(grads, *x, || g.mul_rows_by_col(cv));
                self.acc(grads, *col, || {
                    let mut dc = Tensor::zeros(cv.rows(), 1);
                    for r in 0..xv.rows() {
                        let dot: f32 = g.row(r).iter().zip(xv.row(r)).map(|(&a, &b)| a * b).sum();
                        dc.set(r, 0, dot);
                    }
                    dc
                });
            }
            Op::RowL2Normalize(x) => self.acc(grads, *x, || {
                // y = x/‖x‖ → dx = (g - y (g·y)) / ‖x‖; tiny rows pass through.
                let xv = self.value(*x);
                let y = &node.value;
                let mut dx = Tensor::zeros(xv.rows(), xv.cols());
                for r in 0..xv.rows() {
                    let norm = xv.row(r).iter().map(|&v| v * v).sum::<f32>().sqrt();
                    if norm > NORM_EPS {
                        let gy: f32 = g.row(r).iter().zip(y.row(r)).map(|(&a, &b)| a * b).sum();
                        for c in 0..xv.cols() {
                            dx.set(r, c, (g.get(r, c) - y.get(r, c) * gy) / norm);
                        }
                    } else {
                        dx.row_mut(r).copy_from_slice(g.row(r));
                    }
                }
                dx
            }),
            Op::Spmm {
                x,
                w,
                edges,
                out_rows: _,
            } => {
                let xv = self.value(*x);
                let wslice = w.map(|wv| self.value(wv).as_slice());
                self.acc(grads, *x, || {
                    let mut dx = Tensor::zeros(xv.rows(), xv.cols());
                    for e in 0..edges.len() {
                        let we = wslice.map_or(1.0, |ws| ws[e]);
                        if we != 0.0 {
                            let (s, t) = (edges.src(e), edges.dst(e));
                            for (d, &v) in dx.row_mut(s).iter_mut().zip(g.row(t)) {
                                *d += we * v;
                            }
                        }
                    }
                    dx
                });
                if let Some(wv) = w {
                    self.acc(grads, *wv, || {
                        let mut dw = Tensor::zeros(edges.len(), 1);
                        for e in 0..edges.len() {
                            let (s, t) = (edges.src(e), edges.dst(e));
                            let dot: f32 =
                                xv.row(s).iter().zip(g.row(t)).map(|(&a, &b)| a * b).sum();
                            dw.set(e, 0, dot);
                        }
                        dw
                    });
                }
            }
            Op::EdgeSoftmax { scores, edges } => self.acc(grads, *scores, || {
                // Grouped softmax jacobian: ds_e = p_e (g_e - Σ_{e'∈grp} p_e' g_e')
                let p = &node.value;
                let n = edges.min_num_nodes();
                let mut gdot = vec![0.0f32; n];
                for e in 0..edges.len() {
                    gdot[edges.dst(e)] += p.as_slice()[e] * g.as_slice()[e];
                }
                let mut ds = Tensor::zeros(edges.len(), 1);
                for e in 0..edges.len() {
                    let pe = p.as_slice()[e];
                    ds.set(e, 0, pe * (g.as_slice()[e] - gdot[edges.dst(e)]));
                }
                ds
            }),
            // d(1/(x+e))/dx = -(1/(x+e))² = -out².
            Op::Recip(x, _) => self.acc(grads, *x, || unary_adjoint(g, &node.value, |t| -t * t)),
            Op::SumAll(x) => self.acc(grads, *x, || {
                let (r, c) = self.value(*x).shape();
                Tensor::full(r, c, g.item())
            }),
            Op::MeanAll(x) => self.acc(grads, *x, || {
                let (r, c) = self.value(*x).shape();
                let n = (r * c).max(1) as f32;
                Tensor::full(r, c, g.item() / n)
            }),
            Op::CrossEntropyLogits { logits, targets } => self.acc(grads, *logits, || {
                let lv = self.value(*logits);
                let mut dl = lv.softmax_rows();
                let n = targets.len().max(1) as f32;
                for (r, &t) in targets.iter().enumerate() {
                    let v = dl.get(r, t) - 1.0;
                    dl.set(r, t, v);
                }
                dl.scale(g.item() / n)
            }),
        }
    }
}

/// `g ⊙ d(t)` elementwise, in one pass: the adjoint of a unary op
/// whose derivative at value `t` (its input or its output) is `d(t)`.
fn unary_adjoint(g: &Tensor, t: &Tensor, d: impl Fn(f32) -> f32) -> Tensor {
    let mut dx = g.clone();
    dx.zip_in_place(t, |gv, tv| gv * d(tv));
    dx
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central-difference gradient check for a scalar function of one input.
    fn finite_diff_check(input: Tensor, f: impl Fn(&mut Tape, Var) -> Var, tol: f32) {
        let mut tape = Tape::new();
        let x = tape.input(input.clone());
        let loss = f(&mut tape, x);
        let analytic = tape.backward(loss).get(x);

        let eps = 1e-3;
        for i in 0..input.len() {
            let mut plus = input.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = input.clone();
            minus.as_mut_slice()[i] -= eps;

            let mut tp = Tape::new();
            let xp = tp.input(plus);
            let lp = f(&mut tp, xp);
            let mut tm = Tape::new();
            let xm = tm.input(minus);
            let lm = f(&mut tm, xm);

            let numeric = (tp.value(lp).item() - tm.value(lm).item()) / (2.0 * eps);
            let a = analytic.as_slice()[i];
            assert!(
                (a - numeric).abs() < tol * (1.0 + numeric.abs()),
                "element {i}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn grad_matmul() {
        let b = Tensor::from_vec(3, 2, vec![0.5, -1.0, 2.0, 0.3, -0.7, 1.1]);
        finite_diff_check(
            Tensor::from_vec(2, 3, vec![1.0, -0.5, 0.2, 0.9, 2.0, -1.5]),
            move |t, x| {
                let bv = t.input(b.clone());
                let y = t.matmul(x, bv);
                t.sum_all(y)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_matmul_tb() {
        let b = Tensor::from_vec(
            4,
            3,
            vec![
                0.5, -1.0, 2.0, 0.3, -0.7, 1.1, 0.2, 0.4, -0.9, 1.0, 0.0, 0.6,
            ],
        );
        finite_diff_check(
            Tensor::from_vec(2, 3, vec![1.0, -0.5, 0.2, 0.9, 2.0, -1.5]),
            move |t, x| {
                let bv = t.input(b.clone());
                let y = t.matmul_tb(x, bv);
                let s = t.sigmoid(y);
                t.sum_all(s)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_sigmoid_relu_tanh_chain() {
        finite_diff_check(
            Tensor::from_vec(2, 2, vec![0.3, -0.8, 1.5, -0.1]),
            |t, x| {
                let a = t.sigmoid(x);
                let b = t.tanh(a);
                let c = t.scale(b, 2.0);
                t.mean_all(c)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_leaky_relu() {
        finite_diff_check(
            Tensor::from_vec(1, 4, vec![0.5, -0.5, 1.2, -2.0]),
            |t, x| {
                let y = t.leaky_relu(x, 0.2);
                t.sum_all(y)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_concat_gather() {
        finite_diff_check(
            Tensor::from_vec(3, 2, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]),
            |t, x| {
                let y = t.concat_cols(x, x);
                let g = t.gather_rows(y, Arc::new(vec![2, 0, 2]));
                let s = t.tanh(g);
                t.sum_all(s)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_mul_rows_by_col() {
        let col = Tensor::from_vec(3, 1, vec![0.5, -1.0, 2.0]);
        finite_diff_check(
            Tensor::from_vec(3, 2, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]),
            move |t, x| {
                let c = t.input(col.clone());
                let y = t.mul_rows_by_col(x, c);
                let s = t.tanh(y);
                t.sum_all(s)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_mul_rows_by_col_wrt_col() {
        let x = Tensor::from_vec(3, 2, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
        finite_diff_check(
            Tensor::from_vec(3, 1, vec![0.5, -1.0, 2.0]),
            move |t, c| {
                let xv = t.input(x.clone());
                let y = t.mul_rows_by_col(xv, c);
                let s = t.tanh(y);
                t.sum_all(s)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_row_l2_normalize() {
        finite_diff_check(
            Tensor::from_vec(2, 3, vec![0.5, -1.0, 2.0, 0.3, 0.7, -0.4]),
            |t, x| {
                let y = t.row_l2_normalize(x);
                let s = t.sigmoid(y);
                t.sum_all(s)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_spmm_wrt_features() {
        let edges = EdgeList::from_pairs([(0, 1), (1, 2), (2, 0), (0, 2)]).into_shared();
        let w = Tensor::from_vec(4, 1, vec![0.5, -1.0, 2.0, 0.3]);
        finite_diff_check(
            Tensor::from_vec(3, 2, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]),
            move |t, x| {
                let wv = t.input(w.clone());
                let y = t.spmm(edges.clone(), x, Some(wv), 3);
                let s = t.tanh(y);
                t.sum_all(s)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_spmm_wrt_edge_weights() {
        let edges = EdgeList::from_pairs([(0, 1), (1, 2), (2, 0), (0, 2)]).into_shared();
        let x = Tensor::from_vec(3, 2, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
        finite_diff_check(
            Tensor::from_vec(4, 1, vec![0.5, -1.0, 2.0, 0.3]),
            move |t, w| {
                let xv = t.input(x.clone());
                let y = t.spmm(edges.clone(), xv, Some(w), 3);
                let s = t.tanh(y);
                t.sum_all(s)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_edge_softmax() {
        let edges = EdgeList::from_pairs([(0, 1), (2, 1), (1, 0), (2, 0)]).into_shared();
        finite_diff_check(
            Tensor::from_vec(4, 1, vec![0.5, -1.0, 2.0, 0.3]),
            move |t, s| {
                let p = t.edge_softmax(edges.clone(), s);
                let sq = t.mul(p, p);
                t.sum_all(sq)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_recip() {
        finite_diff_check(
            Tensor::from_vec(1, 4, vec![0.5, 1.5, 2.0, 0.8]),
            |t, x| {
                let r = t.recip(x, 1e-6);
                t.sum_all(r)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_cross_entropy_logits() {
        let targets = Arc::new(vec![2usize, 0]);
        finite_diff_check(
            Tensor::from_vec(2, 3, vec![0.2, 0.5, -0.1, 1.0, -1.0, 0.0]),
            move |t, x| t.cross_entropy_logits(x, targets.clone()),
            1e-2,
        );
    }

    #[test]
    fn edge_softmax_groups_sum_to_one() {
        let mut tape = Tape::new();
        let edges = EdgeList::from_pairs([(0, 1), (2, 1), (1, 0), (2, 0), (0, 0)]).into_shared();
        let s = tape.input(Tensor::from_vec(5, 1, vec![3.0, -1.0, 0.5, 0.5, 0.5]));
        let p = tape.edge_softmax(edges.clone(), s);
        let pv = tape.value(p);
        let mut sums = [0.0f32; 2];
        for e in 0..edges.len() {
            sums[edges.dst(e)] += pv.as_slice()[e];
        }
        assert!((sums[0] - 1.0).abs() < 1e-5);
        assert!((sums[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn fan_out_accumulates_gradients() {
        // y = x + x → dy/dx = 2
        let mut tape = Tape::new();
        let x = tape.input(Tensor::scalar(3.0));
        let y = tape.add(x, x);
        let loss = tape.sum_all(y);
        let g = tape.backward(loss).get(x);
        assert_eq!(g.item(), 2.0);
    }

    #[test]
    fn unused_variable_gets_zero_grad() {
        let mut tape = Tape::new();
        let x = tape.input(Tensor::scalar(3.0));
        let unused = tape.input(Tensor::from_vec(2, 2, vec![1.0; 4]));
        let loss = tape.sum_all(x);
        let grads = tape.backward(loss);
        assert!(grads.try_get(unused).is_none());
        assert_eq!(grads.get(unused), Tensor::zeros(2, 2));
    }

    #[test]
    fn only_inputs_keep_their_gradients() {
        let mut tape = Tape::new();
        let x = tape.input(Tensor::from_vec(1, 2, vec![1.0, -2.0]));
        let y = tape.scale(x, 3.0);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(x).as_slice(), &[3.0, 3.0]);
        assert!(grads.try_get(y).is_none());
        assert!(grads.try_get(loss).is_none());
    }

    #[test]
    fn cross_entropy_matches_manual() {
        let mut tape = Tape::new();
        let logits = tape.input(Tensor::from_vec(1, 2, vec![0.0, 0.0]));
        let loss = tape.cross_entropy_logits(logits, Arc::new(vec![0]));
        // -log(0.5)
        assert!((tape.value(loss).item() - 0.5f32.ln().abs()).abs() < 1e-5);
    }

    /// `rows×cols` values in `[-1, 1)`.
    fn random(rng: &mut crate::rng::StdRng, rows: usize, cols: usize) -> Tensor {
        let v = (0..rows * cols)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        Tensor::from_vec(rows, cols, v)
    }

    #[test]
    fn constants_move_no_parameter_gradient_bit() {
        // One random graph layer recorded twice, its data leaves once as
        // inputs and once as constants. Every op meets data on one side
        // and a parameter's descendant on the other: the first matmul
        // reads data then a parameter, the spmms take a data weight
        // and a parameter weight, the concats have a data half on each
        // side, and one gather and matmul read data only.
        crate::rng::check(32, |rng| {
            let n = rng.gen_range(1..8usize);
            let (d, h, c) = (
                rng.gen_range(1..6usize),
                rng.gen_range(1..6usize),
                rng.gen_range(2..5usize),
            );
            let e = rng.gen_range(0..12usize);
            let pairs: Vec<(u32, u32)> = (0..e)
                .map(|_| (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32))
                .collect();
            let edges = EdgeList::from_pairs(pairs).into_shared();
            let q = rng.gen_range(1..10usize);
            let idx = Arc::new((0..q).map(|_| rng.gen_range(0..n)).collect::<Vec<_>>());
            let targets = Arc::new((0..q).map(|_| rng.gen_range(0..c)).collect::<Vec<_>>());
            let data = [random(rng, n, d), random(rng, e, 1), random(rng, n, 2)];
            let params = [
                random(rng, d, h),
                random(rng, e, 1),
                random(rng, 2 + h + d + 2, c),
                random(rng, d, c),
            ];

            let record = |constant: bool| {
                let mut t = Tape::new();
                let [x, w_data, side] =
                    data.clone()
                        .map(|v| if constant { t.constant(v) } else { t.input(v) });
                let p = params.clone().map(|v| t.input(v));
                let h0 = t.matmul(x, p[0]);
                let h1 = t.relu(h0);
                let agg = t.spmm(edges.clone(), h1, Some(w_data), n);
                let agg_x = t.spmm(edges.clone(), x, Some(p[1]), n);
                let cat = t.concat_cols(side, agg);
                let cat = t.concat_cols(cat, agg_x);
                let cat = t.concat_cols(cat, side);
                let rows = t.gather_rows(cat, idx.clone());
                let z = t.matmul(rows, p[2]);
                let x_rows = t.gather_rows(x, idx.clone());
                let z_x = t.matmul(x_rows, p[3]);
                let logits = t.add(z, z_x);
                let logits = t.row_l2_normalize(logits);
                let loss = t.cross_entropy_logits(logits, targets.clone());
                let grads = t.backward(loss);
                let bits = |v: Var| {
                    grads
                        .try_get(v)
                        .map(|g| g.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>())
                };
                (p.map(bits), [x, w_data, side].map(bits))
            };
            let (want, _) = record(false);
            let (got, data_grads) = record(true);
            assert_eq!(want, got, "parameter gradients");
            assert!(
                want.iter().all(Option::is_some),
                "every parameter reaches the loss"
            );
            assert_eq!(data_grads, [None, None, None], "constants get no gradient");
        });
    }
}
