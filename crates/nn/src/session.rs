//! One training pass over a [`ParamStore`]: the forward ops recorded on
//! a tape, then the backward sweep that yields parameter gradients.
//! Passes that never call [`Session::grads`] run on the tape-free
//! [`Eval`](crate::Eval) context instead.

use std::sync::Arc;

use gp_tensor::{EdgeList, Tape, Tensor, Var};

use crate::forward::{Forward, RowMap};
use crate::params::{ParamId, ParamStore};

/// A single forward/backward pass: owns a fresh [`Tape`] and lazily injects
/// parameters from the store (each parameter becomes exactly one tape leaf,
/// so fan-out gradients accumulate correctly).
pub struct Session<'s> {
    /// The underlying autodiff tape (exposed so callers can record data
    /// inputs and custom ops directly).
    pub tape: Tape,
    store: &'s ParamStore,
    bound: Vec<Option<Var>>,
}

impl<'s> Session<'s> {
    /// Start a pass against `store`.
    pub fn new(store: &'s ParamStore) -> Self {
        Self {
            tape: Tape::new(),
            store,
            bound: vec![None; store.len()],
        }
    }

    /// Backward from `loss`; returns `(loss value, parameter gradients)`
    /// for every parameter touched this session, consuming the session.
    pub fn grads(self, loss: Var) -> (f32, Vec<(ParamId, Tensor)>) {
        let loss_value = self.tape.value(loss).item();
        let grads = self.tape.backward(loss);
        let mut out = Vec::new();
        for (i, bound) in self.bound.iter().enumerate() {
            if let Some(var) = bound {
                if let Some(g) = grads.try_get(*var) {
                    out.push((ParamId(i), g.clone()));
                }
            }
        }
        (loss_value, out)
    }
}

/// Every op is recorded on the tape; inputs are copied onto it as
/// constants, so the sweep computes gradients for parameters only.
impl<'a> Forward<'a> for Session<'_> {
    type V = Var;

    /// Tape variable for a parameter, injecting its current value on first
    /// use within this session.
    fn param(&mut self, id: ParamId) -> Var {
        if let Some(v) = self.bound[id.index()] {
            return v;
        }
        let v = self.tape.input(self.store.get(id).clone());
        self.bound[id.index()] = Some(v);
        v
    }

    /// A tape constant: no gradient is computed for it.
    fn input(&mut self, t: &'a Tensor) -> Var {
        self.tape.constant(t.clone())
    }

    /// A tape constant, as [`input`](Self::input).
    fn data(&mut self, t: Tensor) -> Var {
        self.tape.constant(t)
    }

    fn value<'v>(&'v self, v: &'v Var) -> &'v Tensor {
        self.tape.value(*v)
    }

    fn matmul(&mut self, a: &Var, b: &Var) -> Var {
        self.tape.matmul(*a, *b)
    }

    fn matmul_tb(&mut self, a: &Var, b: &Var) -> Var {
        self.tape.matmul_tb(*a, *b)
    }

    fn add(&mut self, a: Var, b: &Var) -> Var {
        self.tape.add(a, *b)
    }

    fn mul(&mut self, a: Var, b: &Var) -> Var {
        self.tape.mul(a, *b)
    }

    fn scale(&mut self, a: Var, s: f32) -> Var {
        self.tape.scale(a, s)
    }

    fn add_row_broadcast(&mut self, x: Var, row: &Var) -> Var {
        self.tape.add_row_broadcast(x, *row)
    }

    fn mul_rows_by_col(&mut self, x: Var, col: &Var) -> Var {
        self.tape.mul_rows_by_col(x, *col)
    }

    fn sigmoid(&mut self, x: Var) -> Var {
        self.tape.sigmoid(x)
    }

    fn relu(&mut self, x: Var) -> Var {
        self.tape.relu(x)
    }

    fn leaky_relu(&mut self, x: Var, slope: f32) -> Var {
        self.tape.leaky_relu(x, slope)
    }

    fn tanh(&mut self, x: Var) -> Var {
        self.tape.tanh(x)
    }

    fn recip(&mut self, x: Var, eps: f32) -> Var {
        self.tape.recip(x, eps)
    }

    fn row_l2_normalize(&mut self, x: Var) -> Var {
        self.tape.row_l2_normalize(x)
    }

    fn concat_cols(&mut self, a: &Var, b: &Var) -> Var {
        self.tape.concat_cols(*a, *b)
    }

    fn gather_rows(&mut self, x: &Var, idx: Arc<Vec<usize>>) -> Var {
        self.tape.gather_rows(*x, idx)
    }

    fn spmm(&mut self, edges: &Arc<EdgeList>, x: &Var, w: Option<&Var>, out_rows: usize) -> Var {
        self.tape.spmm(edges.clone(), *x, w.copied(), out_rows)
    }

    fn edge_softmax(&mut self, edges: &Arc<EdgeList>, scores: &Var) -> Var {
        self.tape.edge_softmax(edges.clone(), *scores)
    }

    /// Records `gather_rows`, `concat_cols` and `matmul`: the plain pass.
    fn gather_concat_matmul(
        &mut self,
        x: &Var,
        idx: Arc<Vec<usize>>,
        _keys: &[usize],
        b: &Var,
        w: &Var,
    ) -> Var {
        let a = self.tape.gather_rows(*x, idx);
        let cat = self.tape.concat_cols(a, *b);
        self.tape.matmul(cat, *w)
    }

    /// Records `build` over every row, as the plain per-row pass would;
    /// the map is the identity, so a reader records no gather.
    fn keyed_rows<const N: usize>(
        &mut self,
        keys: &[usize],
        build: impl FnOnce(&mut Self, &[usize]) -> [Var; N],
    ) -> ([Var; N], RowMap) {
        let rows: Vec<usize> = (0..keys.len()).collect();
        (build(self, &rows), RowMap::identity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_injected_once_and_grad_accumulates() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::scalar(2.0));
        let mut sess = Session::new(&store);
        let a = sess.param(w);
        let b = sess.param(w);
        assert_eq!(a, b, "same param must map to the same tape node");
        // loss = w + w → d/dw = 2
        let y = sess.tape.add(a, b);
        let loss = sess.tape.sum_all(y);
        let (lv, grads) = sess.grads(loss);
        assert_eq!(lv, 4.0);
        assert_eq!(grads.len(), 1);
        assert_eq!(grads[0].1.item(), 2.0);
    }

    #[test]
    fn untouched_params_produce_no_grads() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::scalar(2.0));
        let _unused = store.add("u", Tensor::scalar(1.0));
        let mut sess = Session::new(&store);
        let a = sess.param(w);
        let loss = sess.tape.sum_all(a);
        let (_, grads) = sess.grads(loss);
        assert_eq!(grads.len(), 1);
        assert_eq!(grads[0].0, w);
    }
}
