//! First-order optimizers over a [`ParamStore`].

use std::collections::HashMap;

use gp_tensor::Tensor;

use crate::params::{ParamId, ParamStore};

static OPTIMIZER_STEPS: gp_obs::Counter = gp_obs::Counter::new("nn.optimizer_steps");

/// A gradient-descent optimizer.
pub trait Optimizer {
    /// Apply one update step given `(param, grad)` pairs.
    fn step(&mut self, store: &mut ParamStore, grads: &[(ParamId, Tensor)]);
}

/// Plain SGD.
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Self { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, store: &mut ParamStore, grads: &[(ParamId, Tensor)]) {
        OPTIMIZER_STEPS.inc();
        for (id, g) in grads {
            store.get_mut(*id).add_scaled_assign(g, -self.lr);
        }
    }
}

/// AdamW (decoupled weight decay) — the paper's optimizer:
/// lr `1e-3`, weight decay `1e-3` (§V-A4).
pub struct AdamW {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
    /// Decoupled weight-decay coefficient.
    pub weight_decay: f32,
    t: u64,
    m: HashMap<usize, Tensor>,
    v: HashMap<usize, Tensor>,
}

impl AdamW {
    /// AdamW with the paper's defaults: betas (0.9, 0.999), wd as given.
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            t: 0,
            m: HashMap::new(),
            v: HashMap::new(),
        }
    }
}

impl Optimizer for AdamW {
    fn step(&mut self, store: &mut ParamStore, grads: &[(ParamId, Tensor)]) {
        OPTIMIZER_STEPS.inc();
        self.t += 1;
        // Decoupled decay first: θ ← θ (1 − lr·λ).
        if self.weight_decay > 0.0 {
            let factor = 1.0 - self.lr * self.weight_decay;
            for (id, _) in grads {
                let p = store.get_mut(*id);
                *p = p.scale(factor);
            }
        }
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (id, g) in grads {
            let mt = self
                .m
                .entry(id.index())
                .or_insert_with(|| Tensor::zeros(g.rows(), g.cols()));
            let vt = self
                .v
                .entry(id.index())
                .or_insert_with(|| Tensor::zeros(g.rows(), g.cols()));
            for i in 0..g.len() {
                let gi = g.as_slice()[i];
                let mi = self.beta1 * mt.as_slice()[i] + (1.0 - self.beta1) * gi;
                let vi = self.beta2 * vt.as_slice()[i] + (1.0 - self.beta2) * gi * gi;
                mt.as_mut_slice()[i] = mi;
                vt.as_mut_slice()[i] = vi;
                let m_hat = mi / bc1;
                let v_hat = vi / bc2;
                store.get_mut(*id).as_mut_slice()[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Forward, Session};

    /// Minimize (w - 3)² with each optimizer; all must converge.
    fn converges(mut opt: impl Optimizer) -> f32 {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::scalar(0.0));
        for _ in 0..400 {
            let mut sess = Session::new(&store);
            let wv = sess.param(w);
            let target = sess.data(Tensor::scalar(3.0));
            let diff = sess.tape.sub(wv, target);
            let sq = sess.tape.mul(diff, diff);
            let loss = sess.tape.sum_all(sq);
            let (_, grads) = sess.grads(loss);
            opt.step(&mut store, &grads);
        }
        store.get(w).item()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        assert!((converges(Sgd::new(0.1)) - 3.0).abs() < 1e-3);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        assert!((converges(AdamW::new(0.05, 0.0)) - 3.0).abs() < 1e-2);
    }

    #[test]
    fn adamw_converges_near_target_with_decay() {
        // Weight decay biases slightly toward 0; allow a loose tolerance.
        let w = converges(AdamW::new(0.05, 1e-3));
        assert!((w - 3.0).abs() < 0.1, "w = {w}");
    }

    #[test]
    fn adamw_decay_shrinks_untouched_direction() {
        // A parameter with zero gradient should still decay under AdamW.
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::scalar(10.0));
        let mut opt = AdamW::new(0.1, 0.5);
        let zero_grad = vec![(w, Tensor::scalar(0.0))];
        let before = store.get(w).item();
        opt.step(&mut store, &zero_grad);
        assert!(store.get(w).item() < before);
    }
}
