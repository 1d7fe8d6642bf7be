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

/// Serializable snapshot of an Adam-family optimizer's mutable state
/// (step counter plus first/second moments), keyed by parameter index.
///
/// Entries are sorted by parameter index so the encoding is deterministic;
/// restoring a state and continuing training is bit-identical to never
/// having paused (moment tensors round-trip exactly through `f32` bytes).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OptimState {
    /// Number of steps taken so far (`t` in the Adam bias correction).
    pub t: u64,
    /// First-moment estimates, `(param_index, m)` sorted by index.
    pub m: Vec<(usize, Tensor)>,
    /// Second-moment estimates, `(param_index, v)` sorted by index.
    pub v: Vec<(usize, Tensor)>,
}

fn sorted_moments(map: &HashMap<usize, Tensor>) -> Vec<(usize, Tensor)> {
    #[expect(
        clippy::disallowed_methods,
        reason = "collected then sorted by param index on the next line, so map order never escapes"
    )]
    let mut out: Vec<(usize, Tensor)> = map.iter().map(|(k, t)| (*k, t.clone())).collect();
    out.sort_by_key(|(k, _)| *k);
    out
}

/// Plain SGD with optional momentum.
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables).
    pub momentum: f32,
    velocity: HashMap<usize, Tensor>,
}

impl Sgd {
    /// SGD with the given learning rate, no momentum.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            momentum: 0.0,
            velocity: HashMap::new(),
        }
    }

    /// SGD with momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Self {
            lr,
            momentum,
            velocity: HashMap::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, store: &mut ParamStore, grads: &[(ParamId, Tensor)]) {
        OPTIMIZER_STEPS.inc();
        for (id, g) in grads {
            if self.momentum > 0.0 {
                let v = self
                    .velocity
                    .entry(id.index())
                    .or_insert_with(|| Tensor::zeros(g.rows(), g.cols()));
                *v = v.scale(self.momentum).add(g);
                store.get_mut(*id).add_scaled_assign(&v.clone(), -self.lr);
            } else {
                store.get_mut(*id).add_scaled_assign(g, -self.lr);
            }
        }
    }
}

/// Adam (Kingma & Ba 2015), with L2 regularization folded into the gradient.
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
    t: u64,
    m: HashMap<usize, Tensor>,
    v: HashMap<usize, Tensor>,
}

impl Adam {
    /// Adam with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: HashMap::new(),
            v: HashMap::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore, grads: &[(ParamId, Tensor)]) {
        OPTIMIZER_STEPS.inc();
        self.t += 1;
        adam_update(
            store,
            grads,
            self.lr,
            self.beta1,
            self.beta2,
            self.eps,
            0.0,
            self.t,
            &mut self.m,
            &mut self.v,
        );
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

    /// Export the mutable state (step counter + moments) for checkpointing.
    pub fn state(&self) -> OptimState {
        OptimState {
            t: self.t,
            m: sorted_moments(&self.m),
            v: sorted_moments(&self.v),
        }
    }

    /// Restore state exported with [`AdamW::state`], replacing any
    /// accumulated moments. Resuming from a restored state reproduces the
    /// exact update sequence of an uninterrupted run.
    pub fn restore_state(&mut self, state: &OptimState) {
        self.t = state.t;
        self.m = state.m.iter().map(|(k, t)| (*k, t.clone())).collect();
        self.v = state.v.iter().map(|(k, t)| (*k, t.clone())).collect();
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
        adam_update(
            store,
            grads,
            self.lr,
            self.beta1,
            self.beta2,
            self.eps,
            0.0,
            self.t,
            &mut self.m,
            &mut self.v,
        );
    }
}

#[expect(
    clippy::too_many_arguments,
    reason = "the Adam hyper-parameters travel as scalars so the shared update stays a plain fn over the store"
)]
fn adam_update(
    store: &mut ParamStore,
    grads: &[(ParamId, Tensor)],
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    l2: f32,
    t: u64,
    m: &mut HashMap<usize, Tensor>,
    v: &mut HashMap<usize, Tensor>,
) {
    let bc1 = 1.0 - beta1.powi(t as i32);
    let bc2 = 1.0 - beta2.powi(t as i32);
    for (id, g) in grads {
        let g = if l2 > 0.0 {
            g.add(&store.get(*id).scale(l2))
        } else {
            g.clone()
        };
        let mt = m
            .entry(id.index())
            .or_insert_with(|| Tensor::zeros(g.rows(), g.cols()));
        let vt = v
            .entry(id.index())
            .or_insert_with(|| Tensor::zeros(g.rows(), g.cols()));
        for i in 0..g.len() {
            let gi = g.as_slice()[i];
            let mi = beta1 * mt.as_slice()[i] + (1.0 - beta1) * gi;
            let vi = beta2 * vt.as_slice()[i] + (1.0 - beta2) * gi * gi;
            mt.as_mut_slice()[i] = mi;
            vt.as_mut_slice()[i] = vi;
            let m_hat = mi / bc1;
            let v_hat = vi / bc2;
            store.get_mut(*id).as_mut_slice()[i] -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;

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
    fn sgd_momentum_converges_on_quadratic() {
        assert!((converges(Sgd::with_momentum(0.05, 0.9)) - 3.0).abs() < 1e-2);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        assert!((converges(Adam::new(0.05)) - 3.0).abs() < 1e-2);
    }

    #[test]
    fn adamw_converges_near_target_with_decay() {
        // Weight decay biases slightly toward 0; allow a loose tolerance.
        let w = converges(AdamW::new(0.05, 1e-3));
        assert!((w - 3.0).abs() < 0.1, "w = {w}");
    }

    #[test]
    fn adamw_state_roundtrip_resumes_bit_identically() {
        // Train 10 steps, snapshot, train 10 more; versus snapshot-restore
        // into a fresh optimizer and train the same 10: bit-identical.
        let run = |resume: bool| -> f32 {
            let mut store = ParamStore::new();
            let w = store.add("w", Tensor::scalar(0.0));
            let mut opt = AdamW::new(0.05, 1e-3);
            let step = |opt: &mut AdamW, store: &mut ParamStore| {
                let mut sess = Session::new(store);
                let wv = sess.param(w);
                let target = sess.data(Tensor::scalar(3.0));
                let diff = sess.tape.sub(wv, target);
                let sq = sess.tape.mul(diff, diff);
                let loss = sess.tape.sum_all(sq);
                let (_, grads) = sess.grads(loss);
                opt.step(store, &grads);
            };
            for _ in 0..10 {
                step(&mut opt, &mut store);
            }
            if resume {
                let state = opt.state();
                let mut fresh = AdamW::new(0.05, 1e-3);
                fresh.restore_state(&state);
                opt = fresh;
            }
            for _ in 0..10 {
                step(&mut opt, &mut store);
            }
            store.get(w).item()
        };
        assert_eq!(run(false).to_bits(), run(true).to_bits());
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
