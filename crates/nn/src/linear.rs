//! Dense layers: [`Linear`] and the paper's 2-layer [`Mlp`].

use gp_tensor::rng::StdRng;
use gp_tensor::{rng, Var};

use crate::params::{ParamId, ParamStore};
use crate::session::Session;

/// Pointwise nonlinearity selector.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Identity.
    None,
    /// max(0, x).
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Leaky ReLU with slope 0.2 (the GAT paper's choice).
    LeakyRelu,
}

impl Activation {
    /// Apply on a tape variable.
    pub fn apply(self, sess: &mut Session<'_>, x: Var) -> Var {
        match self {
            Activation::None => x,
            Activation::Relu => sess.tape.relu(x),
            Activation::Sigmoid => sess.tape.sigmoid(x),
            Activation::Tanh => sess.tape.tanh(x),
            Activation::LeakyRelu => sess.tape.leaky_relu(x, 0.2),
        }
    }
}

/// Fully connected layer `y = xW + b`.
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Xavier-initialized layer with bias.
    pub fn new(
        store: &mut ParamStore,
        rng_: &mut StdRng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        Self::with_bias(store, rng_, name, in_dim, out_dim, true)
    }

    /// Xavier-initialized layer, optionally biasless.
    pub fn with_bias(
        store: &mut ParamStore,
        rng_: &mut StdRng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
    ) -> Self {
        let w = store.add(
            format!("{name}.w"),
            rng::xavier_uniform(rng_, in_dim, out_dim),
        );
        let b = bias.then(|| store.add(format!("{name}.b"), gp_tensor::Tensor::zeros(1, out_dim)));
        Self {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// `y = xW (+ b)` for an `n×in_dim` input.
    pub fn forward(&self, sess: &mut Session<'_>, x: Var) -> Var {
        let w = sess.param(self.w);
        let y = sess.tape.matmul(x, w);
        match self.b {
            Some(b) => {
                let bv = sess.param(b);
                sess.tape.add_row_broadcast(y, bv)
            }
            None => y,
        }
    }
}

/// Multi-layer perceptron with a fixed hidden activation.
///
/// The paper's reconstruction (`MLP_φ`) and selection (`MLP_θ`) modules are
/// "two-layer neural networks" (§V-F); [`Mlp::two_layer`] builds exactly
/// that shape.
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_activation: Activation,
    output_activation: Activation,
}

impl Mlp {
    /// Build from explicit layer dims, e.g. `[in, hidden, out]`.
    pub fn new(
        store: &mut ParamStore,
        rng_: &mut StdRng,
        name: &str,
        dims: &[usize],
        hidden_activation: Activation,
        output_activation: Activation,
    ) -> Self {
        assert!(dims.len() >= 2, "Mlp needs at least [in, out]");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, rng_, &format!("{name}.{i}"), w[0], w[1]))
            .collect();
        Self {
            layers,
            hidden_activation,
            output_activation,
        }
    }

    /// The paper's 2-layer shape: `in → hidden → out` with ReLU hidden.
    pub fn two_layer(
        store: &mut ParamStore,
        rng_: &mut StdRng,
        name: &str,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
    ) -> Self {
        Self::new(
            store,
            rng_,
            name,
            &[in_dim, hidden, out_dim],
            Activation::Relu,
            Activation::None,
        )
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output width.
    #[expect(
        clippy::unwrap_used,
        reason = "Mlp::new asserts at least [in, out] dims, so there is always a last layer"
    )]
    pub fn out_dim(&self) -> usize {
        self.layers.last().unwrap().out_dim()
    }

    /// Forward an `n×in_dim` batch.
    pub fn forward(&self, sess: &mut Session<'_>, mut x: Var) -> Var {
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.forward(sess, x);
            x = if i < last {
                self.hidden_activation.apply(sess, x)
            } else {
                self.output_activation.apply(sess, x)
            };
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Optimizer, Sgd};
    use gp_tensor::Tensor;
    use std::sync::Arc;

    #[test]
    fn linear_shapes() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let lin = Linear::new(&mut store, &mut rng, "l", 4, 3);
        let mut sess = Session::new(&store);
        let x = sess.data(Tensor::zeros(5, 4));
        let y = lin.forward(&mut sess, x);
        assert_eq!(sess.value(y).shape(), (5, 3));
    }

    #[test]
    fn mlp_learns_xor() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let mlp = Mlp::new(
            &mut store,
            &mut rng,
            "xor",
            &[2, 8, 2],
            Activation::Tanh,
            Activation::None,
        );
        let x = Tensor::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let targets = Arc::new(vec![0usize, 1, 1, 0]);
        let mut opt = Sgd::new(0.5);
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            let mut sess = Session::new(&store);
            let xv = sess.data(x.clone());
            let logits = mlp.forward(&mut sess, xv);
            let loss = sess.tape.cross_entropy_logits(logits, targets.clone());
            let (lv, grads) = sess.grads(loss);
            opt.step(&mut store, &grads);
            last = lv;
        }
        assert!(last < 0.1, "XOR loss did not converge: {last}");
        // Check predictions.
        let mut sess = Session::new(&store);
        let xv = sess.data(x);
        let logits = mlp.forward(&mut sess, xv);
        assert_eq!(sess.value(logits).argmax_rows(), vec![0, 1, 1, 0]);
    }

    #[test]
    fn two_layer_matches_paper_shape() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::two_layer(&mut store, &mut rng, "phi", 16, 32, 1);
        assert_eq!(mlp.in_dim(), 16);
        assert_eq!(mlp.out_dim(), 1);
        // 2 weight matrices + 2 biases.
        assert_eq!(store.len(), 4);
    }
}
