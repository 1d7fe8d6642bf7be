//! Dense layers: [`Linear`] and the paper's 2-layer [`Mlp`].

use std::sync::Arc;

use gp_tensor::rng;
use gp_tensor::rng::StdRng;

use crate::forward::Forward;
use crate::params::{ParamId, ParamStore};

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
    /// Apply to a value of a forward pass.
    pub fn apply<'a, F: Forward<'a>>(self, f: &mut F, x: F::V) -> F::V {
        match self {
            Activation::None => x,
            Activation::Relu => f.relu(x),
            Activation::Sigmoid => f.sigmoid(x),
            Activation::Tanh => f.tanh(x),
            Activation::LeakyRelu => f.leaky_relu(x, 0.2),
        }
    }
}

/// Fully connected layer `y = xW + b`.
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Xavier-initialized layer with a zero bias.
    pub fn new(
        store: &mut ParamStore,
        rng_: &mut StdRng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        let w = store.add(
            format!("{name}.w"),
            rng::xavier_uniform(rng_, in_dim, out_dim),
        );
        let b = store.add(format!("{name}.b"), gp_tensor::Tensor::zeros(1, out_dim));
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

    /// `y = xW + b` for an `n×in_dim` input.
    pub fn forward<'a, F: Forward<'a>>(&self, f: &mut F, x: &F::V) -> F::V {
        let w = f.param(self.w);
        let y = f.matmul(x, &w);
        let b = f.param(self.b);
        f.add_row_broadcast(y, &b)
    }

    /// `y = [x[idx] | b]·W + bias`, with `keys` marking equal gathered
    /// rows (see [`Forward::gather_concat_matmul`]).
    pub fn forward_gather_concat<'a, F: Forward<'a>>(
        &self,
        f: &mut F,
        x: &F::V,
        idx: Arc<Vec<usize>>,
        keys: &[usize],
        b: &F::V,
    ) -> F::V {
        let w = f.param(self.w);
        let y = f.gather_concat_matmul(x, idx, keys, b, &w);
        let bias = f.param(self.b);
        f.add_row_broadcast(y, &bias)
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
    pub fn forward<'a, F: Forward<'a>>(&self, f: &mut F, x: &F::V) -> F::V {
        // `Mlp::new` asserts at least one layer.
        let h = self.layers[0].forward(f, x);
        self.forward_rest(f, h)
    }

    /// Forward the batch `[x[idx] | b]`, computing the first layer with
    /// [`Linear::forward_gather_concat`].
    pub fn forward_gather_concat<'a, F: Forward<'a>>(
        &self,
        f: &mut F,
        x: &F::V,
        idx: Arc<Vec<usize>>,
        keys: &[usize],
        b: &F::V,
    ) -> F::V {
        let h = self.layers[0].forward_gather_concat(f, x, idx, keys, b);
        self.forward_rest(f, h)
    }

    /// Every layer after the first, from the first layer's output `h`.
    fn forward_rest<'a, F: Forward<'a>>(&self, f: &mut F, mut h: F::V) -> F::V {
        for layer in &self.layers[1..] {
            h = self.hidden_activation.apply(f, h);
            h = layer.forward(f, &h);
        }
        self.output_activation.apply(f, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Optimizer, Sgd};
    use crate::Session;
    use gp_tensor::Tensor;
    use std::sync::Arc;

    #[test]
    fn linear_shapes() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let lin = Linear::new(&mut store, &mut rng, "l", 4, 3);
        let mut sess = Session::new(&store);
        let x = sess.data(Tensor::zeros(5, 4));
        let y = lin.forward(&mut sess, &x);
        assert_eq!(sess.value(&y).shape(), (5, 3));
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
            let logits = mlp.forward(&mut sess, &xv);
            let loss = sess.tape.cross_entropy_logits(logits, targets.clone());
            let (lv, grads) = sess.grads(loss);
            opt.step(&mut store, &grads);
            last = lv;
        }
        assert!(last < 0.1, "XOR loss did not converge: {last}");
        // Check predictions.
        let mut sess = Session::new(&store);
        let xv = sess.data(x);
        let logits = mlp.forward(&mut sess, &xv);
        assert_eq!(sess.value(&logits).argmax_rows(), vec![0, 1, 1, 0]);
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
