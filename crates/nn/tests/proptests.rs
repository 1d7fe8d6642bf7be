//! Property tests for the neural layers: randomized gradient checks
//! through full MLPs, optimizer convergence on random quadratics, and
//! GNN invariants on random graphs.

use std::sync::Arc;

use gp_nn::{
    Activation, AdamW, EncodeGraph, Forward, GnnEncoder, GraphSage, Mlp, Optimizer, ParamStore,
    Session,
};
use gp_tensor::rng::{self as trng, check, StdRng};
use gp_tensor::{EdgeList, Tensor};

fn random_connected_edges(n: usize, extra: usize, rng: &mut StdRng) -> Arc<EdgeList> {
    let mut pairs = Vec::new();
    // Ring for connectivity + self-loops + random chords.
    for i in 0..n as u32 {
        pairs.push((i, (i + 1) % n as u32));
        pairs.push(((i + 1) % n as u32, i));
        pairs.push((i, i));
    }
    for _ in 0..extra {
        pairs.push((rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32));
    }
    EdgeList::from_pairs(pairs).into_shared()
}

#[test]
fn mlp_gradient_matches_finite_difference() {
    check(16, |rng| {
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            rng,
            "m",
            &[3, 5, 2],
            Activation::Tanh,
            Activation::None,
        );
        let x = trng::randn(rng, 2, 3, 1.0);
        let targets = Arc::new(vec![0usize, 1]);

        let loss_of = |store: &ParamStore| -> f32 {
            let mut sess = Session::new(store);
            let xv = sess.data(x.clone());
            let logits = mlp.forward(&mut sess, &xv);
            let loss = sess.tape.cross_entropy_logits(logits, targets.clone());
            sess.value(&loss).item()
        };

        // Analytic gradients.
        let grads = {
            let mut sess = Session::new(&store);
            let xv = sess.data(x.clone());
            let logits = mlp.forward(&mut sess, &xv);
            let loss = sess.tape.cross_entropy_logits(logits, targets.clone());
            sess.grads(loss).1
        };

        // Spot-check a few entries of the first weight matrix.
        let (id, g) = &grads[0];
        let eps = 1e-2f32;
        for i in [0usize, 3, 7] {
            if i >= g.len() {
                continue;
            }
            let mut plus = store.clone();
            plus.get_mut(*id).as_mut_slice()[i] += eps;
            let mut minus = store.clone();
            minus.get_mut(*id).as_mut_slice()[i] -= eps;
            let numeric = (loss_of(&plus) - loss_of(&minus)) / (2.0 * eps);
            let a = g.as_slice()[i];
            assert!(
                (a - numeric).abs() < 5e-2 * (1.0 + numeric.abs()),
                "elem {}: analytic {} vs numeric {}",
                i,
                a,
                numeric
            );
        }
    });
}

#[test]
fn adam_minimizes_random_quadratics() {
    check(16, |rng| {
        let dim = rng.gen_range(1..6);
        let target = trng::randn(rng, 1, dim, 2.0);
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::zeros(1, dim));
        let mut opt = AdamW::new(0.1, 0.0);
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            let mut sess = Session::new(&store);
            let wv = sess.param(w);
            let t = sess.data(target.clone());
            let d = sess.tape.sub(wv, t);
            let sq = sess.tape.mul(d, d);
            let loss = sess.tape.sum_all(sq);
            let (lv, grads) = sess.grads(loss);
            opt.step(&mut store, &grads);
            last = lv;
        }
        assert!(last < 1e-2, "quadratic not minimized: {last}");
    });
}

#[test]
fn sage_embeddings_are_unit_rows_on_random_graphs() {
    check(16, |rng| {
        let (n, extra) = (rng.gen_range(4..20), rng.gen_range(0..20));
        let edges = random_connected_edges(n, extra, rng);
        let mut store = ParamStore::new();
        let sage = GraphSage::new(&mut store, rng, "s", &[4, 6]);
        let mut sess = Session::new(&store);
        let x = sess.data(trng::randn(rng, n, 4, 1.0));
        let h = sage.encode(
            &mut sess,
            x,
            None,
            &EncodeGraph::all_rows(edges.clone(), n),
            None,
        );
        let hv = sess.value(&h);
        assert!(hv.all_finite());
        for r in 0..n {
            let norm: f32 = hv.row(r).iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!(
                norm < 1e-6 || (norm - 1.0).abs() < 1e-3,
                "row {r} norm {norm}"
            );
        }
    });
}

#[test]
fn learned_edge_weights_are_renormalized_per_dst() {
    check(16, |rng| {
        // With per-dst renormalization, scaling ALL edge weights by a
        // constant must not change the output.
        let n = rng.gen_range(4..12);
        let edges = random_connected_edges(n, 6, rng);
        let mut store = ParamStore::new();
        let sage = GraphSage::new(&mut store, rng, "s", &[4, 6]);
        let x_t = trng::randn(rng, n, 4, 1.0);
        let w_t = trng::rand_uniform(rng, edges.len(), 1, 0.1, 0.9);

        let run = |scale: f32| {
            let mut sess = Session::new(&store);
            let x = sess.data(x_t.clone());
            let w = sess.data(w_t.scale(scale));
            let h = sage.encode(
                &mut sess,
                x,
                None,
                &EncodeGraph::all_rows(edges.clone(), n),
                Some(w),
            );
            sess.value(&h).clone()
        };
        let a = run(1.0);
        let b = run(0.5);
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    });
}
