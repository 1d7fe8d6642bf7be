//! Oracle for `GNN_D`'s read rows: an encoder that computes its last
//! layer only at an [`EncodeGraph`]'s read rows gives those rows the
//! bits of the all-rows pass, and GraphSAGE's keyed first layer gives
//! the bits of the unkeyed one.
//!
//! Every encoder runs on random graphs (self-loops and repeated edges
//! included) read at random row subsets, with no edge weights or with
//! learned ones (renormalized per destination or not, `0.0` and `-0.0`
//! among them). An `Eval` pass is compared by value; a
//! `Session` pass by value and by every parameter gradient of a loss
//! over the read rows. A second property runs the same comparison on
//! sampled subgraph batches, with [`SubgraphBatch::build`]'s read rows
//! and node keys.

use std::sync::Arc;

use gp_core::{sample_datapoint_subgraphs, SubgraphBatch};
use gp_datasets::{CitationConfig, KgConfig};
use gp_graph::{RandomWalkSampler, SamplerConfig};
use gp_nn::{
    EncodeGraph, Eval, Forward, Gat, Gcn, GnnEncoder, GraphSage, ParamId, ParamStore, Session,
};
use gp_tensor::rng::{self as trng, check, StdRng};
use gp_tensor::{EdgeList, Tensor};

/// One encoder input: features whose equal keys mark equal rows, a
/// graph read at some rows, and optional learned edge weights (a
/// parameter, so a `Session` also differentiates them).
struct Case<'c> {
    x: &'c Tensor,
    keys: &'c [usize],
    read: &'c EncodeGraph,
    weights: Option<ParamId>,
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The encoding of `case.x` over `graph` in `f`, keyed or not.
fn encode<'a, F: Forward<'a>, E: GnnEncoder>(
    enc: &E,
    f: &mut F,
    case: &Case<'a>,
    keyed: bool,
    graph: &EncodeGraph,
) -> F::V {
    let x = f.input(case.x);
    let w = case.weights.map(|id| f.param(id));
    enc.encode(f, x, keyed.then_some(case.keys), graph, w)
}

/// The read rows of the all-rows, unkeyed pass: the oracle.
fn oracle<'a, F: Forward<'a>, E: GnnEncoder>(enc: &E, f: &mut F, case: &Case<'a>) -> F::V {
    let all = EncodeGraph::all_rows(case.read.edges().clone(), case.read.num_nodes());
    let h = encode(enc, f, case, false, &all);
    f.gather_rows(&h, case.read.read_rows().clone())
}

/// Parameter gradients of `Σ h ⊙ probe` over a `Session`'s `h`.
fn grads(
    mut sess: Session<'_>,
    h: gp_tensor::Var,
    probe: &Tensor,
) -> (Tensor, Vec<(ParamId, Vec<u32>)>) {
    let value = sess.value(&h).clone();
    let p = sess.data(probe.clone());
    let prod = sess.tape.mul(h, p);
    let loss = sess.tape.sum_all(prod);
    let (_, g) = sess.grads(loss);
    let g = g.into_iter().map(|(id, t)| (id, bits(&t))).collect();
    (value, g)
}

/// Asserts every way of computing `case`'s read rows agrees, bit for bit.
fn assert_read_rows_agree<E: GnnEncoder>(enc: &E, store: &ParamStore, case: &Case<'_>, what: &str) {
    let expect = {
        let mut ev = Eval::new(store);
        let h = oracle(enc, &mut ev, case);
        ev.value(&h).clone()
    };
    for keyed in [false, true] {
        let mut ev = Eval::new(store);
        let h = encode(enc, &mut ev, case, keyed, case.read);
        assert_eq!(
            bits(ev.value(&h)),
            bits(&expect),
            "Eval, keyed {keyed}: {what}"
        );
    }
    let mut ev = Eval::new(store);
    let all = EncodeGraph::all_rows(case.read.edges().clone(), case.read.num_nodes());
    let keyed_all = encode(enc, &mut ev, case, true, &all);
    let keyed_all = ev.gather_rows(&keyed_all, case.read.read_rows().clone());
    assert_eq!(
        bits(ev.value(&keyed_all)),
        bits(&expect),
        "Eval, keyed all rows: {what}"
    );

    let probe = {
        let mut rng = StdRng::seed_from_u64(expect.rows() as u64);
        trng::randn(&mut rng, expect.rows(), expect.cols(), 1.0)
    };
    let tape_oracle = {
        let mut sess = Session::new(store);
        let h = oracle(enc, &mut sess, case);
        grads(sess, h, &probe)
    };
    assert_eq!(
        bits(&tape_oracle.0),
        bits(&expect),
        "Session oracle: {what}"
    );
    for keyed in [false, true] {
        let mut sess = Session::new(store);
        let h = encode(enc, &mut sess, case, keyed, case.read);
        let (value, g) = grads(sess, h, &probe);
        assert_eq!(
            bits(&value),
            bits(&expect),
            "Session, keyed {keyed}: {what}"
        );
        assert!(
            g == tape_oracle.1,
            "Session gradients, keyed {keyed}: {what}"
        );
    }
}

/// How learned edge weights enter a case.
#[derive(Copy, Clone, Debug)]
enum Weights {
    None,
    Normalized,
    Multiplied,
}

/// Runs every encoder over `x`/`keys` and `read`.
fn assert_encoders_agree(
    rng: &mut StdRng,
    x: &Tensor,
    keys: &[usize],
    read: &EncodeGraph,
    learned: &Tensor,
) {
    let d = x.cols();
    let depth = rng.gen_range(1..4);
    let mut dims = vec![d];
    dims.extend((0..depth).map(|_| 2 * rng.gen_range(1..5)));
    let seed = rng.next_u64();
    for weights in [Weights::None, Weights::Normalized, Weights::Multiplied] {
        let mut store = ParamStore::new();
        let mut init = StdRng::seed_from_u64(seed);
        let mut sage = GraphSage::new(&mut store, &mut init, "sage", &dims);
        sage.set_normalize_learned(!matches!(weights, Weights::Multiplied));
        let gcn = Gcn::new(&mut store, &mut init, "gcn", &dims);
        let gat = Gat::new(&mut store, &mut init, "gat", &dims);
        let gat2 = Gat::with_heads(&mut store, &mut init, "gat2", &dims, 2);
        let w = store.add("w", learned.clone());
        let case = Case {
            x,
            keys,
            read,
            weights: (!matches!(weights, Weights::None)).then_some(w),
        };
        let what = |name: &str| {
            format!(
                "{name} {dims:?} {weights:?}, {} of {} rows read",
                read.read_rows().len(),
                read.num_nodes()
            )
        };
        assert_read_rows_agree(&sage, &store, &case, &what("sage"));
        assert_read_rows_agree(&gcn, &store, &case, &what("gcn"));
        assert_read_rows_agree(&gat, &store, &case, &what("gat"));
        assert_read_rows_agree(&gat2, &store, &case, &what("gat2"));
    }
}

/// `E×1` learned weights in `[0, 1)`, with some exact `0.0` and `-0.0`.
fn learned_weights(rng: &mut StdRng, edges: usize) -> Tensor {
    let w = (0..edges)
        .map(|_| match rng.gen_range(0..6) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.next_f32(),
        })
        .collect();
    Tensor::from_vec(edges, 1, w)
}

#[test]
fn read_rows_match_the_all_rows_pass_on_random_graphs() {
    check(48, |rng| {
        let n = rng.gen_range(1..24);
        let pairs: Vec<(u32, u32)> = (0..rng.gen_range(0..4 * n))
            .map(|_| (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32))
            .collect();
        let edges = EdgeList::from_pairs(pairs).into_shared();
        let rows: Vec<usize> = (0..n).filter(|_| rng.gen_range(0..5) < 2).collect();
        let read = EncodeGraph::new(edges.clone(), n, rows);

        // Rows with equal keys are equal.
        let distinct = rng.gen_range(1..=n);
        let keys: Vec<usize> = (0..n).map(|_| rng.gen_range(0..distinct)).collect();
        let d = rng.gen_range(1..6);
        let table = trng::randn(rng, distinct, d, 1.0);
        let x = table.gather_rows(&keys);
        let learned = learned_weights(rng, edges.len());
        assert_encoders_agree(rng, &x, &keys, &read, &learned);
    });
}

#[test]
fn read_rows_match_the_all_rows_pass_on_sampled_batches() {
    let datasets = [
        CitationConfig::new("read-rows-citation", 160, 4, 3).generate(),
        KgConfig::new("read-rows-kg", 200, 5, 4, 9).generate(),
    ];
    check(16, |rng| {
        let ds = &datasets[rng.gen_range(0..datasets.len())];
        let sampler = RandomWalkSampler::new(SamplerConfig {
            hops: rng.gen_range(1..3),
            max_nodes: rng.gen_range(2..16),
            neighbors_per_node: rng.gen_range(1..6),
        });
        // Few distinct points, so the union repeats nodes.
        let pool: Vec<_> = (0..rng.gen_range(1..6))
            .map(|_| ds.train[rng.gen_range(0..ds.train.len())])
            .collect();
        let points: Vec<_> = (0..rng.gen_range(1..10))
            .map(|_| pool[rng.gen_range(0..pool.len())])
            .collect();
        let mut sgs = sample_datapoint_subgraphs(&ds.graph, &sampler, &points, ds.task, rng);
        let a = rng.gen_range(0..sgs.len());
        sgs[a].anchors = vec![sgs[a].anchors[0]; 2];
        let batch = SubgraphBatch::build(&ds.graph, &sgs, gp_datasets::REL_FEAT_DIM);
        let learned = learned_weights(rng, batch.num_edges());
        assert_encoders_agree(
            rng,
            &batch.features,
            batch.node_keys(),
            &batch.graph,
            &learned,
        );
    });
}

#[test]
fn read_edges_are_the_read_rows_in_edges_in_edge_order() {
    let edges =
        EdgeList::from_pairs([(0, 2), (1, 0), (2, 2), (3, 0), (0, 1), (2, 0)]).into_shared();
    let read = EncodeGraph::new(edges, 4, vec![0, 2]);
    let pairs: Vec<_> = read.read_edges().iter().collect();
    assert_eq!(pairs, [(0, 1), (1, 0), (2, 1), (3, 0), (2, 0)]);
    assert_eq!(read.read_edge_ids().as_slice(), &[0, 1, 2, 3, 5]);
}

#[test]
#[should_panic(expected = "read rows must strictly ascend")]
fn a_repeated_read_row_panics() {
    let _ = EncodeGraph::new(Arc::new(EdgeList::default()), 3, vec![1, 1]);
}
