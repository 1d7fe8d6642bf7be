//! Oracle for reconstruction deduplication: on data-graph batches built
//! to repeat, `gp_nn::Eval` (one row per distinct `(u, v, rel)` triple,
//! one first-layer share per distinct source node) gives the same bits
//! as a `gp_nn::Session` tape (every union edge) for the embeddings,
//! importances and edge weights.

use gp_core::{
    sample_datapoint_subgraph, sample_datapoint_subgraphs, GeneratorKind, GraphPrompterModel,
    ModelConfig, SubgraphBatch,
};
use gp_datasets::presets::fb15k237_like;
use gp_datasets::{sample_few_shot_task, Dataset, KgConfig};
use gp_graph::{RandomWalkSampler, SamplerConfig, Subgraph};
use gp_nn::{Eval, Forward, Session};
use gp_tensor::rng::StdRng;
use gp_tensor::{EdgeList, Tensor};

/// Embeddings, importances and reconstruction edge weights of one pass.
fn pass<'a, F: Forward<'a>>(
    model: &GraphPrompterModel,
    f: &mut F,
    batch: &'a SubgraphBatch,
) -> [Tensor; 3] {
    let emb = model.embed_batch(f, batch, true);
    let x = f.input(&batch.features);
    let weights = model.edge_weights(f, batch, &x);
    [
        f.value(&emb.embeddings).clone(),
        f.value(&emb.importance).clone(),
        f.value(&weights).clone(),
    ]
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Holds `Eval` to `Session` on `batch` for every generator, with
/// `recon_normalize` on and off.
fn assert_eval_matches_the_tape(ds: &Dataset, batch: &SubgraphBatch, what: &str) {
    for generator in [GeneratorKind::Sage, GeneratorKind::Gat, GeneratorKind::Gcn] {
        for recon_normalize in [true, false] {
            let model = GraphPrompterModel::new(ModelConfig {
                feat_dim: ds.graph.feature_dim(),
                rel_dim: gp_datasets::REL_FEAT_DIM,
                embed_dim: 8,
                hidden_dim: 12,
                generator,
                recon_normalize,
                seed: 5,
                ..ModelConfig::default()
            });
            let tape = pass(&model, &mut Session::new(&model.store), batch);
            let eval = pass(&model, &mut Eval::new(&model.store), batch);
            for (part, (t, e)) in ["embeddings", "importance", "edge weights"]
                .iter()
                .zip(tape.iter().zip(&eval))
            {
                assert_eq!(t.shape(), e.shape(), "{what}: {part} shape");
                assert_eq!(
                    bits(t),
                    bits(e),
                    "{what}: {part} ({generator:?}, recon_normalize {recon_normalize})"
                );
            }
        }
    }
}

fn kg() -> Dataset {
    KgConfig::new("dedup-kg", 300, 6, 4, 11).generate()
}

#[test]
fn one_datapoint_repeated_computes_its_triples_once() {
    let ds = kg();
    let sampler = RandomWalkSampler::new(SamplerConfig::default());
    let point = ds.train[0];
    // The same draw four times, then four fresh draws of the same point.
    let sgs: Vec<Subgraph> = (0..8)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(if i < 4 { 7 } else { i });
            sample_datapoint_subgraph(&ds.graph, &sampler, point, ds.task, &mut rng)
        })
        .collect();
    let batch = SubgraphBatch::build(&ds.graph, &sgs, gp_datasets::REL_FEAT_DIM);
    assert!(
        batch.num_distinct_edges() * 4 <= batch.num_edges(),
        "rows {} vs edges {}: four copies of one draw must share their rows",
        batch.num_distinct_edges(),
        batch.num_edges()
    );
    assert!(batch.node_keys().iter().max() < Some(&batch.num_nodes));
    assert_eval_matches_the_tape(&ds, &batch, "repeated datapoint");
}

#[test]
fn overlapping_40_way_candidates_match_the_tape() {
    let ds = fb15k237_like(1);
    let sampler = RandomWalkSampler::new(SamplerConfig::default());
    let mut rng = StdRng::seed_from_u64(3);
    let task = sample_few_shot_task(&ds, 40, 3, 0, &mut rng);
    let points: Vec<_> = task.candidates.iter().map(|&(p, _)| p).collect();
    let sgs = sample_datapoint_subgraphs(&ds.graph, &sampler, &points, ds.task, &mut rng);
    let batch = SubgraphBatch::build(&ds.graph, &sgs, gp_datasets::REL_FEAT_DIM);
    assert!(batch.num_distinct_edges() < batch.num_edges());
    assert!(batch.node_keys().iter().max() < Some(&(batch.num_nodes - 1)));
    assert_eval_matches_the_tape(&ds, &batch, "40-way candidates");
}

#[test]
fn zero_edge_batches_match_the_tape() {
    let ds = kg();
    let sampler = RandomWalkSampler::new(SamplerConfig::default());
    let mut rng = StdRng::seed_from_u64(9);
    let mut sgs =
        sample_datapoint_subgraphs(&ds.graph, &sampler, &ds.train[..3], ds.task, &mut rng);
    for sg in &mut sgs {
        sg.edges = EdgeList::new(Vec::new(), Vec::new());
        sg.rels.clear();
    }
    for (what, sgs) in [("edgeless graphs", &sgs[..]), ("no graphs", &[][..])] {
        let batch = SubgraphBatch::build(&ds.graph, sgs, gp_datasets::REL_FEAT_DIM);
        assert_eq!((batch.num_edges(), batch.num_distinct_edges()), (0, 0));
        assert_eval_matches_the_tape(&ds, &batch, what);
    }
}
