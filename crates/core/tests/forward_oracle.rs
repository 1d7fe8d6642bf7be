//! Oracle for the tape-free forward pass: on random subgraph batches,
//! `gp_nn::Eval` gives the same bits as a `gp_nn::Session` tape for every
//! model variant.

use std::sync::Arc;

use gp_core::{
    sample_datapoint_subgraphs, GeneratorKind, GraphPrompterModel, ModelConfig, SubgraphBatch,
};
use gp_datasets::{CitationConfig, KgConfig};
use gp_graph::{RandomWalkSampler, SamplerConfig};
use gp_nn::{Eval, Forward, Session};
use gp_tensor::rng::check;
use gp_tensor::Tensor;

/// Embeddings, importances and task-graph logits of one forward pass:
/// the batch's first `labels.len()` graphs are the prompts (importance-
/// weighted, as inference weights them), the rest the queries.
fn pass<'a, F: Forward<'a>>(
    model: &GraphPrompterModel,
    f: &mut F,
    batch: &'a SubgraphBatch,
    use_reconstruction: bool,
    labels: &[usize],
    ways: usize,
) -> [Tensor; 3] {
    let emb = model.embed_batch(f, batch, use_reconstruction);
    let p_idx = Arc::new((0..labels.len()).collect::<Vec<_>>());
    let q_idx = Arc::new((labels.len()..batch.num_graphs).collect::<Vec<_>>());
    let prompts = f.gather_rows(&emb.embeddings, p_idx.clone());
    let p_imp = f.gather_rows(&emb.importance, p_idx);
    let prompts = f.mul_rows_by_col(prompts, &p_imp);
    let queries = f.gather_rows(&emb.embeddings, q_idx);
    let logits = model.task_forward(f, &prompts, labels, &queries, ways);
    [
        f.value(&emb.embeddings).clone(),
        f.value(&emb.importance).clone(),
        f.value(&logits).clone(),
    ]
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn eval_matches_the_tape_bit_for_bit() {
    // A node-classification graph and a knowledge graph, whose edge
    // tasks carry relation features into the reconstruction layer.
    let datasets = [
        CitationConfig::new("oracle-citation", 160, 4, 3).generate(),
        KgConfig::new("oracle-kg", 200, 5, 4, 9).generate(),
    ];
    check(12, |rng| {
        let ds = &datasets[rng.gen_range(0..datasets.len())];
        let sampler = RandomWalkSampler::new(SamplerConfig {
            hops: rng.gen_range(1..3),
            max_nodes: rng.gen_range(2..16),
            neighbors_per_node: rng.gen_range(1..6),
        });
        let graphs = rng.gen_range(2..10);
        let points: Vec<_> = (0..graphs)
            .map(|_| ds.train[rng.gen_range(0..ds.train.len())])
            .collect();
        let sgs = sample_datapoint_subgraphs(&ds.graph, &sampler, &points, ds.task, rng);
        let batch = SubgraphBatch::build(&ds.graph, &sgs, gp_datasets::REL_FEAT_DIM);
        let ways = rng.gen_range(2..5);
        let labels: Vec<usize> = (0..rng.gen_range(1..graphs))
            .map(|_| rng.gen_range(0..ways))
            .collect();
        let seed = rng.next_u64();

        for generator in [GeneratorKind::Sage, GeneratorKind::Gat, GeneratorKind::Gcn] {
            for recon_normalize in [true, false] {
                for proto_residual in [true, false] {
                    let model = GraphPrompterModel::new(ModelConfig {
                        embed_dim: 8,
                        hidden_dim: 12,
                        generator,
                        recon_normalize,
                        proto_residual,
                        seed,
                        ..ModelConfig::default()
                    });
                    for use_reconstruction in [true, false] {
                        let mut sess = Session::new(&model.store);
                        let tape =
                            pass(&model, &mut sess, &batch, use_reconstruction, &labels, ways);
                        let mut ev = Eval::new(&model.store);
                        let eval = pass(&model, &mut ev, &batch, use_reconstruction, &labels, ways);
                        for (name, (t, e)) in ["embeddings", "importance", "logits"]
                            .iter()
                            .zip(tape.iter().zip(&eval))
                        {
                            assert_eq!(
                                bits(t),
                                bits(e),
                                "{name}: {generator:?} recon {use_reconstruction} \
                                 normalize {recon_normalize} proto {proto_residual}"
                            );
                        }
                    }
                }
            }
        }
    });
}
