//! Golden digests of inference embeddings: an FNV-1a hash over the bits
//! of `embed_batch`'s embeddings and importances on a fixed 40-way
//! FB15K-237-like batch, for every `GNN_D`, with reconstruction on and
//! off, in both forward contexts.
//!
//! `forward_oracle` holds `Eval` to the `Session` tape and
//! `pretrain_golden` pins training; this pins what inference returns,
//! so a change to which rows `GNN_D` computes, or in what order, that
//! moves any embedding bit fails here. The batch comes in three
//! variants: as sampled, with one member's anchors `[a, a]` (a
//! self-loop datapoint, whose anchor is read twice) and with one
//! member's anchors removed (an all-zero row).

use gp_core::{
    sample_datapoint_subgraphs, GeneratorKind, GraphPrompterModel, ModelConfig, SubgraphBatch,
};
use gp_datasets::Dataset;
use gp_graph::{RandomWalkSampler, SamplerConfig, Subgraph};
use gp_nn::{Eval, Forward, Session};
use gp_tensor::rng::StdRng;
use gp_tensor::Tensor;

/// Members of the batch: one training point per class.
const WAYS: usize = 40;

/// `(generator, reconstruction, batch variant)` → digest, computed
/// before `GNN_D` learned to skip rows its readout does not read.
///
/// One run covers both backend names: they run the same kernels.
const GOLDEN: [(GeneratorKind, bool, Variant, u64); 18] = [
    (
        GeneratorKind::Sage,
        true,
        Variant::Sampled,
        0x2b8a9d7a5e57b216,
    ),
    (
        GeneratorKind::Sage,
        true,
        Variant::SelfLoop,
        0xc80a8394089d471c,
    ),
    (
        GeneratorKind::Sage,
        true,
        Variant::Anchorless,
        0xb092c176d88ef535,
    ),
    (
        GeneratorKind::Sage,
        false,
        Variant::Sampled,
        0x62cff54c7d212451,
    ),
    (
        GeneratorKind::Sage,
        false,
        Variant::SelfLoop,
        0x956fc4cdcb14bbf3,
    ),
    (
        GeneratorKind::Sage,
        false,
        Variant::Anchorless,
        0x8519255d6910abb9,
    ),
    (
        GeneratorKind::Gat,
        true,
        Variant::Sampled,
        0x6902a84f69dee713,
    ),
    (
        GeneratorKind::Gat,
        true,
        Variant::SelfLoop,
        0x236bdf9a01b6f881,
    ),
    (
        GeneratorKind::Gat,
        true,
        Variant::Anchorless,
        0x2ce5ffd1a6a4f220,
    ),
    (
        GeneratorKind::Gat,
        false,
        Variant::Sampled,
        0x1ece1a711d5087e8,
    ),
    (
        GeneratorKind::Gat,
        false,
        Variant::SelfLoop,
        0xdc32adee3f7a4acd,
    ),
    (
        GeneratorKind::Gat,
        false,
        Variant::Anchorless,
        0x3ebff436eb35f69b,
    ),
    (
        GeneratorKind::Gcn,
        true,
        Variant::Sampled,
        0x5e3e8d58e89914db,
    ),
    (
        GeneratorKind::Gcn,
        true,
        Variant::SelfLoop,
        0xb3d252673469024f,
    ),
    (
        GeneratorKind::Gcn,
        true,
        Variant::Anchorless,
        0xd1c1758057a6e865,
    ),
    (
        GeneratorKind::Gcn,
        false,
        Variant::Sampled,
        0x0ca99e4fb1f91ec6,
    ),
    (
        GeneratorKind::Gcn,
        false,
        Variant::SelfLoop,
        0xb78408a22baf589b,
    ),
    (
        GeneratorKind::Gcn,
        false,
        Variant::Anchorless,
        0x4d40dcb8e456f4b6,
    ),
];

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Variant {
    Sampled,
    SelfLoop,
    Anchorless,
}

const VARIANTS: [Variant; 3] = [Variant::Sampled, Variant::SelfLoop, Variant::Anchorless];
const GENERATORS: [GeneratorKind; 3] =
    [GeneratorKind::Sage, GeneratorKind::Gat, GeneratorKind::Gcn];

/// FNV-1a (64-bit) over each tensor's shape and value bits, in order.
fn digest(tensors: &[&Tensor]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for t in tensors {
        eat(&(t.rows() as u64).to_le_bytes());
        eat(&(t.cols() as u64).to_le_bytes());
        for v in t.as_slice() {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}

/// The first training point of each of the first [`WAYS`] classes,
/// sampled with the default sampler from one seeded stream.
fn subgraphs(ds: &Dataset) -> Vec<Subgraph> {
    let points: Vec<_> = (0..WAYS)
        .map(|c| {
            *ds.train
                .iter()
                .find(|p| usize::from(p.label(&ds.graph)) == c)
                .expect("every class has a training point")
        })
        .collect();
    let sampler = RandomWalkSampler::new(SamplerConfig::default());
    let mut rng = StdRng::seed_from_u64(29);
    sample_datapoint_subgraphs(&ds.graph, &sampler, &points, ds.task, &mut rng)
}

fn variant(sgs: &[Subgraph], v: Variant) -> Vec<Subgraph> {
    let mut sgs = sgs.to_vec();
    match v {
        Variant::Sampled => {}
        Variant::SelfLoop => sgs[3].anchors = vec![sgs[3].anchors[0]; 2],
        Variant::Anchorless => sgs[7].anchors.clear(),
    }
    sgs
}

/// Digest of one forward context's embeddings and importances.
fn embed<'a, F: Forward<'a>>(
    model: &GraphPrompterModel,
    f: &mut F,
    batch: &'a SubgraphBatch,
    use_reconstruction: bool,
) -> u64 {
    let emb = model.embed_batch(f, batch, use_reconstruction);
    digest(&[f.value(&emb.embeddings), f.value(&emb.importance)])
}

/// Every case's digest on the installed backend, checking that `Eval`
/// and the `Session` tape agree.
fn digests(ds: &Dataset) -> Vec<(GeneratorKind, bool, Variant, u64)> {
    let sgs = subgraphs(ds);
    let batches: Vec<_> = VARIANTS
        .iter()
        .map(|&v| {
            (
                v,
                SubgraphBatch::build(&ds.graph, &variant(&sgs, v), gp_datasets::REL_FEAT_DIM),
            )
        })
        .collect();
    let mut out = Vec::new();
    for generator in GENERATORS {
        let model = GraphPrompterModel::new(ModelConfig {
            generator,
            seed: 7,
            ..ModelConfig::default()
        });
        for use_reconstruction in [true, false] {
            for (v, batch) in &batches {
                let eval = embed(
                    &model,
                    &mut Eval::new(&model.store),
                    batch,
                    use_reconstruction,
                );
                let tape = embed(
                    &model,
                    &mut Session::new(&model.store),
                    batch,
                    use_reconstruction,
                );
                assert_eq!(
                    eval, tape,
                    "Eval and Session differ: {generator:?} recon {use_reconstruction} {v:?}"
                );
                out.push((generator, use_reconstruction, *v, eval));
            }
        }
    }
    out
}

#[test]
fn reference_embeddings_match_the_golden_digests() {
    let ds = gp_datasets::presets::fb15k237_like(0);
    let got = digests(&ds);
    let table: Vec<String> = got
        .iter()
        .map(|(g, r, v, d)| format!("(GeneratorKind::{g:?}, {r}, Variant::{v:?}, {d:#018x}),"))
        .collect();
    assert_eq!(got, GOLDEN, "digests:\n{}", table.join("\n"));
}
