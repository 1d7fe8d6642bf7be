//! Golden digest of a short Reference pre-training run: an FNV-1a hash
//! over every parameter's bits after Alg. 1 on a small preset.
//!
//! The forward oracles pin inference; this pins the whole training step
//! (forward, backward, AdamW) bit for bit, so a kernel or tape change
//! that moves any gradient bit fails here instead of in a manual
//! comparison of model files. Only Reference is pinned here; Fast
//! writes the same model file (`tests/cli.rs`).

use gp_core::{pretrain, GraphPrompterModel, ModelConfig, PretrainConfig, StageConfig};

/// The digest the parameters hash to after [`train`]. A change that
/// moves it changes every model pre-trained on Reference kernels.
const GOLDEN: u64 = 0xe630_83b3_ac5b_d602;

/// FNV-1a (64-bit) over each parameter's name, shape and value bits, in
/// store order.
fn digest(model: &GraphPrompterModel) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for (id, t) in model.store.iter() {
        eat(model.store.name(id).as_bytes());
        eat(&(t.rows() as u64).to_le_bytes());
        eat(&(t.cols() as u64).to_le_bytes());
        for v in t.as_slice() {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}

/// Four full-stage steps on the ConceptNet-like preset (a knowledge
/// graph, so the reconstruction layer sees relation features), from the
/// default model.
fn train() -> GraphPrompterModel {
    let ds = gp_datasets::presets::conceptnet_like(0);
    let mut model = GraphPrompterModel::new(ModelConfig::default());
    let cfg = PretrainConfig {
        steps: 4,
        ..PretrainConfig::default()
    };
    pretrain(&mut model, &ds, &cfg, StageConfig::full());
    model
}

#[test]
fn reference_pretraining_matches_the_golden_digest() {
    let got = digest(&train());
    assert_eq!(got, GOLDEN, "digest {got:#018x}");
}
