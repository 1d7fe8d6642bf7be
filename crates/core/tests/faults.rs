//! Fault-injection harness for the GPCK v2 model files and GPES
//! embedding shards.
//!
//! Simulates the ways files die in the wild — truncated writes, bit rot
//! at arbitrary offsets, a writer killed mid-write — and asserts that
//! corruption is always detected as a typed [`CheckpointError`], never a
//! panic or a silently-wrong model, and that a crashed write never costs
//! the file already under the final name.

use std::path::{Path, PathBuf};

use gp_core::checkpoint::{read_container, save_model, write_container_faulty, WriteFault};
use gp_core::{GraphPrompterModel, ModelConfig};
use gp_graph::SamplerConfig;
use gp_tensor::rng::check;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("gp_faults_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn tiny_model_cfg(embed: usize, hidden: usize, seed: u64) -> ModelConfig {
    ModelConfig {
        embed_dim: embed,
        hidden_dim: hidden,
        seed,
        ..ModelConfig::default()
    }
}

fn param_bits(m: &GraphPrompterModel) -> Vec<Vec<u32>> {
    m.store
        .iter()
        .map(|(_, t)| t.as_slice().iter().map(|v| v.to_bits()).collect())
        .collect()
}

// ---------------------------------------------------------------------------
// Property tests: roundtrip fidelity and corruption detection.
// ---------------------------------------------------------------------------

/// Any model configuration must roundtrip through a GPCK v2 container
/// with bit-identical parameters.
#[test]
fn gpck_roundtrip_any_config() {
    check(24, |rng| {
        let (embed, hidden) = (rng.gen_range(4..12), rng.gen_range(4..16));
        let seed = rng.next_u64();
        let recon_normalize = rng.gen_range(0..2) == 1;
        let proto_residual = rng.gen_range(0..2) == 1;
        let generator = match rng.gen_range(0..3) {
            0 => gp_core::GeneratorKind::Sage,
            1 => gp_core::GeneratorKind::Gat,
            _ => gp_core::GeneratorKind::Gcn,
        };
        let cfg = ModelConfig {
            generator,
            recon_normalize,
            proto_residual,
            ..tiny_model_cfg(embed, hidden, seed)
        };
        let model = GraphPrompterModel::new(cfg.clone());
        let dir = tmpdir("rt");
        let path = dir.join("m.gpck");
        save_model(&path, &model).unwrap();
        let loaded = GraphPrompterModel::load(&path).unwrap();
        assert_eq!(loaded.config(), &cfg);
        assert_eq!(param_bits(&loaded), param_bits(&model));
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// Corrupting any single byte anywhere in the file — header or payload
/// — must yield a typed load error: no panic, no silently-wrong model.
#[test]
fn any_single_byte_corruption_is_detected() {
    check(24, |rng| {
        let model = GraphPrompterModel::new(tiny_model_cfg(6, 8, rng.next_u64()));
        let dir = tmpdir("flip");
        let path = dir.join("m.gpck");
        save_model(&path, &model).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let i = rng.gen_range(0..bytes.len());
        let mask = rng.gen_range(1..=255) as u8;
        bytes[i] ^= mask;
        std::fs::write(&path, &bytes).unwrap();
        let res = GraphPrompterModel::load(&path);
        assert!(
            res.is_err(),
            "flip of byte {} (mask {:#04x}) went undetected",
            i,
            mask
        );
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// A file cut off at any point must load as a typed error, never hang
/// or panic — the torn-write scenario atomic renames protect against,
/// still exercised in case a model file is copied around by hand.
#[test]
fn any_truncation_is_detected() {
    check(24, |rng| {
        let model = GraphPrompterModel::new(tiny_model_cfg(6, 8, rng.next_u64()));
        let dir = tmpdir("cut");
        let path = dir.join("m.gpck");
        save_model(&path, &model).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let cut = rng.gen_range(0..bytes.len());
        std::fs::write(&path, &bytes[..cut]).unwrap();
        assert!(
            GraphPrompterModel::load(&path).is_err(),
            "cut at {} undetected",
            cut
        );
        std::fs::remove_dir_all(&dir).ok();
    });
}

// ---------------------------------------------------------------------------
// Crash injection inside the atomic writer.
// ---------------------------------------------------------------------------

/// Injected crashes inside the atomic writer itself — mid-`write` before
/// any fsync, and between fsync and rename — must leave the old model
/// file under the final name loadable bit for bit, and must never surface
/// a partial file there.
#[test]
fn injected_writer_crash_never_loses_newest_valid_checkpoint() {
    let dir = tmpdir("faultywrite");
    let path = dir.join("m.gpck");
    let old = GraphPrompterModel::new(tiny_model_cfg(8, 12, 9));
    let new = GraphPrompterModel::new(tiny_model_cfg(8, 12, 10));
    assert_ne!(param_bits(&old), param_bits(&new));
    // The new model's payload, as `save_model` would write it.
    let staged = dir.join("staged.gpck");
    save_model(&staged, &new).unwrap();
    let new_payload = read_container(&staged).unwrap();
    save_model(&path, &old).unwrap();

    for fault in [WriteFault::TornWrite, WriteFault::BeforeRename] {
        let err = write_container_faulty(&path, &new_payload, fault)
            .expect_err("an injected crash must report failure");
        assert!(err.to_string().contains("injected fault"), "{err}");
        // The crash happened before the rename: the final name still
        // holds the old file, whole.
        let loaded = GraphPrompterModel::load(&path)
            .unwrap_or_else(|e| panic!("{fault:?} lost the old model file: {e}"));
        assert_eq!(param_bits(&loaded), param_bits(&old), "{fault:?}");
    }

    // The post-fsync orphan temp file is a *complete* container (that is
    // what "synced before rename" means), holding the new model.
    let orphan = dir.join(format!("m.gpck.tmp.{}", std::process::id()));
    assert!(orphan.exists(), "BeforeRename must leave its temp file");
    assert_eq!(
        read_container(&orphan).expect("the synced orphan is internally complete"),
        new_payload
    );
    assert_eq!(
        param_bits(&GraphPrompterModel::load(&orphan).unwrap()),
        param_bits(&new)
    );

    // A later healthy write goes through cleanly.
    save_model(&path, &new).unwrap();
    assert_eq!(
        param_bits(&GraphPrompterModel::load(&path).unwrap()),
        param_bits(&new)
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// GPES embedding-shard faults: the persistent embedding tier must treat
// ANY damaged shard as a cold miss — never serve wrong data, never panic
// — and must roundtrip arbitrary rows bit for bit.
// ---------------------------------------------------------------------------

use gp_core::EmbeddingStore;
use gp_datasets::DataPoint;

const GPES_REVISION: u64 = 7;
const GPES_FP: u64 = 0xfeed_beef;
const GPES_DATASET: u64 = 42;

fn gpes_sampler() -> SamplerConfig {
    SamplerConfig {
        hops: 2,
        max_nodes: 16,
        neighbors_per_node: 4,
    }
}

/// A store over `dir` with `rows` embeddings persisted to one shard.
fn populated_gpes_store(dir: &Path, rows: usize) -> EmbeddingStore {
    let store = EmbeddingStore::with_disk_tier(64, dir);
    store.set_weights_context(GPES_REVISION, GPES_FP);
    for i in 0..rows {
        store.insert(
            GPES_REVISION,
            GPES_DATASET,
            DataPoint::Node(i as u32),
            9,
            &gpes_sampler(),
            true,
            vec![i as f32 + 0.25, -(i as f32), 1.5],
            0.5,
        );
    }
    assert_eq!(store.flush(), rows);
    store
}

fn gpes_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "gpes"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

/// Flip one arbitrary byte anywhere in a shard — header, payload or
/// CRC — and a fresh store over the directory must answer every key
/// as a cold miss with exactly one corrupt shard counted; the bad
/// file is reclaimed so the next flush starts clean.
#[test]
fn any_single_byte_shard_corruption_is_a_cold_miss() {
    check(48, |rng| {
        let dir = tmpdir("gpes_corrupt");
        drop(populated_gpes_store(&dir, 5));
        let files = gpes_files(&dir);
        assert_eq!(files.len(), 1);
        let mut bytes = std::fs::read(&files[0]).unwrap();
        let off = rng.gen_range(0..bytes.len());
        bytes[off] ^= rng.gen_range(1..=255) as u8;
        std::fs::write(&files[0], &bytes).unwrap();

        let fresh = EmbeddingStore::with_disk_tier(64, dir.clone());
        fresh.set_weights_context(GPES_REVISION, GPES_FP);
        for i in 0..5u32 {
            let hit = fresh.lookup(
                GPES_REVISION,
                GPES_DATASET,
                DataPoint::Node(i),
                9,
                &gpes_sampler(),
                true,
            );
            assert!(hit.is_none(), "corrupt shard served row {i}");
        }
        assert_eq!(fresh.stats().corrupt_shards, 1);
        assert!(gpes_files(&dir).is_empty(), "bad shard must be reclaimed");
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// Truncating a shard at any length is detected the same way.
#[test]
fn any_shard_truncation_is_a_cold_miss() {
    check(48, |rng| {
        let dir = tmpdir("gpes_truncate");
        drop(populated_gpes_store(&dir, 4));
        let files = gpes_files(&dir);
        assert_eq!(files.len(), 1);
        let bytes = std::fs::read(&files[0]).unwrap();
        let cut = rng.gen_range(0..bytes.len()); // strictly shorter than the file
        std::fs::write(&files[0], &bytes[..cut]).unwrap();

        let fresh = EmbeddingStore::with_disk_tier(64, dir.clone());
        fresh.set_weights_context(GPES_REVISION, GPES_FP);
        let hit = fresh.lookup(
            GPES_REVISION,
            GPES_DATASET,
            DataPoint::Node(0),
            9,
            &gpes_sampler(),
            true,
        );
        assert!(hit.is_none(), "truncated shard served data");
        assert_eq!(fresh.stats().corrupt_shards, 1);
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// A crash inside the flush (torn temp file, or killed between fsync
/// and rename) must leave the previously-flushed shard intact — the
/// reader sees old-or-nothing, never a blend.
#[test]
fn kill_mid_flush_leaves_old_or_nothing() {
    check(48, |rng| {
        let (torn, extra_rows) = (rng.gen_range(0..2) == 0, rng.gen_range(1..6));
        let dir = tmpdir("gpes_kill");
        let store = populated_gpes_store(&dir, 3);
        for i in 0..extra_rows {
            store.insert(
                GPES_REVISION,
                GPES_DATASET,
                DataPoint::Node(100 + i as u32),
                9,
                &gpes_sampler(),
                true,
                vec![7.0, 8.0, 9.0],
                0.5,
            );
        }
        let fault = if torn {
            WriteFault::TornWrite
        } else {
            WriteFault::BeforeRename
        };
        store.flush_with_fault(fault);
        drop(store);

        let fresh = EmbeddingStore::with_disk_tier(64, dir.clone());
        fresh.set_weights_context(GPES_REVISION, GPES_FP);
        let hit = fresh.lookup(
            GPES_REVISION,
            GPES_DATASET,
            DataPoint::Node(0),
            9,
            &gpes_sampler(),
            true,
        );
        assert!(hit.is_some(), "pre-crash shard must survive a failed flush");
        assert_eq!(hit.unwrap().0, vec![0.25f32, 0.0, 1.5]);
        assert_eq!(fresh.stats().corrupt_shards, 0);
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// Arbitrary rows roundtrip through a flushed shard and a fresh store
/// bit for bit.
#[test]
fn shard_roundtrip_is_bit_exact_on_arbitrary_rows() {
    check(48, |rng| {
        let vals: Vec<f32> = (0..rng.gen_range(1..48))
            .map(|_| rng.gen_range(-100.0..100.0))
            .collect();
        let dir = tmpdir("gpes_roundtrip");
        let store = EmbeddingStore::with_disk_tier(64, dir.clone());
        store.set_weights_context(GPES_REVISION, GPES_FP);
        store.insert(
            GPES_REVISION,
            GPES_DATASET,
            DataPoint::Node(1),
            9,
            &gpes_sampler(),
            true,
            vals.clone(),
            0.5,
        );
        store.flush();
        drop(store);

        let fresh = EmbeddingStore::with_disk_tier(64, dir.clone());
        fresh.set_weights_context(GPES_REVISION, GPES_FP);
        let (row, _) = fresh
            .lookup(
                GPES_REVISION,
                GPES_DATASET,
                DataPoint::Node(1),
                9,
                &gpes_sampler(),
                true,
            )
            .expect("persisted row must be readable");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&row), bits(&vals));
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// Tiering is an implementation detail: under ANY interleaving of
/// inserts, lookups, flushes and revision bumps, a tiny-L0 + disk-L1
/// store answers bit-identically to one unbounded in-memory store —
/// and a revision bump empties BOTH tiers at once.
#[test]
fn tiered_store_matches_unbounded_reference_under_any_interleaving() {
    check(48, |rng| {
        let ops: Vec<(usize, u8)> = (0..rng.gen_range(1..160))
            .map(|_| (rng.gen_range(0..8), rng.gen_range(0..20) as u8))
            .collect();
        let dir = tmpdir("gpes_tiers");
        // L0 of 3 forces constant demote/promote churn; the reference
        // never evicts, so every divergence is the tier's fault.
        let tiered = EmbeddingStore::with_disk_tier(3, dir.clone());
        let reference = EmbeddingStore::new(4096);
        let mut rev = GPES_REVISION;
        let fp = |rev: u64| rev ^ GPES_FP;
        tiered.set_weights_context(rev, fp(rev));
        // Row content depends on (key, revision): stale data is visible.
        let row = |k: u8, rev: u64| vec![f32::from(k) * 1.25 + rev as f32, -f32::from(k)];
        let mut live = [false; 20];

        for &(sel, k) in &ops {
            let point = DataPoint::Node(u32::from(k));
            match sel {
                // Insert (idempotent per (key, revision), so re-inserts
                // cannot mask overwrite-order differences).
                0..=2 => {
                    for store in [&tiered, &reference] {
                        store.insert(
                            rev,
                            GPES_DATASET,
                            point,
                            9,
                            &gpes_sampler(),
                            true,
                            row(k, rev),
                            0.5,
                        );
                    }
                    live[usize::from(k)] = true;
                }
                // Lookup: both stores must agree bit-for-bit, and the
                // tiered store must be lossless for this revision.
                3..=5 => {
                    let t = tiered.lookup(rev, GPES_DATASET, point, 9, &gpes_sampler(), true);
                    let r = reference.lookup(rev, GPES_DATASET, point, 9, &gpes_sampler(), true);
                    assert_eq!(&t, &r, "tiers diverged on key {}", k);
                    if live[usize::from(k)] {
                        let (emb, _) = t.expect("live key must hit");
                        assert_eq!(emb, row(k, rev));
                    } else {
                        assert!(t.is_none(), "key {} never inserted this revision", k);
                    }
                }
                // Flush mid-stream: persistence must not change answers.
                6 => {
                    tiered.flush();
                }
                // Weights moved: every prior entry — RAM or disk — dies.
                _ => {
                    rev += 1;
                    tiered.set_weights_context(rev, fp(rev));
                    live = [false; 20];
                }
            }
        }
        // Final sweep: full pointwise agreement, including keys the op
        // stream never touched after the last bump.
        for k in 0..20u8 {
            let point = DataPoint::Node(u32::from(k));
            let t = tiered.lookup(rev, GPES_DATASET, point, 9, &gpes_sampler(), true);
            let r = reference.lookup(rev, GPES_DATASET, point, 9, &gpes_sampler(), true);
            assert_eq!(t, r, "final sweep diverged on key {}", k);
        }
        std::fs::remove_dir_all(&dir).ok();
    });
}
