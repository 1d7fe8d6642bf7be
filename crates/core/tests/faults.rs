//! Fault-injection harness for the GPCK v2 checkpoint subsystem.
//!
//! Simulates the ways checkpoints die in the wild — truncated writes,
//! bit rot at arbitrary offsets, processes killed mid-run, stale temp
//! files — and asserts that (a) corruption is always detected as a typed
//! [`CheckpointError`], never a panic or a silently-wrong model, and
//! (b) a killed-and-resumed pre-training run reproduces the uninterrupted
//! run bit for bit.

use std::path::{Path, PathBuf};

use gp_core::checkpoint::{
    checkpoint_file_name, list_checkpoints, load_trainer_checkpoint, read_container, save_model,
    save_trainer_checkpoint, save_trainer_checkpoint_faulty, scan_for_recovery, TrainerMeta,
    WriteFault,
};
use gp_core::{
    pretrain_resumable, CheckpointConfig, GraphPrompterModel, ModelConfig, PretrainConfig,
    StageConfig, TrainingCurve,
};
use gp_datasets::CitationConfig;
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

fn tiny_pretrain_cfg(steps: usize) -> PretrainConfig {
    PretrainConfig {
        steps,
        ways: 3,
        shots: 2,
        queries: 3,
        nm_ways: 3,
        nm_shots: 2,
        nm_queries: 3,
        log_every: 5,
        sampler: SamplerConfig {
            hops: 1,
            max_nodes: 10,
            neighbors_per_node: 5,
        },
        ..PretrainConfig::default()
    }
}

fn curve_bits(c: &TrainingCurve) -> (Vec<usize>, Vec<u32>, Vec<u32>) {
    (
        c.steps.clone(),
        c.loss.iter().map(|l| l.to_bits()).collect(),
        c.accuracy.iter().map(|a| a.to_bits()).collect(),
    )
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
/// still exercised in case a checkpoint is copied around by hand.
#[test]
fn any_truncation_is_detected() {
    check(24, |rng| {
        let model = GraphPrompterModel::new(tiny_model_cfg(6, 8, rng.next_u64()));
        let dir = tmpdir("cut");
        let path = dir.join(checkpoint_file_name(10));
        let meta = TrainerMeta {
            step: 10,
            best_params: model.store.snapshot(),
            ..TrainerMeta::default()
        };
        save_trainer_checkpoint(&path, &model, &meta).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let cut = rng.gen_range(0..bytes.len());
        std::fs::write(&path, &bytes[..cut]).unwrap();
        assert!(
            load_trainer_checkpoint(&path).is_err(),
            "cut at {} undetected",
            cut
        );
        std::fs::remove_dir_all(&dir).ok();
    });
}

// ---------------------------------------------------------------------------
// Kill/resume integration tests.
// ---------------------------------------------------------------------------

/// The tentpole guarantee: a run killed at a checkpoint boundary and
/// resumed reproduces the uninterrupted run bit for bit — same curve,
/// same best snapshot, same final parameters.
#[test]
fn resumed_run_is_bit_identical_to_uninterrupted() {
    let ds = CitationConfig::new("t", 300, 5, 31).generate();
    let mk = || GraphPrompterModel::new(tiny_model_cfg(16, 24, 0));

    // Uninterrupted reference run: 40 steps, checkpoint+validate every 10.
    let dir_a = tmpdir("resume_a");
    let mut model_a = mk();
    let ckpt_a = CheckpointConfig {
        every: 10,
        keep_last: 0,
        ..CheckpointConfig::new(&dir_a)
    };
    let report_a = pretrain_resumable(
        &mut model_a,
        &ds,
        &tiny_pretrain_cfg(40),
        StageConfig::full(),
        10,
        2,
        Some(&ckpt_a),
    )
    .unwrap();

    // "Killed" run: the same configuration stopped after 20 steps — the
    // checkpoint at step 20 is written before the end-of-run best-snapshot
    // restore, so it is exactly the mid-run trainer state.
    let dir_b = tmpdir("resume_b");
    let mut model_b = mk();
    let ckpt_b = CheckpointConfig {
        every: 10,
        keep_last: 0,
        ..CheckpointConfig::new(&dir_b)
    };
    pretrain_resumable(
        &mut model_b,
        &ds,
        &tiny_pretrain_cfg(20),
        StageConfig::full(),
        10,
        2,
        Some(&ckpt_b),
    )
    .unwrap();

    // Resume with the full step budget from the step-20 checkpoint.
    let mut model_r = mk();
    let ckpt_r = CheckpointConfig {
        every: 10,
        keep_last: 0,
        resume: true,
        ..CheckpointConfig::new(&dir_b)
    };
    let report_r = pretrain_resumable(
        &mut model_r,
        &ds,
        &tiny_pretrain_cfg(40),
        StageConfig::full(),
        10,
        2,
        Some(&ckpt_r),
    )
    .unwrap();

    assert_eq!(report_r.resumed_from, Some(20));
    assert_eq!(curve_bits(&report_r.curve), curve_bits(&report_a.curve));
    assert_eq!(report_r.best_acc.to_bits(), report_a.best_acc.to_bits());
    assert_eq!(report_r.best_step, report_a.best_step);
    assert_eq!(param_bits(&model_r), param_bits(&model_a));

    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

/// Recovery must skip a corrupted newest checkpoint and resume from the
/// previous valid one, reporting what it skipped.
#[test]
fn resume_skips_corrupt_newest_checkpoint() {
    let ds = CitationConfig::new("t", 300, 5, 32).generate();
    let dir = tmpdir("skipcorrupt");
    let mut model = GraphPrompterModel::new(tiny_model_cfg(16, 24, 0));
    let ckpt = CheckpointConfig {
        every: 10,
        keep_last: 0,
        ..CheckpointConfig::new(&dir)
    };
    pretrain_resumable(
        &mut model,
        &ds,
        &tiny_pretrain_cfg(20),
        StageConfig::full(),
        10,
        2,
        Some(&ckpt),
    )
    .unwrap();

    // Flip a payload byte in the newest checkpoint (step 20).
    let newest = dir.join(checkpoint_file_name(20));
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&newest, &bytes).unwrap();

    let mut resumed = GraphPrompterModel::new(tiny_model_cfg(16, 24, 0));
    let ckpt_r = CheckpointConfig {
        resume: true,
        ..ckpt
    };
    let report = pretrain_resumable(
        &mut resumed,
        &ds,
        &tiny_pretrain_cfg(20),
        StageConfig::full(),
        10,
        2,
        Some(&ckpt_r),
    )
    .unwrap();
    assert_eq!(
        report.resumed_from,
        Some(10),
        "must fall back to the step-10 checkpoint"
    );
    assert_eq!(report.skipped_checkpoints.len(), 1);
    assert!(
        report.skipped_checkpoints[0].1.contains("checksum"),
        "{:?}",
        report.skipped_checkpoints
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Debris a killed process can leave behind — stale temp files from
/// interrupted atomic writes, an empty final-name file, junk — must not
/// confuse directory listing or recovery.
#[test]
fn recovery_ignores_kill_debris() {
    let dir = tmpdir("debris");
    let model = GraphPrompterModel::new(tiny_model_cfg(8, 12, 9));
    let meta = TrainerMeta {
        step: 10,
        best_params: model.store.snapshot(),
        ..TrainerMeta::default()
    };
    save_trainer_checkpoint(&dir.join(checkpoint_file_name(10)), &model, &meta).unwrap();

    // A torn temp file (interrupted before rename) and assorted junk.
    std::fs::write(
        dir.join(format!("{}.tmp.12345", checkpoint_file_name(20))),
        b"torn",
    )
    .unwrap();
    std::fs::write(dir.join("notes.txt"), b"hello").unwrap();
    // A zero-byte file under a checkpoint name (e.g. `touch`ed by hand).
    std::fs::write(dir.join(checkpoint_file_name(30)), b"").unwrap();

    let listed: Vec<usize> = list_checkpoints(&dir).into_iter().map(|(s, _)| s).collect();
    assert_eq!(listed, vec![10, 30], "temp/junk files must not be listed");

    let scan = scan_for_recovery(&dir);
    let (step, _, _, recovered_meta) = scan.recovered.expect("valid checkpoint must recover");
    assert_eq!(step, 10);
    assert_eq!(recovered_meta.step, 10);
    assert_eq!(
        scan.skipped.len(),
        1,
        "only the empty ckpt-30 file is skipped"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Injected crashes inside the atomic writer itself — mid-`write` before
/// any fsync, and between fsync and rename — must leave the newest valid
/// checkpoint recoverable and must never surface a partial file under a
/// final checkpoint name.
#[test]
fn injected_writer_crash_never_loses_newest_valid_checkpoint() {
    let dir = tmpdir("faultywrite");
    let model = GraphPrompterModel::new(tiny_model_cfg(8, 12, 9));
    let meta_at = |step: usize| TrainerMeta {
        step,
        best_params: model.store.snapshot(),
        ..TrainerMeta::default()
    };
    save_trainer_checkpoint(&dir.join(checkpoint_file_name(10)), &model, &meta_at(10)).unwrap();

    for fault in [WriteFault::TornWrite, WriteFault::BeforeRename] {
        let newer = dir.join(checkpoint_file_name(20));
        let err = save_trainer_checkpoint_faulty(&newer, &model, &meta_at(20), fault)
            .expect_err("an injected crash must report failure");
        assert!(err.to_string().contains("injected fault"), "{err}");

        // The final name must not exist at all: the crash happened before
        // the rename, so there is nothing — partial or whole — to load.
        assert!(
            !newer.exists(),
            "{fault:?} must never materialize the final checkpoint name"
        );
        let listed: Vec<usize> = list_checkpoints(&dir).into_iter().map(|(s, _)| s).collect();
        assert_eq!(listed, vec![10], "{fault:?} residue must not be listed");

        let scan = scan_for_recovery(&dir);
        let (step, _, _, meta) = scan.recovered.expect("step 10 must survive the crash");
        assert_eq!(
            (step, meta.step),
            (10, 10),
            "{fault:?} lost the newest valid checkpoint"
        );
        assert!(
            scan.skipped.is_empty(),
            "{fault:?} residue reached recovery"
        );
    }

    // The post-fsync orphan temp file is a *complete* container (that is
    // what "synced before rename" means) — recovery just never looks at
    // temp names, so it cannot be half-adopted.
    let orphan = dir.join(format!(
        "{}.tmp.{}",
        checkpoint_file_name(20),
        std::process::id()
    ));
    assert!(orphan.exists(), "BeforeRename must leave its temp file");
    read_container(&orphan).expect("the synced orphan is internally complete");

    // A later healthy write at the same step goes through cleanly and
    // becomes the recovery target.
    save_trainer_checkpoint(&dir.join(checkpoint_file_name(20)), &model, &meta_at(20)).unwrap();
    let scan = scan_for_recovery(&dir);
    assert_eq!(scan.recovered.expect("recovers").0, 20);
    std::fs::remove_dir_all(&dir).ok();
}

/// Resuming against a model built with a different architecture must be a
/// typed error, not a silent shape-corrupted merge.
#[test]
fn resume_rejects_mismatched_model_config() {
    let ds = CitationConfig::new("t", 300, 5, 33).generate();
    let dir = tmpdir("mismatch");
    let mut model = GraphPrompterModel::new(tiny_model_cfg(16, 24, 0));
    let ckpt = CheckpointConfig {
        every: 10,
        keep_last: 0,
        ..CheckpointConfig::new(&dir)
    };
    pretrain_resumable(
        &mut model,
        &ds,
        &tiny_pretrain_cfg(10),
        StageConfig::full(),
        10,
        2,
        Some(&ckpt),
    )
    .unwrap();

    // Different embed width: the checkpoint must be refused.
    let mut other = GraphPrompterModel::new(tiny_model_cfg(8, 24, 0));
    let ckpt_r = CheckpointConfig {
        resume: true,
        ..ckpt
    };
    let err = pretrain_resumable(
        &mut other,
        &ds,
        &tiny_pretrain_cfg(10),
        StageConfig::full(),
        10,
        2,
        Some(&ckpt_r),
    )
    .unwrap_err();
    assert!(err.to_string().contains("configuration"), "{err}");
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
