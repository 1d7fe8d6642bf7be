//! The `gp` binary turns bad user input into an error message and a
//! non-zero exit code, never a panic.

use std::process::Command;

use graphprompter::core::{GraphPrompterModel, ModelConfig};

#[test]
fn out_of_range_ways_is_an_error_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("gp-cli-ways-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model = dir.join("model.gpck");
    GraphPrompterModel::new(ModelConfig::default())
        .save(&model)
        .unwrap();
    let model = model.to_str().unwrap();
    for cmd in ["evaluate", "episode"] {
        for ways in ["99", "1"] {
            let out = Command::new(env!("CARGO_BIN_EXE_gp"))
                .args([cmd, "--model", model, "--dataset", "conceptnet"])
                .args(["--ways", ways])
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(1),
                "gp {cmd} --ways {ways}: {stderr}"
            );
            assert!(
                !stderr.contains("panicked"),
                "gp {cmd} --ways {ways}: {stderr}"
            );
            assert!(
                stderr.contains("--ways must be in 2..="),
                "the error names the flag: {stderr}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pre_v2_model_file_is_bad_magic_not_an_abort() {
    let dir = std::env::temp_dir().join(format!("gp-cli-gpmc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model = dir.join("v1.gpck");
    // The unchecksummed pre-v2 header (`GPMC`, four u64 dims, three tag
    // bytes, u64 seed) with a feat_dim of 2^40: any reader that sizes a
    // model from it aborts on allocation.
    let mut bytes = b"GPMC".to_vec();
    for dim in [1u64 << 40, 8, 64, 64] {
        bytes.extend_from_slice(&dim.to_le_bytes());
    }
    bytes.extend_from_slice(&[0, 0, 0]);
    bytes.extend_from_slice(&0u64.to_le_bytes());
    assert_eq!(bytes.len(), 47);
    std::fs::write(&model, &bytes).unwrap();
    let model = model.to_str().unwrap();
    let inspect: &[&str] = &["inspect", model];
    let evaluate: &[&str] = &[
        "evaluate",
        "--model",
        model,
        "--dataset",
        "conceptnet",
        "--ways",
        "3",
    ];
    for args in [inspect, evaluate] {
        let out = Command::new(env!("CARGO_BIN_EXE_gp"))
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "gp {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "gp {args:?}: {stderr}");
        assert!(stderr.contains("bad magic"), "gp {args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_flag_is_an_error_not_a_fallback() {
    let dir = std::env::temp_dir().join(format!("gp-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model = dir.join("model.gpck");
    GraphPrompterModel::new(ModelConfig::default())
        .save(&model)
        .unwrap();
    let model = model.to_str().unwrap();
    let base = ["--model", model, "--dataset", "conceptnet", "--ways", "3"];
    // Neither a removed option nor a typo of `--episodes` may fall back to
    // a default.
    for (cmd, extra) in [
        ("episode", ["--embed-quant", "i8"]),
        ("evaluate", ["--episode", "2"]),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_gp"))
            .arg(cmd)
            .args(base)
            .args(extra)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "gp {cmd} {extra:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "gp {cmd} {extra:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {}", extra[0])),
            "the error names the flag: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn oversized_serve_queue_is_an_error_not_an_abort() {
    for queue in ["100000000000000", "18446744073709551615"] {
        let out = Command::new(env!("CARGO_BIN_EXE_gp"))
            .args(["serve", "--dataset", "wiki", "--addr", "127.0.0.1:0"])
            .args(["--queue", queue])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "gp serve --queue {queue}: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "gp serve --queue {queue}: {stderr}"
        );
        assert!(
            stderr.contains("queue_capacity"),
            "the error names the field: {stderr}"
        );
    }
}

#[test]
fn oversized_v2_model_config_is_an_error_not_an_abort() {
    let dir = std::env::temp_dir().join(format!("gp-cli-gpck-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model = dir.join("huge.gpck");
    // A well-formed, checksummed v2 model payload: kind 1, a config with
    // a feat_dim of 2^40 (then rel, embed and hidden dims, generator and
    // two flag bytes, seed) and zero tensors. Building that model before
    // checking it against the file aborts on allocation.
    let mut payload = vec![1u8];
    for dim in [1u64 << 40, 8, 32, 64] {
        payload.extend_from_slice(&dim.to_le_bytes());
    }
    payload.extend_from_slice(&[0, 1, 0]);
    payload.extend_from_slice(&0u64.to_le_bytes());
    payload.extend_from_slice(&0u64.to_le_bytes());
    graphprompter::core::checkpoint::write_container(&model, &payload).unwrap();
    assert_eq!(std::fs::metadata(&model).unwrap().len(), 72);
    let model = model.to_str().unwrap();
    let inspect: &[&str] = &["inspect", model];
    let evaluate: &[&str] = &[
        "evaluate",
        "--model",
        model,
        "--dataset",
        "conceptnet",
        "--ways",
        "3",
    ];
    for args in [inspect, evaluate] {
        let out = Command::new(env!("CARGO_BIN_EXE_gp"))
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "gp {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "gp {args:?}: {stderr}");
        assert!(stderr.contains("shape mismatch"), "gp {args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pretraining_writes_the_same_file_on_both_backends() {
    let dir = std::env::temp_dir().join(format!("gp-cli-valbe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let runs: [(&str, &[&str]); 3] = [
        ("val", &["--validate-every", "30", "--backend", "fast"]),
        ("fast", &["--backend", "fast"]),
        ("ref", &["--backend", "reference"]),
    ];
    // The three runs are independent, so they run side by side.
    let children: Vec<_> = runs
        .iter()
        .map(|(name, args)| {
            Command::new(env!("CARGO_BIN_EXE_gp"))
                .args(["pretrain", "--source", "wiki", "--steps", "30", "--out"])
                .arg(dir.join(name))
                .args(*args)
                .stderr(std::process::Stdio::piped())
                .stdout(std::process::Stdio::null())
                .spawn()
                .unwrap()
        })
        .collect();
    for ((name, args), child) in runs.iter().zip(children) {
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "gp pretrain {name} {args:?}: {stderr}"
        );
    }
    // `--backend` is an accepted name that changes nothing.
    let file = |name: &str| std::fs::read(dir.join(name)).unwrap();
    assert!(
        file("val") == file("fast"),
        "validation must not change a fast run"
    );
    assert!(
        file("fast") == file("ref"),
        "--backend fast must write reference's file"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_validate_every_and_removed_resume_flags_are_errors() {
    let pretrain: &[&str] = &["pretrain", "--source", "wiki", "--steps", "1"];
    let serve: &[&str] = &["serve", "--dataset", "wiki"];
    // `--threads` stays on `evaluate` alone: nothing else runs on a pool.
    // `serve` runs each request alone, so it has no batching flags.
    let cases: [(&[&str], &[&str]); 10] = [
        (pretrain, &["--validate-every", "0"]),
        (pretrain, &["--checkpoint-dir", "ckpts"]),
        (pretrain, &["--checkpoint-every", "10"]),
        (pretrain, &["--keep-last", "9"]),
        (pretrain, &["--resume"]),
        (pretrain, &["--threads", "2"]),
        (
            &[
                "episode",
                "--model",
                "m.gpck",
                "--dataset",
                "wiki",
                "--ways",
                "3",
            ],
            &["--threads", "2"],
        ),
        (serve, &["--threads", "2"]),
        (serve, &["--max-batch", "2"]),
        (serve, &["--batch-window-ms", "2"]),
    ];
    for (command, extra) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_gp"))
            .args(command)
            .args(extra)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        let case = format!("gp {} {extra:?}", command[0]);
        assert_eq!(out.status.code(), Some(1), "{case}: {stderr}");
        assert!(!stderr.contains("panicked"), "{case}: {stderr}");
        let expected = if extra[0] == "--validate-every" {
            "--validate-every must be a positive integer".to_string()
        } else {
            format!("unknown flag {}", extra[0])
        };
        assert!(stderr.contains(&expected), "{case}: {stderr}");
    }
}

#[test]
fn old_trainer_checkpoint_is_an_error_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("gp-cli-trainer-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ckpt-000000010.gpck");
    // A well-formed, checksummed v2 payload of the retired trainer kind:
    // kind 2, a small config (feat, rel, embed and hidden dims, generator
    // and two flag bytes, seed), zero tensors, then trainer state (step,
    // best accuracy, best step, and empty snapshot, optimizer, curve and
    // guard-window sections).
    let mut payload = vec![2u8];
    for dim in [8u64, 8, 16, 24] {
        payload.extend_from_slice(&dim.to_le_bytes());
    }
    payload.extend_from_slice(&[0, 1, 0]);
    payload.extend_from_slice(&0u64.to_le_bytes());
    payload.extend_from_slice(&0u64.to_le_bytes());
    payload.extend_from_slice(&10u64.to_le_bytes());
    payload.extend_from_slice(&0.5f32.to_le_bytes());
    payload.extend_from_slice(&10u64.to_le_bytes());
    for _ in 0..6 {
        payload.extend_from_slice(&0u64.to_le_bytes());
    }
    graphprompter::core::checkpoint::write_container(&path, &payload).unwrap();

    let err = GraphPrompterModel::load(&path)
        .err()
        .expect("load must fail");
    assert!(err.to_string().contains("unknown payload kind 2"), "{err}");
    let out = Command::new(env!("CARGO_BIN_EXE_gp"))
        .arg("inspect")
        .arg(&path)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "gp inspect: {stderr}");
    assert!(!stderr.contains("panicked"), "gp inspect: {stderr}");
    assert!(stderr.contains("INVALID"), "gp inspect: {stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn non_finite_dataset_feature_is_an_error_not_chance_accuracy() {
    let dir = std::env::temp_dir().join(format!("gp-cli-inf-{}", std::process::id()));
    let (data, model) = (dir.join("data"), dir.join("model.gpck"));
    let (data, model) = (data.to_str().unwrap(), model.to_str().unwrap());
    let export = Command::new(env!("CARGO_BIN_EXE_gp"))
        .args(["export", "--dataset", "conceptnet", "--dir", data])
        .output()
        .unwrap();
    assert!(export.status.success());
    GraphPrompterModel::new(ModelConfig::default())
        .save(model)
        .unwrap();
    // `inf` as the first feature of every fifth node, from line 5 on.
    let nodes_tsv = std::path::Path::new(data).join("nodes.tsv");
    let nodes = std::fs::read_to_string(&nodes_tsv).unwrap();
    let mut edited = String::new();
    for (i, line) in nodes.lines().enumerate() {
        let [id, label, feats] = line.splitn(3, '\t').collect::<Vec<_>>()[..] else {
            panic!("{line}")
        };
        let (f0, rest) = feats.split_once(' ').unwrap();
        let first = if i % 5 == 4 { "inf" } else { f0 };
        edited += &format!("{id}\t{label}\t{first} {rest}\n");
    }
    std::fs::write(&nodes_tsv, edited).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_gp"))
        .args(["evaluate", "--model", model, "--ways", "5"])
        .args(["--dataset-path", data])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("nodes.tsv:5: feature 0 is inf"), "{stderr}");
    assert!(!stdout.contains('%'), "no accuracy is printed: {stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Write a 12-node, 2-class node dataset in the `gp export` format: node
/// `i` has label `i % 2`, `feat_dim` features and the split `split(i)`,
/// on a ring of edges.
fn write_tiny_dataset(dir: &std::path::Path, feat_dim: usize, split: fn(usize) -> &'static str) {
    std::fs::create_dir_all(dir).unwrap();
    let meta = format!("task\tnode\nclasses\t2\nrelations\t1\nfeat_dim\t{feat_dim}\nname\ttiny\n");
    std::fs::write(dir.join("meta.tsv"), meta).unwrap();
    let (mut nodes, mut edges) = (String::new(), String::new());
    for i in 0..12 {
        let feats = vec![format!("{}", i as f32 / 12.0); feat_dim].join(" ");
        nodes += &format!("{i}\t{}\t{feats}\t{}\n", i % 2, split(i));
        edges += &format!("{i}\t0\t{}\t-\n", (i + 1) % 12);
    }
    std::fs::write(dir.join("nodes.tsv"), nodes).unwrap();
    std::fs::write(dir.join("edges.tsv"), edges).unwrap();
}

#[test]
fn dataset_path_the_model_cannot_run_is_an_error_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("gp-cli-unrunnable-{}", std::process::id()));
    // Two features per node against the model's 32, and a dataset whose
    // every node is a query, so no class has a prompt point.
    let (narrow, all_test) = (dir.join("narrow"), dir.join("all-test"));
    write_tiny_dataset(&narrow, 2, |i| if i < 6 { "train" } else { "test" });
    write_tiny_dataset(&all_test, 32, |_| "test");
    let model = dir.join("model.gpck");
    GraphPrompterModel::new(ModelConfig::default())
        .save(&model)
        .unwrap();
    let model = model.to_str().unwrap();
    let width = "the model reads 32 features per node, but tiny has 2";
    let classes = "0 of its 2 classes have train and test points";
    let (evaluate, episode) = (
        &["--ways", "2", "--episodes", "1"][..],
        &["--ways", "2"][..],
    );
    let cases: [(&std::path::Path, &str, &[&str], &str); 5] = [
        (&narrow, "evaluate", evaluate, width),
        (&narrow, "episode", episode, width),
        (&narrow, "serve", &["--addr", "127.0.0.1:0"], width),
        (&all_test, "evaluate", evaluate, classes),
        (&all_test, "episode", episode, classes),
    ];
    for (data, cmd, extra, expected) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_gp"))
            .args([
                cmd,
                "--model",
                model,
                "--dataset-path",
                data.to_str().unwrap(),
            ])
            .args(extra)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "gp {cmd}: {stderr}");
        assert!(!stderr.contains("panicked"), "gp {cmd}: {stderr}");
        assert!(stderr.contains(expected), "gp {cmd}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
