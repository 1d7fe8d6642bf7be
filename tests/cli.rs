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
