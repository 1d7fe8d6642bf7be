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
