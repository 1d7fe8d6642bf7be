//! The library source files that the source-text tests read: every `.rs`
//! file under `src/` and `crates/*/src/`.

use std::path::{Path, PathBuf};

/// `(path relative to the repo root, contents)` of every library source
/// file, sorted by path.
pub fn library_sources() -> Vec<(PathBuf, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = vec![root.join("src")];
    for krate in std::fs::read_dir(root.join("crates")).expect("read crates/") {
        dirs.push(krate.expect("crate entry").path().join("src"));
    }
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        let entries = std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
        for entry in entries {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                let src = std::fs::read_to_string(&path).expect("read source");
                let rel = path
                    .strip_prefix(root)
                    .expect("under the root")
                    .to_path_buf();
                files.push((rel, src));
            }
        }
    }
    files.sort();
    files
}
