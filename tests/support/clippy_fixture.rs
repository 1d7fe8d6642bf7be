//! Clippy over the deliberately dirty fixture crate in
//! `tests/fixtures/clippy`, with the repo's `clippy.toml` and CI's
//! `$LIB_LINTS`: every site the fixture marks `// lint: <key>` must be
//! reported, and nothing else. Clippy silently ignores a ban whose path
//! names no reachable fn (`f32::partial_cmp` is one), so a missing hit is
//! the only sign of a dead ban; the exact match catches it.
//!
//! Shared by the root crate's `rules` unit tests and
//! `tests/lint_integration.rs`; both find one fixture build next to their
//! test binary. Needs `cargo clippy`; without it the checks pass with a
//! note.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;

pub const CLIPPY_FIXTURE: &str = include_str!("../fixtures/clippy/src/lib.rs");

/// `(line, key)` for every site the clippy fixture marks `// lint: <key>`.
pub fn marked() -> BTreeSet<(usize, String)> {
    CLIPPY_FIXTURE
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim_start().starts_with("//"))
        .filter_map(|(i, l)| {
            let (_, key) = l.split_once("// lint: ")?;
            Some((i + 1, key.trim().to_string()))
        })
        .collect()
}

/// `(line, key)` for every diagnostic clippy reports in the fixture, or
/// `None` (with a note) when clippy is not installed. Sites outside
/// `src/lib.rs` carry their file in the key, so they never match a mark.
pub fn reported() -> Option<&'static BTreeSet<(usize, String)>> {
    static REPORTED: OnceLock<Option<BTreeSet<(usize, String)>>> = OnceLock::new();
    REPORTED.get_or_init(run_clippy_on_fixture).as_ref()
}

fn run_clippy_on_fixture() -> Option<BTreeSet<(usize, String)>> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let has_clippy = Command::new("cargo")
        .args(["clippy", "--version"])
        .output()
        .is_ok_and(|o| o.status.success());
    if !has_clippy {
        eprintln!("cargo clippy is not installed: skipping the clippy fixture checks");
        return None;
    }
    // Next to the test binary (`<target>/<profile>/deps/`), so reruns
    // reuse one build of the fixture.
    let exe = std::env::current_exe().expect("test binary path");
    let target = exe.ancestors().nth(2).expect("target dir");
    let out = Command::new("cargo")
        .args([
            "clippy",
            "--offline",
            "--quiet",
            "--lib",
            "--message-format=json",
        ])
        .arg("--manifest-path")
        .arg(root.join("tests/fixtures/clippy/Cargo.toml"))
        .arg("--target-dir")
        .arg(target.join("clippy-fixture"))
        .args(["--", "-D", "warnings"])
        .args(lib_lints(root))
        .output()
        .expect("run cargo clippy");
    assert!(!out.status.success(), "the dirty fixture must fail clippy");
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(diagnostic)
            .collect(),
    )
}

/// CI's `$LIB_LINTS`, read from the workflow so the list has one home.
fn lib_lints(root: &Path) -> Vec<String> {
    let ci = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("read ci.yml");
    let lints: Vec<String> = ci
        .lines()
        .skip_while(|l| l.trim() != "LIB_LINTS: >-")
        .skip(1)
        .take_while(|l| l.starts_with("    "))
        .flat_map(str::split_whitespace)
        .map(String::from)
        .collect();
    assert!(!lints.is_empty(), "ci.yml must define LIB_LINTS");
    lints
}

/// `(line, key)` of one `--message-format=json` compiler message: the
/// key is the lint name without its `clippy::` prefix, or the banned
/// method's path for `disallowed_methods`, prefixed with the file when
/// that is not `src/lib.rs`.
fn diagnostic(json: &str) -> Option<(usize, String)> {
    let rendered = json.split_once("\"rendered\":\"")?.1;
    let (header, rest) = rendered.split_once("\\n")?;
    let (file, pos) = rest.split_once("--> ")?.1.split_once(':')?;
    let line = pos.split(':').next()?;
    let code = json
        .split_once("\"code\":{\"code\":\"")?
        .1
        .split('"')
        .next()?;
    let key = match code.strip_prefix("clippy::") {
        Some("disallowed_methods") => header.split('`').nth(1)?,
        Some(lint) => lint,
        None => code,
    };
    let key = match file {
        "src/lib.rs" => key.to_string(),
        _ => format!("{file}: {key}"),
    };
    Some((line.parse().ok()?, key))
}

/// The marked and reported sites whose key satisfies `family` agree,
/// and the fixture marks at least one.
pub fn assert_family(family: impl Fn(&str) -> bool) {
    let Some(reported) = reported() else {
        return;
    };
    let pick = |set: &BTreeSet<(usize, String)>| -> Vec<(usize, String)> {
        set.iter().filter(|(_, k)| family(k)).cloned().collect()
    };
    let want = pick(&marked());
    assert!(!want.is_empty(), "the fixture marks no site of this family");
    assert_eq!(pick(reported), want);
}

/// Keys clippy reports on the first fixture line containing `needle`.
pub fn reported_at(needle: &str) -> Option<Vec<String>> {
    let line = CLIPPY_FIXTURE
        .lines()
        .position(|l| l.contains(needle))
        .unwrap_or_else(|| panic!("no fixture line contains {needle:?}"));
    let on_line = reported()?.iter().filter(|(l, _)| *l == line + 1);
    Some(on_line.map(|(_, k)| k.clone()).collect())
}

/// Clippy reports nothing on the fixture lines containing `needles`.
pub fn assert_clean(needles: &[&str]) {
    for needle in needles {
        if let Some(keys) = reported_at(needle) {
            assert!(keys.is_empty(), "{needle:?} was reported: {keys:?}");
        }
    }
}

/// `--lib` leaves the fixture's binary out of the library-only lints.
pub fn assert_no_bin_sites() {
    if let Some(r) = reported() {
        assert!(
            r.iter().all(|(_, k)| !k.starts_with("src/main.rs")),
            "{r:?}"
        );
    }
}
