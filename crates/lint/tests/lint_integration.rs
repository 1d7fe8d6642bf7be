//! Integration tests, in two halves.
//!
//! * gp-lint over its deliberately-dirty text fixtures (never compiled)
//!   and over a synthetic on-disk workspace, end to end through the
//!   walker, the M1 manifest check and `--changed`.
//! * clippy over the compiled fixture crate in `fixtures/clippy`, with
//!   the repo's `clippy.toml` and CI's `$LIB_LINTS`: every site the
//!   fixture marks `// lint: <key>` must be reported, and nothing else.
//!   The per-rule checks of that crate are gp-lint's unit tests.

use std::path::{Path, PathBuf};
use std::process::Command;

use gp_lint::{lint_source, runner, FileKind, Options, Rule};

#[path = "support/clippy_fixture.rs"]
mod clippy_fixture;
use clippy_fixture::{assert_clean, assert_family, marked, reported, reported_at};

const DIRTY_SORT: &str = include_str!("fixtures/dirty_sort.rs");
const DIRTY_PRAGMA: &str = include_str!("fixtures/dirty_pragma.rs");
const DIRTY_CYCLE_A: &str = include_str!("fixtures/dirty_lock_cycle_a.rs");
const DIRTY_CYCLE_B: &str = include_str!("fixtures/dirty_lock_cycle_b.rs");
const DIRTY_WAIT: &str = include_str!("fixtures/dirty_wait_hold.rs");
const DIRTY_METRIC: &str = include_str!("fixtures/dirty_metric_drift.rs");

fn hits(src: &str, rule: Rule) -> Vec<usize> {
    lint_source("fixture.rs", FileKind::Lib, src)
        .violations
        .iter()
        .filter(|v| v.rule == rule)
        .map(|v| v.line)
        .collect()
}

#[test]
fn catches_partial_cmp_sorts_in_fixture() {
    assert_eq!(hits(DIRTY_SORT, Rule::D2), vec![5, 10, 15]);
}

#[test]
fn fixtures_are_rule_free_when_linted_as_harness_code() {
    for src in [DIRTY_SORT, DIRTY_CYCLE_A, DIRTY_WAIT] {
        let rep = lint_source("crates/x/tests/t.rs", FileKind::Harness, src);
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);
    }
    // …except pragma hygiene, which holds everywhere.
    let rep = lint_source("crates/x/tests/t.rs", FileKind::Harness, DIRTY_PRAGMA);
    assert_eq!(rep.violations.len(), 2, "{:?}", rep.violations);
    assert!(rep.violations.iter().all(|v| v.rule == Rule::P1));
}

#[test]
fn report_lines_are_sorted_and_stably_formatted() {
    let rep = lint_source("crates/core/src/x.rs", FileKind::Lib, DIRTY_PRAGMA);
    let rendered: Vec<String> = rep.violations.iter().map(|v| v.render()).collect();
    assert_eq!(
        rendered
            .iter()
            .map(|l| l.split(':').nth(1))
            .collect::<Vec<_>>(),
        vec![Some("5"), Some("8"), Some("16")],
        "{rendered:?}"
    );
    assert!(rendered[0].starts_with("crates/core/src/x.rs:5: determinism[D2] "));
    assert!(rendered[1].starts_with("crates/core/src/x.rs:8: pragma[P1] "));
    assert_eq!(rep.suppressed, 1, "the justified allow(D2) counts");
}

#[test]
fn catches_two_file_lock_cycle_in_fixtures() {
    // Per-function C1 needs no cross-file view: each half of the cycle
    // nests one lock under the other, and that alone fails.
    for (path, src, line, lock, held) in [
        (
            "crates/core/src/cycle_a.rs",
            DIRTY_CYCLE_A,
            16,
            "self.second",
            "self.first",
        ),
        (
            "crates/core/src/cycle_b.rs",
            DIRTY_CYCLE_B,
            8,
            "p.first",
            "p.second",
        ),
    ] {
        let rep = lint_source(path, FileKind::Lib, src);
        assert_eq!(rep.violations.len(), 1, "{:?}", rep.violations);
        let v = &rep.violations[0];
        assert_eq!((v.rule, v.line), (Rule::C1, line), "{v:?}");
        assert!(
            v.message
                .contains(&format!("locks `{lock}` while still holding `{held}`")),
            "{}",
            v.message
        );
    }
}

#[test]
fn catches_wait_holding_second_guard_in_fixture() {
    let rep = lint_source("crates/core/src/queue.rs", FileKind::Lib, DIRTY_WAIT);
    assert_eq!(rep.violations.len(), 1, "{:?}", rep.violations);
    let v = &rep.violations[0];
    assert_eq!((v.rule, v.line), (Rule::C1, 17));
    assert!(v
        .message
        .contains("`self.items` while still holding `self.stats`"));
}

// ---------------------------------------------------------------------------
// Clippy over the compiled fixture crate (see `support/clippy_fixture.rs`).

#[test]
fn catches_hashmap_iteration_in_fixture() {
    // Every banned HashMap/HashSet method and the `for` loops over a
    // set and a map; `get`, Vec iteration and the excused sorted
    // snapshot stay clean.
    assert_family(|k| k.starts_with("std::collections::Hash") || k == "iter_over_hash_type");
}

#[test]
fn catches_clock_panics_prints_and_bad_pragmas_in_fixture() {
    assert_family(|k| k.starts_with("std::time::"));
    assert_family(|k| {
        matches!(
            k,
            "unwrap_used" | "expect_used" | "panic" | "unreachable" | "todo" | "unimplemented"
        )
    });
    assert_family(|k| k.starts_with("print_"));
    // Pragma hygiene stays with gp-lint: a reason-less pragma and one
    // naming a rule that moved to clippy are both errors.
    assert_eq!(hits(DIRTY_PRAGMA, Rule::P1), vec![8, 16]);
}

#[test]
fn catches_discarded_results_in_fixture() {
    // The excused best-effort cleanup is not reported.
    assert_family(|k| k == "let_underscore_must_use" || k == "unused_result_ok");
}

#[test]
fn expect_ratchet_end_to_end() {
    // A fulfilled #[expect] silences its site; one whose site was fixed
    // fails by itself, so exceptions only ever ratchet down.
    assert_family(|k| k == "unfulfilled_lint_expectations");
}

/// The `#[expect]` on the `stale` line is reported as unfulfilled; the
/// `live` lines stay clean.
fn assert_ratchets(stale: &str, live: &[&str]) {
    if let Some(keys) = reported_at(stale) {
        assert_eq!(keys, ["unfulfilled_lint_expectations"]);
    }
    assert_clean(live);
}

#[test]
fn b1_ratchet_end_to_end() {
    // An excused unbounded channel is silent; once the channel is
    // bounded, the exception left behind fails by itself.
    assert_ratchets(
        "the channel this excused is bounded now",
        &["depth bounded by the pool budget", "mpsc::channel().1"],
    );
}

#[test]
fn e1_ratchet_end_to_end() {
    // Likewise for a discarded Result whose error is now returned.
    assert_ratchets(
        "the error this dropped is returned now",
        &[
            "best-effort temp cleanup",
            "let _ = std::fs::remove_file(path);",
        ],
    );
}

#[test]
fn clippy_fixture_reports_exactly_the_marked_sites() {
    if let Some(reported) = reported() {
        assert_eq!(reported, &marked());
    }
}

// ---------------------------------------------------------------------------
// End-to-end: walker + M1 + reports on a synthetic workspace.

const DIRTY_LIB: &str =
    "pub fn f(v: &mut [f32]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
const CLEAN_LIB: &str = "pub fn f(v: &mut [f32]) { v.sort_by(|a, b| a.total_cmp(b)); }\n";

/// A scratch workspace under cargo's per-target temp dir.
struct TempWs {
    root: PathBuf,
}

impl TempWs {
    fn write(&self, rel: &str, content: &str) {
        let p = self.root.join(rel);
        std::fs::create_dir_all(p.parent().unwrap()).unwrap();
        std::fs::write(p, content).unwrap();
    }

    fn opts(&self) -> Options {
        Options {
            root: self.root.clone(),
            changed: None,
        }
    }
}

fn mini_workspace(tag: &str) -> TempWs {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("gp-lint-ws-{tag}"));
    let _ = std::fs::remove_dir_all(&root);
    let ws = TempWs { root };
    ws.write("crates/core/src/lib.rs", CLEAN_LIB);
    ws.write(
        "crates/core/tests/t.rs",
        "#[test]\nfn t() { gp_core::f(&mut [1.0]); }\n",
    );
    // target/ and dotdirs must be skipped even when full of horrors.
    ws.write("target/debug/gen.rs", DIRTY_LIB);
    ws.write(".hidden/x.rs", DIRTY_LIB);
    ws
}

/// The ratchet is gone: every gp-lint finding fails the run, and fixing
/// the sites makes it pass again.
#[test]
fn walker_ratchet_end_to_end() {
    let ws = mini_workspace("e2e");
    let out = runner::run(&ws.opts()).unwrap();
    assert_eq!(out.files_scanned, 2, "target/ and .hidden/ are skipped");
    assert!(out.ok(), "{:?}", out.violations);

    // Violations in two files come back sorted by file, then line.
    ws.write("crates/core/src/lib.rs", DIRTY_LIB);
    ws.write(
        "crates/core/src/arch.rs",
        "pub fn f() { std::arch::x86_64::_mm_pause(); }\n",
    );
    let out = runner::run(&ws.opts()).unwrap();
    assert!(!out.ok());
    let got: Vec<(&str, usize, Rule)> = out
        .violations
        .iter()
        .map(|v| (v.file.as_str(), v.line, v.rule))
        .collect();
    assert_eq!(
        got,
        vec![
            ("crates/core/src/arch.rs", 1, Rule::A1),
            ("crates/core/src/lib.rs", 1, Rule::D2),
        ]
    );
    assert!(runner::render_text(&out).ends_with("gp-lint: 2 violations in 3 files\n"));

    // Fixing both sites makes the run pass.
    ws.write("crates/core/src/lib.rs", CLEAN_LIB);
    ws.write("crates/core/src/arch.rs", "pub fn f() {}\n");
    let out = runner::run(&ws.opts()).unwrap();
    assert!(out.ok(), "{:?}", out.violations);
    assert!(runner::render_text(&out).contains("gp-lint: clean — 3 files"));
}

#[test]
fn hard_violations_fail_regardless_of_baseline() {
    // A `lint-baseline.toml` left over from the removed ratchet excuses
    // nothing.
    let ws = mini_workspace("hard");
    ws.write(
        "lint-baseline.toml",
        "[R1]\ngp-core = 9\n\n[E1]\ngp-core = 9\n",
    );
    ws.write("crates/core/src/lib.rs", DIRTY_LIB);
    let out = runner::run(&ws.opts()).unwrap();
    let got: Vec<(&str, Rule)> = out
        .violations
        .iter()
        .map(|v| (v.file.as_str(), v.rule))
        .collect();
    assert_eq!(got, vec![("crates/core/src/lib.rs", Rule::D2)]);
}

#[test]
fn metric_manifest_drift_fails_both_directions() {
    let ws = mini_workspace("m1");
    ws.write("crates/core/src/metrics.rs", DIRTY_METRIC);
    let m1 = |ws: &TempWs| -> Vec<(String, usize, String)> {
        let out = runner::run(&ws.opts()).unwrap();
        let m1 = out.violations.into_iter().filter(|v| v.rule == Rule::M1);
        m1.map(|v| (v.file, v.line, v.message)).collect()
    };

    // 1. No METRICS.md at all: one M1 pointing at the missing manifest.
    let got = m1(&ws);
    assert_eq!(
        (got.len(), got[0].0.as_str(), got[0].1),
        (1, "METRICS.md", 1)
    );
    assert!(got[0].2.contains("does not exist"), "{got:?}");

    // 2. A manifest that misses the registered name fails at the
    //    registration site, and its stale row fails at the row.
    let header = "| Name | Type |\n|------|------|\n";
    ws.write(
        "METRICS.md",
        &format!("{header}| `fixture.other` | counter |\n"),
    );
    let got = m1(&ws);
    assert_eq!(got.len(), 2, "{got:?}");
    assert_eq!((got[0].0.as_str(), got[0].1), ("METRICS.md", 3));
    assert!(got[0].2.contains("stale"), "{got:?}");
    assert_eq!(
        (got[1].0.as_str(), got[1].1),
        ("crates/core/src/metrics.rs", 6)
    );
    assert!(got[1].2.contains("fixture.ghost_total"), "{got:?}");

    // 3. A manifest matching the registrations exactly is clean.
    ws.write(
        "METRICS.md",
        &format!("{header}| `fixture.ghost_total` | counter |\n"),
    );
    assert!(m1(&ws).is_empty());
}

fn git(root: &Path, args: &[&str]) {
    let st = Command::new("git")
        .args(["-c", "user.email=t@t", "-c", "user.name=t"])
        .args(args)
        .current_dir(root)
        .status()
        .unwrap();
    assert!(st.success(), "git {args:?} failed");
}

#[test]
fn changed_filter_scopes_report_to_touched_files() {
    let ws = mini_workspace("chg");
    git(&ws.root, &["init", "-q"]);
    git(&ws.root, &["add", "-A"]);
    git(&ws.root, &["commit", "-qm", "seed"]);

    // A committed violation predates the ref…
    ws.write("crates/core/src/sorty.rs", DIRTY_LIB);
    git(&ws.root, &["add", "-A"]);
    git(&ws.root, &["commit", "-qm", "dirty"]);
    let mut chg = ws.opts();
    chg.changed = Some("HEAD".to_string());
    // …so a HEAD-relative run is clean even though the full run fails.
    let out = runner::run(&chg).unwrap();
    assert!(out.ok(), "{:?}", out.violations);
    let out = runner::run(&ws.opts()).unwrap();
    assert!(!out.ok(), "the full run keeps the backstop");

    // An untracked new file with a violation IS caught pre-commit.
    ws.write("crates/core/src/sorty2.rs", DIRTY_LIB);
    let out = runner::run(&chg).unwrap();
    assert_eq!(out.violations.len(), 1, "{:?}", out.violations);
    assert_eq!(out.violations[0].file, "crates/core/src/sorty2.rs");
    assert_eq!(out.violations[0].rule, Rule::D2);
}

#[test]
fn sarif_output_from_workspace_run_is_well_formed() {
    let ws = mini_workspace("sarif");
    ws.write("crates/core/src/lib.rs", DIRTY_LIB);
    let out = runner::run(&ws.opts()).unwrap();
    assert!(!out.ok(), "the seeded partial_cmp sort fails");
    let s = runner::render_sarif(&out);
    assert!(s.contains("\"version\": \"2.1.0\""), "{s}");
    assert!(s.contains("sarif-2.1.0.json"), "{s}");
    assert!(s.contains("\"gp-lint\""), "{s}");
    assert!(s.contains("\"results\""), "{s}");
    assert!(s.contains("\"ruleId\": \"D2\""), "{s}");
    assert_eq!(s.matches('{').count(), s.matches('}').count());
    assert_eq!(s.matches('[').count(), s.matches(']').count());
}

#[test]
fn json_report_is_well_formed_enough() {
    let ws = mini_workspace("json");
    ws.write("crates/core/src/lib.rs", DIRTY_LIB);
    let out = runner::run(&ws.opts()).unwrap();
    let json = runner::render_json(&out);
    assert!(json.contains("\"ok\": false"));
    assert!(json.contains("\"rule\": \"D2\""));
    assert!(json.contains("\"files_scanned\": 2"));
    // Balanced braces/brackets as a cheap structural check.
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}
