//! The repo-specific rules gp-lint enforces.
//!
//! GraphPrompter's pipeline is specified to be **bit-identical across
//! runs and thread counts**: prompt scores (Eq. 7) and class votes
//! (Eq. 8) are ranked with total comparators and the `WorkerPool`
//! reduces partial results in a fixed order. The generic hazards to that
//! contract (hash-order iteration, wall-clock reads, panics, unbounded
//! queues, stdout from libraries, swallowed errors) are clippy lints and
//! `clippy.toml` bans, run by CI. gp-lint keeps only what clippy cannot
//! express:
//!
//! * **D2 — no `partial_cmp` in float comparators.** `partial_cmp`
//!   returns `None` for NaN, which `sort_by(|a, b|
//!   a.partial_cmp(b).unwrap())` turns into a panic and
//!   `unwrap_or(Ordering::Equal)` turns into an *order-dependent* sort
//!   (NaN placement then depends on the input permutation — exactly
//!   what Eq. 7/8 ranking must not do). Use `f32::total_cmp` or the
//!   canonicalizing wrappers `gp_tensor::rank_asc`/`rank_desc`, which
//!   are bit-identical to `partial_cmp` on NaN-free data and rank NaN
//!   last otherwise.
//!
//! * **A1 — no `std::arch`/`core::arch` outside the tensor backend.**
//!   Architecture-specific intrinsics live in exactly one place,
//!   `crates/tensor/src/backend`, behind the `ComputeBackend` dispatch
//!   with runtime feature detection and a scalar fallback. SIMD
//!   anywhere else bypasses that detection (an illegal-instruction
//!   trap on older hosts) and forks the numerics outside the
//!   reference-vs-fast tolerance contract.
//!
//! * **C1 — no nested locking within a function.** A `.lock()` taken
//!   while another let-bound guard of the same function is still live
//!   fixes an acquisition order; two functions taking the same pair in
//!   opposite orders is the one deadlock no test reliably reproduces.
//!   Take one lock at a time, or justify the order with an `allow(C1)`
//!   pragma (see DESIGN.md's lock-hierarchy note).
//!
//! * **M1 — metric-manifest drift.** Every metric name registered via
//!   `gp-obs` must appear in the committed `METRICS.md` manifest and
//!   vice versa; both drift directions fail so the manifest stays the
//!   trustworthy observability reference.
//!
//! * **P1 — malformed suppression pragma.** `// gp-lint: allow(<rule>)
//!   — <reason>` requires a known rule id and a non-empty reason; a
//!   pragma that cannot be verified is itself an error (never silently
//!   ignored).

use crate::facts::{self, MetricReg};
use crate::scanner::scan;

/// Rule identifiers, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// `partial_cmp` in a sort/max/min comparator or bare-unwrapped.
    D2,
    /// `std::arch`/`core::arch` outside `crates/tensor/src/backend`.
    A1,
    /// A `.lock()` while another guard of the same function is live.
    C1,
    /// Metric name drift between registrations and `METRICS.md`.
    M1,
    /// Malformed or unknown suppression pragma.
    P1,
}

/// Every rule, in report order (also the SARIF driver rule table).
pub const ALL_RULES: &[Rule] = &[Rule::D2, Rule::A1, Rule::C1, Rule::M1, Rule::P1];

impl Rule {
    /// Stable id used in reports and pragmas.
    pub fn id(self) -> &'static str {
        match self {
            Rule::D2 => "D2",
            Rule::A1 => "A1",
            Rule::C1 => "C1",
            Rule::M1 => "M1",
            Rule::P1 => "P1",
        }
    }

    /// Human category shown before the id, e.g. `determinism[D2]`.
    pub fn category(self) -> &'static str {
        match self {
            Rule::D2 => "determinism",
            Rule::A1 => "isolation",
            Rule::C1 => "concurrency",
            Rule::M1 => "observability",
            Rule::P1 => "pragma",
        }
    }

    /// All rules a pragma may name.
    pub fn suppressible() -> &'static [&'static str] {
        &["D2", "A1", "C1", "M1"]
    }

    /// One-line description for `--list-rules`.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::D2 => "no partial_cmp in float comparators; use total_cmp / rank_asc",
            Rule::A1 => "no std::arch/core::arch outside crates/tensor/src/backend",
            Rule::C1 => "no .lock() while another guard of the same fn is live",
            Rule::M1 => "every registered metric name appears in METRICS.md and vice versa",
            Rule::P1 => "suppression pragmas must name known rules and give a reason",
        }
    }
}

/// How a file participates in the build, derived from its path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// Library code: what clippy's `--lib` run covers.
    Lib,
    /// Binary target (`src/main.rs`, `src/bin/*`): same rules as `Lib`.
    Bin,
    /// Tests, benches, examples: only P1 applies.
    Harness,
}

/// Classify a repo-relative path.
pub fn classify(path: &str) -> FileKind {
    let p = path.replace('\\', "/");
    if p.contains("/tests/")
        || p.contains("/benches/")
        || p.contains("/examples/")
        || p.starts_with("tests/")
        || p.starts_with("benches/")
        || p.starts_with("examples/")
    {
        return FileKind::Harness;
    }
    if p.contains("/src/bin/")
        || p.starts_with("src/bin/")
        || p.ends_with("/src/main.rs")
        || p == "src/main.rs"
    {
        return FileKind::Bin;
    }
    FileKind::Lib
}

/// One finding at a source position.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// What happened and what to do instead.
    pub message: String,
}

impl Violation {
    /// Stable report line: `file:line: category[ID] message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {}[{}] {}",
            self.file,
            self.line,
            self.rule.category(),
            self.rule.id(),
            self.message
        )
    }
}

/// Everything the rules found in one file.
#[derive(Clone, Debug, Default)]
pub struct FileReport {
    /// Violations, sorted by `(line, rule)`; each one fails `--check`.
    pub violations: Vec<Violation>,
    /// Sites silenced by a verified pragma (for `--json` stats).
    pub suppressed: usize,
    /// gp-obs metric registrations, for the workspace-wide M1 check.
    pub metrics: Vec<MetricReg>,
}

/// Lint one file's source. `path` labels the findings and places A1;
/// the walker (see [`crate::runner`]) decides which paths get here.
pub fn lint_source(path: &str, kind: FileKind, source: &str) -> FileReport {
    let sc = scan(source);
    let mut rep = FileReport::default();

    // P1 first — a broken pragma must never silently un-suppress.
    for m in &sc.malformed {
        rep.violations.push(Violation {
            file: path.to_string(),
            line: m.line,
            rule: Rule::P1,
            message: m.why.clone(),
        });
    }
    for p in &sc.pragmas {
        for r in &p.rules {
            if !Rule::suppressible().contains(&r.as_str()) {
                rep.violations.push(Violation {
                    file: path.to_string(),
                    line: p.line,
                    rule: Rule::P1,
                    message: format!(
                        "pragma names unknown rule `{r}` — gp-lint checks D2, A1, C1 and M1; \
                         the generic rules are clippy lints, excused with \
                         #[expect(clippy::…, reason = \"…\")]"
                    ),
                });
            }
        }
    }
    if kind == FileKind::Harness {
        // Test/bench harnesses pin their own seeds and may panic freely;
        // only pragma hygiene applies there.
        return rep;
    }

    let chars: Vec<char> = sc.code.chars().collect();
    let lines = line_index(&chars);
    let words = collect_words(&chars);

    let push = |rep: &mut FileReport, rule: Rule, line: usize, msg: String| {
        if sc.is_test_line(line) {
            return;
        }
        if sc.suppressed_lines(rule.id()).contains(&line) {
            rep.suppressed += 1;
            return;
        }
        rep.violations.push(Violation {
            file: path.to_string(),
            line,
            rule,
            message: msg,
        });
    };

    for line in d2_hits(&chars, &lines, &words) {
        push(
            &mut rep,
            Rule::D2,
            line,
            "partial_cmp in a comparator (or bare-unwrapped): NaN makes the order \
             input-dependent or panics; use f32::total_cmp or gp_tensor::rank_asc/rank_desc"
                .to_string(),
        );
    }
    // A1 applies to libraries AND binaries: intrinsics in a bin would
    // dodge runtime feature detection just as badly. The backend module
    // is the one sanctioned home.
    if !path
        .replace('\\', "/")
        .contains("crates/tensor/src/backend")
    {
        for (line, tok) in a1_hits(&chars, &lines, &words) {
            push(
                &mut rep,
                Rule::A1,
                line,
                format!(
                    "`{tok}` outside crates/tensor/src/backend — route SIMD through the \
                     gp_tensor ComputeBackend (runtime feature detection + scalar fallback) \
                     or justify with `// gp-lint: allow(A1) — <reason>`"
                ),
            );
        }
    }
    let facts = facts::from_scanned(&sc, source);
    for f in &facts.fns {
        for a in f.acquires.iter().filter(|a| !a.held.is_empty()) {
            push(
                &mut rep,
                Rule::C1,
                a.line,
                format!(
                    "`{}` locks `{}` while still holding `{}` — a second fn taking the \
                     pair in the opposite order deadlocks; take one lock at a time or \
                     justify the order with `// gp-lint: allow(C1) — <reason>`",
                    f.name,
                    a.lock,
                    a.held.join("`, `")
                ),
            );
        }
    }
    rep.metrics = facts.metrics;
    // Detectors run rule-by-rule, so line order needs restoring before
    // anything downstream sees the report.
    rep.violations.sort_by_key(|a| (a.line, a.rule));
    rep
}

// ---------------------------------------------------------------------------
// Lexical helpers over stripped code.

/// Per-char 1-based line numbers.
pub(crate) fn line_index(chars: &[char]) -> Vec<usize> {
    let mut out = Vec::with_capacity(chars.len());
    let mut line = 1usize;
    for &c in chars {
        out.push(line);
        if c == '\n' {
            line += 1;
        }
    }
    out
}

/// `(start, end)` index ranges of identifier-ish words.
pub(crate) fn collect_words(chars: &[char]) -> Vec<(usize, usize)> {
    let mut words = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        if chars[i].is_alphanumeric() || chars[i] == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            words.push((start, i));
        } else {
            i += 1;
        }
    }
    words
}

pub(crate) fn word_at(chars: &[char], w: (usize, usize)) -> String {
    chars[w.0..w.1].iter().collect::<String>()
}

pub(crate) fn line_of(lines: &[usize], idx: usize) -> usize {
    lines.get(idx).copied().unwrap_or(1)
}

/// Next non-whitespace char at or after `i`.
pub(crate) fn next_nonws(chars: &[char], mut i: usize) -> Option<(usize, char)> {
    while i < chars.len() {
        if !chars[i].is_whitespace() {
            return Some((i, chars[i]));
        }
        i += 1;
    }
    None
}

/// Index of the closer matching the opener at `chars[i]` (or `len` if
/// unbalanced).
pub(crate) fn matching(chars: &[char], mut i: usize, open: char, close: char) -> usize {
    let mut depth = 0usize;
    while i < chars.len() {
        if chars[i] == open {
            depth += 1;
        } else if chars[i] == close {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    chars.len()
}

/// Previous non-whitespace char strictly before `i`.
pub(crate) fn prev_nonws(chars: &[char], i: usize) -> Option<(usize, char)> {
    let mut j = i;
    while j > 0 {
        j -= 1;
        if !chars[j].is_whitespace() {
            return Some((j, chars[j]));
        }
    }
    None
}

// ---------------------------------------------------------------------------
// D2 — partial_cmp in comparators.

const D2_SORTERS: &[&str] = &[
    "sort_by(",
    "sort_unstable_by(",
    "max_by(",
    "min_by(",
    "binary_search_by(",
];

fn d2_hits(chars: &[char], lines: &[usize], words: &[(usize, usize)]) -> Vec<usize> {
    let mut hits = Vec::new();
    for &w in words {
        if word_at(chars, w) != "partial_cmp" {
            continue;
        }
        let line = line_of(lines, w.0);
        // (a) inside a sorting comparator: a sorter call opens within a
        // bounded backward window (closures are short; 250 chars spans
        // any realistic comparator header). The window stops at the
        // nearest statement/block boundary so a standalone partial_cmp
        // that merely *follows* an unrelated sort is not implicated.
        let mut back_start = w.0.saturating_sub(250);
        for j in (back_start..w.0).rev() {
            if matches!(chars[j], ';' | '{' | '}') {
                back_start = j + 1;
                break;
            }
        }
        let window: String = chars[back_start..w.0].iter().collect();
        if D2_SORTERS.iter().any(|s| window.contains(s)) {
            hits.push(line);
            continue;
        }
        // (b) bare `.partial_cmp(..).unwrap()/expect()/unwrap_or(..)`:
        // skip the balanced argument list, then look at the next method.
        let Some((open, '(')) = next_nonws(chars, w.1) else {
            continue;
        };
        let j = matching(chars, open, '(', ')');
        if j >= chars.len() {
            continue;
        }
        if let Some((dot, '.')) = next_nonws(chars, j + 1) {
            let after: String = chars[dot + 1..(dot + 12).min(chars.len())].iter().collect();
            if after.starts_with("unwrap") || after.starts_with("expect") {
                hits.push(line);
            }
        }
    }
    hits
}

// ---------------------------------------------------------------------------
// A1 — architecture intrinsics outside the tensor backend module.

fn a1_hits(chars: &[char], lines: &[usize], words: &[(usize, usize)]) -> Vec<(usize, String)> {
    let mut hits = Vec::new();
    for (wi, &w) in words.iter().enumerate() {
        let name = word_at(chars, w);
        if name != "std" && name != "core" {
            continue;
        }
        let Some(&next) = words.get(wi + 1) else {
            continue;
        };
        let sep: String = chars[w.1..next.0]
            .iter()
            .collect::<String>()
            .trim()
            .to_string();
        if sep == "::" && word_at(chars, next) == "arch" {
            hits.push((line_of(lines, w.0), format!("{name}::arch")));
        }
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_lib(src: &str) -> FileReport {
        lint_source("x/src/lib.rs", FileKind::Lib, src)
    }

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/core/src/selector.rs"), FileKind::Lib);
        assert_eq!(classify("src/bin/gp.rs"), FileKind::Bin);
        assert_eq!(classify("crates/lint/src/main.rs"), FileKind::Bin);
        assert_eq!(classify("tests/pipeline.rs"), FileKind::Harness);
        assert_eq!(
            classify("crates/core/benches/infer_bench.rs"),
            FileKind::Harness
        );
    }

    #[test]
    fn d2_flags_partial_cmp_in_sort_and_bare_unwrap() {
        let src = "fn f(v: &mut Vec<f32>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)); }\n";
        let rep = lint_lib(src);
        assert_eq!(rep.violations.len(), 1);
        assert_eq!(rep.violations[0].rule, Rule::D2);

        let bare = "fn g(a: f32, b: f32) -> std::cmp::Ordering { a.partial_cmp(&b).unwrap() }\n";
        let rep2 = lint_lib(bare);
        assert_eq!(rep2.violations.len(), 1);
        assert_eq!(rep2.violations[0].rule, Rule::D2);
    }

    #[test]
    fn d2_allows_total_cmp_and_standalone_partial_cmp() {
        let src = "fn f(v: &mut Vec<f32>) { v.sort_by(|a, b| a.total_cmp(b)); }\n\
                   fn g(a: f32, b: f32) -> Option<std::cmp::Ordering> { a.partial_cmp(&b) }\n";
        let rep = lint_lib(src);
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);
    }

    #[test]
    fn a1_flags_arch_intrinsics_outside_backend() {
        let src = "use std::arch::x86_64::*;\nfn f() { core::arch::asm!(\"nop\"); }\n";
        let rep = lint_lib(src);
        assert_eq!(rep.violations.len(), 2, "{:?}", rep.violations);
        assert!(rep.violations.iter().all(|v| v.rule == Rule::A1));
        // Binaries are NOT exempt — intrinsics there dodge detection too.
        let bin = lint_source("src/bin/gp.rs", FileKind::Bin, src);
        assert_eq!(bin.violations.len(), 2, "{:?}", bin.violations);
        // Harness code may poke at intrinsics for test scaffolding.
        let harness = lint_source("tests/x.rs", FileKind::Harness, src);
        assert!(harness.violations.is_empty(), "{:?}", harness.violations);
    }

    #[test]
    fn a1_exempts_the_tensor_backend_module() {
        let src = "#[cfg(target_arch = \"x86_64\")]\nuse std::arch::x86_64::*;\n";
        for path in [
            "crates/tensor/src/backend/fast.rs",
            "crates/tensor/src/backend/mod.rs",
        ] {
            let rep = lint_source(path, FileKind::Lib, src);
            assert!(rep.violations.is_empty(), "{path}: {:?}", rep.violations);
        }
        // The rest of gp-tensor is not exempt.
        let rep = lint_source("crates/tensor/src/tensor.rs", FileKind::Lib, src);
        assert_eq!(rep.violations.len(), 1, "{:?}", rep.violations);
        assert_eq!(rep.violations[0].rule, Rule::A1);
    }

    #[test]
    fn a1_is_suppressible_with_a_reason() {
        let src = "// gp-lint: allow(A1) — cpuid probe only, no numerics\n\
                   fn f() { std::arch::x86_64::__cpuid(0); }\n";
        let rep = lint_lib(src);
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);
        assert_eq!(rep.suppressed, 1);
    }

    #[test]
    fn c1_flags_a_lock_taken_under_another_guard() {
        let src = "impl P {\n\
                   fn ab(&self) { let g = self.a.lock().unwrap();\n\
                   let h = self.b.lock().unwrap(); drop(h); drop(g); }\n\
                   fn one_at_a_time(&self) { let g = self.a.lock().unwrap(); drop(g);\n\
                   let h = self.b.lock().unwrap(); drop(h); }\n\
                   }\n";
        let rep = lint_lib(src);
        assert_eq!(rep.violations.len(), 1, "{:?}", rep.violations);
        let v = &rep.violations[0];
        assert_eq!((v.rule, v.line), (Rule::C1, 3));
        assert!(
            v.message
                .contains("`ab` locks `self.b` while still holding `self.a`"),
            "{}",
            v.message
        );
    }

    #[test]
    fn c1_pragma_suppresses_and_counts() {
        let src = "fn bad(&self) { let a = self.aux.lock().unwrap();\n\
                   // gp-lint: allow(C1) - aux is always taken first; nothing locks it under m\n\
                   let g = self.m.lock().unwrap(); drop(g); drop(a); }\n";
        let rep = lint_lib(src);
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);
        assert_eq!(rep.suppressed, 1);
    }

    #[test]
    fn c1_coalescer_shape_is_clean() {
        // leader/follower: the guard moves into helpers and waits; no
        // second lock is ever taken under it — mirrors
        // crates/serve/src/coalesce.rs
        let src = "impl C {\n\
                   fn lock(&self) -> MutexGuard<'_, St> { self.state.lock().unwrap() }\n\
                   fn wait<'a>(&'a self, g: MutexGuard<'a, St>, d: Duration) -> MutexGuard<'a, St> { self.cv.wait_timeout(g, d).unwrap().0 }\n\
                   fn submit(&self) { let st = self.lock(); self.lead(st); }\n\
                   fn lead(&self, mut st: MutexGuard<'_, St>) { st = self.wait(st, D); drop(st); let mut st = self.lock(); drop(st); }\n\
                   }\n";
        let rep = lint_lib(src);
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);
    }

    #[test]
    fn c1_flags_a_second_guard_held_across_a_wait() {
        // Waiting on `m` while `aux` is held starts by locking `m` under
        // `aux`: that nesting alone fails.
        let src = "impl W { fn bad(&self) { let a = self.aux.lock().unwrap();\n\
                   let mut g = self.m.lock().unwrap(); g = self.cv.wait(g).unwrap(); drop(g); drop(a); } }\n";
        let rep = lint_lib(src);
        assert_eq!(rep.violations.len(), 1, "{:?}", rep.violations);
        let v = &rep.violations[0];
        assert_eq!((v.rule, v.line), (Rule::C1, 2));
        assert!(v
            .message
            .contains("locks `self.m` while still holding `self.aux`"));
    }

    #[test]
    fn p1_fires_for_missing_reason_and_unknown_rule() {
        let src = "// gp-lint: allow(D2)\nfn f() {}\n// gp-lint: allow(Z9) — whatever\n";
        let rep = lint_lib(src);
        assert_eq!(rep.violations.len(), 2, "{:?}", rep.violations);
        assert!(rep.violations.iter().all(|v| v.rule == Rule::P1));
    }

    #[test]
    fn p1_applies_even_in_harness_files() {
        let src = "// gp-lint: allow(D2)\nfn t() {}\n";
        let rep = lint_source("tests/x.rs", FileKind::Harness, src);
        assert_eq!(rep.violations.len(), 1);
        assert_eq!(rep.violations[0].rule, Rule::P1);
    }

    #[test]
    fn rule_mentions_in_comments_and_strings_do_not_fire() {
        let src = "// partial_cmp and std::arch and x.lock() under a guard\n\
                   fn f() -> &'static str { \"sort_by(|a, b| a.partial_cmp(b).unwrap()) core::arch\" }\n";
        let rep = lint_lib(src);
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);
    }

    #[test]
    fn render_is_stable_format() {
        let v = Violation {
            file: "crates/core/src/selector.rs".into(),
            line: 42,
            rule: Rule::D2,
            message: "msg".into(),
        };
        assert_eq!(
            v.render(),
            "crates/core/src/selector.rs:42: determinism[D2] msg"
        );
    }

    // D1, D4, R1, B1 and O1 are clippy's now (`clippy.toml` bans and CI's
    // `$LIB_LINTS`). These hold clippy to the fixture crate in
    // `tests/fixtures/clippy`: each `// lint: <key>` site must be
    // reported, and the sites named here must stay clean.
    use crate::clippy_fixture::{assert_clean, assert_family, reported};

    const R1: &[&str] = &[
        "unwrap_used",
        "expect_used",
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
    ];

    /// `--lib` leaves the fixture's binary out of the library-only lints.
    fn assert_no_bin_sites() {
        if let Some(r) = reported() {
            assert!(
                r.iter().all(|(_, k)| !k.starts_with("src/main.rs")),
                "{r:?}"
            );
        }
    }

    #[test]
    fn d1_flags_bound_map_iteration() {
        assert_family(|k| k.starts_with("std::collections::Hash"));
    }

    #[test]
    fn d1_flags_constructor_binding_and_for_loop() {
        assert_family(|k| k == "iter_over_hash_type");
    }

    #[test]
    fn d1_ignores_vec_iteration_and_other_crates() {
        // The result-affecting crate list is gone (the ban is global);
        // ordered iteration and point lookups stay clean.
        assert_clean(&["v.iter().sum()", "self.by_node.get(&id)"]);
    }

    #[test]
    fn d1_pragma_suppresses_with_reason() {
        assert_clean(&["hash order never escapes", "seen.iter().copied()"]);
    }

    #[test]
    fn d4_flags_wall_clock_in_result_affecting_lib_only() {
        // Every crate now; timing code carries a reasoned #[expect].
        assert_family(|k| k.starts_with("std::time::"));
        assert_clean(&["diagnostics field only", "SystemTime::now().duration_since"]);
    }

    #[test]
    fn r1_counts_panicking_constructs_with_word_boundaries() {
        assert_family(|k| R1.contains(&k));
        assert_clean(&["o.unwrap_or(0)"]);
    }

    #[test]
    fn r1_ignores_test_code_and_bins() {
        assert_clean(&["Some(2u32).unwrap()"]);
        assert_no_bin_sites();
    }

    #[test]
    fn b1_flags_unbounded_channel_and_vecdeque() {
        assert_family(|k| {
            k == "std::sync::mpsc::channel" || k == "std::collections::VecDeque::new"
        });
    }

    #[test]
    fn b1_allows_bounded_constructions() {
        assert_clean(&["mpsc::sync_channel::<u32>(8)", "VecDeque::with_capacity(8)"]);
    }

    #[test]
    fn b1_ignores_harness_bins_and_unqualified_channel() {
        // The ban covers every target now (harness and bin sites carry
        // #[expect]); a local fn merely named `channel` is not the
        // banned path.
        assert_clean(&["q.capacity() + channel()"]);
    }

    #[test]
    fn b1_pragma_suppresses_with_reason() {
        assert_clean(&["depth bounded by the pool budget", "mpsc::channel().1"]);
    }

    #[test]
    fn o1_flags_println_in_lib_not_bin() {
        assert_family(|k| k.starts_with("print_"));
        assert_no_bin_sites();
    }
}
