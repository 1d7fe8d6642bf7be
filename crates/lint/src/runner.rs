//! Workspace walker, the M1 manifest check, reports and the CLI.
//!
//! Library-side everything is pure: [`run`] returns an [`Outcome`] and
//! [`run_cli`] returns `(report_text, exit_code)` — printing is the
//! binary's job, and every fallible step routes through
//! `Result<_, String>`. The walker lints each file with
//! [`crate::rules::lint_source`] and then checks the metric names the
//! files registered against the committed `METRICS.md`.

use std::fs;
use std::path::{Path, PathBuf};

use crate::facts::MetricReg;
use crate::rules::{classify, lint_source, Rule, Violation, ALL_RULES};

/// Name of the committed metric manifest M1 checks, at the workspace
/// root.
pub const METRICS_FILE: &str = "METRICS.md";

/// What to lint.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workspace root (autodetected from cwd when not given).
    pub root: PathBuf,
    /// Only report findings in files changed since this git ref. The
    /// whole workspace is still analyzed (M1 needs every file).
    pub changed: Option<String>,
}

/// Everything one lint run produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Violations sorted by `(file, line, rule)` so output is
    /// byte-stable across runs.
    pub violations: Vec<Violation>,
    /// Total sites silenced by verified pragmas.
    pub suppressed: usize,
    /// Number of `.rs` files linted.
    pub files_scanned: usize,
}

impl Outcome {
    /// Did the run pass (no violations)?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Lint every `.rs` file under `opts.root` (skipping `target/`, dot
/// directories and the linter's own fixture corpus), then run the M1
/// manifest check over every registered metric.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut metrics: Vec<(String, MetricReg)> = Vec::new();
    for path in collect_rs_files(&opts.root)? {
        let rel = rel_label(&opts.root, &path);
        let source =
            fs::read_to_string(&path).map_err(|e| format!("gp-lint: cannot read {rel}: {e}"))?;
        let rep = lint_source(&rel, classify(&rel), &source);
        out.files_scanned += 1;
        out.suppressed += rep.suppressed;
        out.violations.extend(rep.violations);
        metrics.extend(rep.metrics.into_iter().map(|m| (rel.clone(), m)));
    }

    check_metrics_manifest(&opts.root, &metrics, &mut out);

    if let Some(git_ref) = &opts.changed {
        let changed = changed_files(&opts.root, git_ref)?;
        out.violations.retain(|v| changed.contains(&v.file));
    }

    out.violations
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(out)
}

/// Repo-relative paths changed since `git_ref`, from `git diff
/// --name-only` plus untracked files (a brand-new file must not dodge
/// a pre-commit lint).
fn changed_files(root: &Path, git_ref: &str) -> Result<Vec<String>, String> {
    let mut out: Vec<String> = Vec::new();
    for args in [
        vec!["diff", "--name-only", git_ref, "--"],
        vec!["ls-files", "--others", "--exclude-standard"],
    ] {
        let cmd = std::process::Command::new("git")
            .args(&args)
            .current_dir(root)
            .output()
            .map_err(|e| format!("gp-lint: cannot run git for --changed: {e}"))?;
        if !cmd.status.success() {
            return Err(format!(
                "gp-lint: git {} failed: {}",
                args.join(" "),
                String::from_utf8_lossy(&cmd.stderr).trim()
            ));
        }
        for line in String::from_utf8_lossy(&cmd.stdout).lines() {
            let line = line.trim();
            if !line.is_empty() {
                out.push(line.replace('\\', "/"));
            }
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

/// M1: every metric name registered via gp-obs appears in the committed
/// `METRICS.md` and vice versa. `registered` pairs each registration
/// with its file.
fn check_metrics_manifest(root: &Path, registered: &[(String, MetricReg)], out: &mut Outcome) {
    if registered.is_empty() {
        return;
    }
    let Ok(text) = fs::read_to_string(root.join(METRICS_FILE)) else {
        out.violations.push(Violation {
            file: METRICS_FILE.to_string(),
            line: 1,
            rule: Rule::M1,
            message: format!(
                "{} metric names are registered but {METRICS_FILE} does not exist — \
                 commit the manifest (name, type, subsystem, meaning per metric)",
                registered.len()
            ),
        });
        return;
    };
    let manifest = manifest_metric_names(&text);
    for (file, m) in registered {
        if manifest.iter().any(|(n, _)| *n == m.name) {
            continue;
        }
        if m.allowed {
            out.suppressed += 1;
            continue;
        }
        out.violations.push(Violation {
            file: file.clone(),
            line: m.line,
            rule: Rule::M1,
            message: format!(
                "{} `{}` is registered but missing from {METRICS_FILE} — \
                 document it (or justify with `// gp-lint: allow(M1) — <reason>`)",
                m.kind, m.name
            ),
        });
    }
    for (name, line) in &manifest {
        if registered.iter().any(|(_, m)| m.name == *name) {
            continue;
        }
        out.violations.push(Violation {
            file: METRICS_FILE.to_string(),
            line: *line,
            rule: Rule::M1,
            message: format!(
                "`{name}` is documented in {METRICS_FILE} but no code registers it — \
                 remove the stale manifest row"
            ),
        });
    }
}

/// Metric names out of the manifest: the first cell of each markdown
/// table row, backticks stripped; header and separator rows skipped.
fn manifest_metric_names(text: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let Some(rest) = line.strip_prefix('|') else {
            continue;
        };
        let Some(cell) = rest.split('|').next() else {
            continue;
        };
        let name = cell.trim().trim_matches('`').trim();
        if name.is_empty()
            || name.chars().all(|c| c == '-' || c == ':' || c == ' ')
            || name.eq_ignore_ascii_case("name")
            || name.eq_ignore_ascii_case("metric")
        {
            continue;
        }
        out.push((name.to_string(), i + 1));
    }
    out
}

/// Repo-relative, `/`-separated label for reports.
fn rel_label(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// All `.rs` files under `root`, deterministically sorted. Skips
/// `target/`, dot-directories and `crates/lint/tests/fixtures` (the
/// deliberately-dirty corpus the integration tests lint by hand).
fn collect_rs_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let rd = fs::read_dir(&dir)
            .map_err(|e| format!("gp-lint: cannot list {}: {e}", dir.display()))?;
        for entry in rd {
            let path = entry
                .map_err(|e| format!("gp-lint: walk error in {}: {e}", dir.display()))?
                .path();
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if path.is_dir() {
                if name != "target"
                    && !name.starts_with('.')
                    && rel_label(root, &path) != "crates/lint/tests/fixtures"
                {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

// ---------------------------------------------------------------------------
// Reports.

/// Stable text report: sorted violations, then a summary line.
pub fn render_text(out: &Outcome) -> String {
    let mut s = String::new();
    for v in &out.violations {
        s.push_str(&v.render());
        s.push('\n');
    }
    if out.ok() {
        s.push_str(&format!(
            "gp-lint: clean — {} files, {} suppressed sites\n",
            out.files_scanned, out.suppressed
        ));
    } else {
        s.push_str(&format!(
            "gp-lint: {} violations in {} files\n",
            out.violations.len(),
            out.files_scanned
        ));
    }
    s
}

/// Hand-rolled JSON report (the linter is dependency-free by design).
pub fn render_json(out: &Outcome) -> String {
    let mut s = String::from("{\n  \"ok\": ");
    s.push_str(if out.ok() { "true" } else { "false" });
    s.push_str(&format!(
        ",\n  \"files_scanned\": {},\n  \"suppressed\": {},\n  \"violations\": [",
        out.files_scanned, out.suppressed
    ));
    for (i, v) in out.violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"category\": {}, \"message\": {}}}",
            json_str(&v.file),
            v.line,
            json_str(v.rule.id()),
            json_str(v.rule.category()),
            json_str(&v.message)
        ));
    }
    s.push_str("\n  ]\n}\n");
    s
}

/// SARIF 2.1.0 report for CI code-scanning upload. Hand-rolled like
/// [`render_json`]; the shape matches what
/// `github/codeql-action/upload-sarif` consumes: one run, one driver,
/// a rule table, and `results` with physical locations.
pub fn render_sarif(out: &Outcome) -> String {
    let mut s = String::from(
        "{\n  \"version\": \"2.1.0\",\n  \"$schema\": \
         \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \"runs\": [\n    {\n      \
         \"tool\": {\n        \"driver\": {\n          \"name\": \"gp-lint\",\n          \
         \"informationUri\": \"https://github.com/graphprompter/graphprompter\",\n          \
         \"rules\": [",
    );
    for (i, r) in ALL_RULES.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}}}",
            json_str(r.id()),
            json_str(r.describe())
        ));
    }
    s.push_str("\n          ]\n        }\n      },\n      \"results\": [");
    for (i, v) in out.violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n        {{\"ruleId\": {}, \"level\": \"error\", \"message\": {{\"text\": {}}}, \
             \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": {}}}, \
             \"region\": {{\"startLine\": {}}}}}}}]}}",
            json_str(v.rule.id()),
            json_str(&v.message),
            json_str(&v.file),
            v.line.max(1)
        ));
    }
    s.push_str("\n      ]\n    }\n  ]\n}\n");
    s
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------------
// CLI.

const USAGE: &str = "\
gp-lint — GraphPrompter's repo-specific linter (zero deps); the generic
rules (hash-order iteration, wall clock, panics, unbounded queues, stdout,
discarded results) are clippy lints run by CI

USAGE:
    gp-lint [--check] [--json] [--sarif] [--changed <ref>] [--root <dir>]
            [--list-rules]

    --check              lint and exit nonzero on violations (default)
    --json               machine-readable report
    --sarif              SARIF 2.1.0 report (CI code-scanning upload)
    --changed <ref>      report only findings in files changed since <ref>
                         (the whole workspace is still analyzed)
    --root <dir>         workspace root (default: autodetect from cwd)
    --list-rules         print the rule table and exit
";

/// Parse args and run. Returns `(text_to_print, exit_code)`; the binary
/// prints — the library never touches stdout.
pub fn run_cli(args: &[String]) -> (String, i32) {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut sarif = false;
    let mut changed: Option<String> = None;
    let mut i = 0usize;
    while i < args.len() {
        match args[i].as_str() {
            "--check" => {}
            "--json" => json = true,
            "--sarif" => sarif = true,
            "--changed" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    return (format!("gp-lint: --changed needs a git ref\n{USAGE}"), 2);
                };
                changed = Some(v.clone());
            }
            "--root" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    return (format!("gp-lint: --root needs a value\n{USAGE}"), 2);
                };
                root = Some(PathBuf::from(v));
            }
            "--list-rules" => return (list_rules(), 0),
            "--help" | "-h" => return (USAGE.to_string(), 0),
            other => {
                return (format!("gp-lint: unknown argument `{other}`\n{USAGE}"), 2);
            }
        }
        i += 1;
    }
    let root = match root.map(Ok).unwrap_or_else(detect_root) {
        Ok(r) => r,
        Err(e) => return (format!("{e}\n"), 2),
    };
    match run(&Options { root, changed }) {
        Ok(out) => {
            let text = if sarif {
                render_sarif(&out)
            } else if json {
                render_json(&out)
            } else {
                render_text(&out)
            };
            (text, if out.ok() { 0 } else { 1 })
        }
        Err(e) => (format!("{e}\n"), 2),
    }
}

fn list_rules() -> String {
    let mut s = String::new();
    for r in ALL_RULES {
        s.push_str(&format!(
            "{:14}[{}] {}\n",
            r.category(),
            r.id(),
            r.describe()
        ));
    }
    s
}

/// Walk up from the cwd to the manifest that declares `[workspace]`.
fn detect_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("gp-lint: cannot determine cwd: {e}"))?;
    let mut dir = Some(cwd.as_path());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            let text = fs::read_to_string(&manifest)
                .map_err(|e| format!("gp-lint: cannot read {}: {e}", manifest.display()))?;
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Ok(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    Err("gp-lint: no workspace root found above the cwd (pass --root)".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn cli_rejects_unknown_flags() {
        for flag in ["--frobnicate", "--update-baseline", "--baseline"] {
            let (msg, code) = run_cli(&[flag.to_string()]);
            assert_eq!(code, 2, "{flag}");
            assert!(msg.contains("unknown argument"), "{msg}");
        }
    }

    #[test]
    fn cli_lists_rules() {
        let (msg, code) = run_cli(&["--list-rules".to_string()]);
        assert_eq!(code, 0);
        assert_eq!(msg.lines().count(), 5, "{msg}");
        for id in ["D2", "A1", "C1", "M1", "P1"] {
            assert!(msg.contains(&format!("[{id}]")), "missing {id}");
        }
    }

    #[test]
    fn manifest_names_parse_table_rows_only() {
        let md = "# Metrics\n\nprose mentioning `serve.fake` is ignored\n\n\
                  | Name | Type | Subsystem | Meaning |\n\
                  |------|------|-----------|---------|\n\
                  | `serve.accepted` | counter | gp-serve | accepted requests |\n\
                  | serve.rejected | counter | gp-serve | rejected requests |\n";
        let names = manifest_metric_names(md);
        assert_eq!(
            names,
            vec![
                ("serve.accepted".to_string(), 7),
                ("serve.rejected".to_string(), 8)
            ]
        );
    }

    #[test]
    fn sarif_shape_has_required_fields() {
        let out = Outcome {
            violations: vec![Violation {
                file: "crates/core/src/x.rs".into(),
                line: 3,
                rule: Rule::C1,
                message: "locks \"b\" under \"a\"".into(),
            }],
            ..Outcome::default()
        };
        let s = render_sarif(&out);
        for needle in [
            "\"version\": \"2.1.0\"",
            "\"$schema\"",
            "\"runs\"",
            "\"driver\"",
            "\"name\": \"gp-lint\"",
            "\"ruleId\": \"C1\"",
            "\"level\": \"error\"",
            "\"artifactLocation\"",
            "\"startLine\": 3",
        ] {
            assert!(s.contains(needle), "missing {needle} in {s}");
        }
    }
}
