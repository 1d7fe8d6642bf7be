//! METRICS.md is the catalogue of every gp-obs instrument: a metric
//! registered in code must have a row there, and every row must name a
//! metric the code registers. Both drift directions fail this test.
//!
//! Registrations are read from the source text: the string literal passed
//! to `Counter::new(`, `Gauge::new(` or `Histogram::new(` in `src/` and
//! `crates/*/src/`. Comment lines (doc examples included) are skipped, and
//! so is each item gated by `#[cfg(test)]`, so test-only instruments need
//! no row.

#[path = "support/sources.rs"]
mod sources;

use std::collections::BTreeSet;

const CONSTRUCTORS: [&str; 3] = ["Counter::new(", "Gauge::new(", "Histogram::new("];

/// The trimmed non-comment lines of `src`, minus every `#[cfg(test)]`
/// item: the attribute and its item, up to the item's closing brace or
/// its `;` (braces are counted on the raw text).
fn non_test_lines(src: &str) -> Vec<&str> {
    let mut lines = src
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"));
    let mut kept = Vec::new();
    while let Some(line) = lines.next() {
        let Some(rest) = line.strip_prefix("#[cfg(test)]") else {
            kept.push(line);
            continue;
        };
        let mut depth = 0;
        let mut item = Some(rest.trim()).filter(|r| !r.is_empty());
        while let Some(l) = item.or_else(|| lines.next()) {
            item = None;
            depth += l.matches('{').count() as i64 - l.matches('}').count() as i64;
            if depth <= 0 && (l.ends_with(';') || l.ends_with('}')) {
                break;
            }
        }
    }
    kept
}

/// Metric names registered in one source file.
fn registered_in(src: &str) -> BTreeSet<String> {
    let lines = non_test_lines(src);
    let mut names = BTreeSet::new();
    for (i, line) in lines.iter().enumerate() {
        for ctor in CONSTRUCTORS {
            for (at, _) in line.match_indices(ctor) {
                // `Counter::new(`, not `MyCounter::new(`.
                let prev = line[..at].chars().next_back();
                if prev.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                    continue;
                }
                // rustfmt may move the literal to the next line.
                let mut arg = line[at + ctor.len()..].trim_start();
                if arg.is_empty() {
                    arg = lines.get(i + 1).copied().unwrap_or_default();
                }
                if let Some(name) = arg.strip_prefix('"').and_then(|a| a.split('"').next()) {
                    names.insert(name.to_string());
                }
            }
        }
    }
    names
}

/// The backticked first cell of every table row of METRICS.md.
fn documented_in(md: &str) -> BTreeSet<String> {
    md.lines()
        .filter_map(|l| l.trim().strip_prefix("| `")?.split('`').next())
        .map(String::from)
        .collect()
}

/// `(registered but not documented, documented but not registered)`.
fn drift(code: &BTreeSet<String>, md: &BTreeSet<String>) -> (Vec<String>, Vec<String>) {
    (
        code.difference(md).cloned().collect(),
        md.difference(code).cloned().collect(),
    )
}

#[test]
fn metrics_md_lists_exactly_the_registered_metrics() {
    let code: BTreeSet<String> = sources::library_sources()
        .iter()
        .flat_map(|(_, src)| registered_in(src))
        .collect();
    let md = concat!(env!("CARGO_MANIFEST_DIR"), "/METRICS.md");
    let md = std::fs::read_to_string(md).expect("read METRICS.md");
    let md = documented_in(&md);
    let (undocumented, stale) = drift(&code, &md);
    assert!(
        undocumented.is_empty(),
        "registered in code but missing from METRICS.md (add a row): {undocumented:?}"
    );
    assert!(
        stale.is_empty(),
        "METRICS.md rows no code registers (remove them): {stale:?}"
    );
}

#[test]
fn metric_manifest_drift_fails_both_directions() {
    let src = r#"
//! static DOC: gp_obs::Counter = gp_obs::Counter::new("doc.example");
static HITS: gp_obs::Counter = gp_obs::Counter::new("fixture.hits");
static SPLIT: gp_obs::Histogram =
    gp_obs::Histogram::new(
        "fixture.split_micros");
// static OLD: Gauge = Gauge::new("fixture.commented_out");
static LEVEL: LevelGauge = LevelGauge::new("fixture.not_gp_obs");
#[cfg(test)]
static PROBE: gp_obs::Counter = gp_obs::Counter::new("fixture.test_item");
#[cfg(test)]
fn probe() -> u64 {
    gp_obs::Counter::new("fixture.test_fn").get()
}
static LATE: gp_obs::Gauge = gp_obs::Gauge::new("fixture.after_test_items");

#[cfg(test)]
mod tests {
    static T: gp_obs::Gauge = gp_obs::Gauge::new("fixture.test_only");
}
"#;
    let code = registered_in(src);
    let names: Vec<&str> = code.iter().map(String::as_str).collect();
    assert_eq!(
        names,
        [
            "fixture.after_test_items",
            "fixture.hits",
            "fixture.split_micros"
        ]
    );

    let md = documented_in(
        "| Name | Type |\n|------|------|\n\
         | `fixture.hits` | counter |\n\
         | `fixture.ghost_total` | counter |\n",
    );
    let (undocumented, stale) = drift(&code, &md);
    assert_eq!(
        undocumented,
        ["fixture.after_test_items", "fixture.split_micros"]
    );
    assert_eq!(stale, ["fixture.ghost_total"]);

    let md = documented_in(
        "| `fixture.hits` | counter |\n| `fixture.split_micros` | histogram |\n\
         | `fixture.after_test_items` | gauge |\n",
    );
    assert_eq!(drift(&code, &md), (vec![], vec![]));
}
