//! Property tests for the token scanner: on *arbitrary* input — not
//! just valid Rust — scanning never panics, preserves line structure,
//! and is idempotent (stripped output re-strips to itself); the rule
//! pass and fact extraction never panic either.

use gp_lint::{extract, lint_source, scan, FileKind};
use gp_tensor::rng::check;

#[path = "support/soup.rs"]
mod soup;
use soup::{soup, FACT_ATOMS, SCANNER_ATOMS};

#[test]
fn scan_never_panics_and_preserves_lines() {
    check(256, |rng| {
        let src = soup(rng, SCANNER_ATOMS);
        let out = scan(&src);
        assert_eq!(
            out.code.chars().filter(|&c| c == '\n').count(),
            src.chars().filter(|&c| c == '\n').count(),
            "stripping must keep the newline structure"
        );
        assert_eq!(
            out.in_test.len(),
            src.chars().filter(|&c| c == '\n').count() + 1,
            "one test-region flag per line"
        );
    });
}

#[test]
fn scan_is_idempotent() {
    check(256, |rng| {
        let once = scan(&soup(rng, SCANNER_ATOMS));
        let twice = scan(&once.code);
        assert_eq!(&once.code, &twice.code);
        assert_eq!(&once.in_test, &twice.in_test);
    });
}

#[test]
fn lint_never_panics_on_soup() {
    check(256, |rng| {
        // Full rule pass on garbage: must terminate without panicking,
        // for every file kind.
        let src = soup(rng, SCANNER_ATOMS);
        for kind in [FileKind::Lib, FileKind::Bin, FileKind::Harness] {
            let _ = lint_source("soup.rs", kind, &src);
        }
    });
}

#[test]
fn fact_extraction_never_panics_and_is_deterministic() {
    check(256, |rng| {
        // Extraction on garbage must terminate, and two extractions of
        // the same bytes must agree fact-for-fact (C1 and M1 reports
        // depend on that stability). Extracting from the stripped code
        // finds the same functions: stripping only blanks literals.
        let src = soup(rng, FACT_ATOMS);
        let facts = extract(&src);
        assert_eq!(facts, extract(&src));
        let stripped = extract(&scan(&src).code);
        assert_eq!(facts.fns, stripped.fns);
        assert_eq!(facts.metrics.len(), stripped.metrics.len());
    });
}

#[test]
fn fact_extraction_never_panics_on_scanner_soup() {
    check(256, |rng| {
        // The scanner-focused soup exercises string/comment edge cases
        // the fact soup does not.
        let f = extract(&soup(rng, SCANNER_ATOMS));
        assert!(f.fns.iter().all(|g| !g.name.is_empty()));
    });
}
