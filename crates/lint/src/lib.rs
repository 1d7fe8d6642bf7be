//! **gp-lint** — GraphPrompter's zero-dependency linter for the
//! repo-specific invariants clippy cannot express: D2 (NaN-safe
//! comparators), A1 (`std::arch` confined to the tensor backend), C1 (no
//! nested locking within a function), M1 (`METRICS.md` drift) and P1
//! (pragma hygiene); see [`rules`] for the rationale. The generic
//! determinism and robustness rules are clippy lints and `clippy.toml`
//! bans that CI runs (README, "Static analysis").
//!
//! A hand-rolled token scanner ([`scanner::scan`]) walks every `.rs` file —
//! no `syn`, so the linter builds offline before anything else.
//! [`run_cli`] is what `gp-lint` and `gp lint` call; [`runner::run`]
//! returns the full [`runner::Outcome`]; [`rules::lint_source`] lints one
//! in-memory file; [`facts::extract`] yields the per-function lock facts
//! behind C1 and the metric registrations behind M1.

pub mod facts;
pub mod rules;
pub mod runner;
pub mod scanner;

#[cfg(test)]
#[path = "../tests/support/clippy_fixture.rs"]
mod clippy_fixture;
#[cfg(test)]
#[path = "../tests/support/soup.rs"]
mod soup;

pub use facts::{extract, FileFacts};
pub use rules::{classify, lint_source, FileKind, Rule, Violation};
pub use runner::{run, run_cli, Options, Outcome};
pub use scanner::{scan, Scanned};
