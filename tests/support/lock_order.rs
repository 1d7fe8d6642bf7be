//! Runs a lock-order fixture against the ranked mutex of `gp_obs::sync`.
//! Shared by the root crate's `rules` unit tests and
//! `tests/lint_integration.rs`.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// `f` trips the ranked mutex's check, with a message containing
/// `expected`, in debug builds; release builds compile the check out, so
/// there `f` runs clean.
pub fn assert_rank_violation(expected: &str, f: impl FnOnce()) {
    let message = catch_unwind(AssertUnwindSafe(f)).err().map(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    });
    if cfg!(debug_assertions) {
        let message = message.expect("no lock order violation");
        assert!(message.contains(expected), "{message}");
    } else {
        assert_eq!(message, None);
    }
}
