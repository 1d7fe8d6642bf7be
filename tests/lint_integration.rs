//! The repo's hazard checks end to end. Clippy over the deliberately
//! dirty fixture crate in `tests/fixtures/clippy` (see
//! `support/clippy_fixture.rs`): every site the fixture marks
//! `// lint: <key>` must be reported, and nothing else. And the ranked
//! mutex of `gp_obs::sync` over small lock-order fixtures, which panic in
//! debug builds (as under `cargo test`).
//!
//! The per-rule checks of the fixture crate are the root crate's `rules`
//! unit tests.

#[path = "support/clippy_fixture.rs"]
mod clippy_fixture;
#[path = "support/lock_order.rs"]
mod lock_order;

use clippy_fixture::{
    assert_clean, assert_family, assert_no_bin_sites, marked, reported, reported_at,
};
use gp_obs::sync::{Mutex, Rank};
use lock_order::assert_rank_violation;
use std::sync::Condvar;
use std::time::Duration;

/// The `#[expect]` on the first fixture line containing `stale` is
/// reported as unfulfilled; the lines containing `live` stay clean.
fn assert_ratchets(stale: &str, live: &[&str]) {
    if let Some(keys) = reported_at(stale) {
        assert_eq!(keys, ["unfulfilled_lint_expectations"]);
    }
    assert_clean(live);
}

#[test]
fn clippy_fixture_reports_exactly_the_marked_sites() {
    if let Some(reported) = reported() {
        assert_eq!(reported, &marked());
    }
}

#[test]
fn catches_partial_cmp_sorts_in_fixture() {
    // sort_by and max_by comparators, a UFCS call and a bare
    // comparison; total_cmp and `>` stay clean.
    assert_family(|k| k == "core::cmp::PartialOrd::partial_cmp");
}

#[test]
fn catches_raw_mutexes_in_fixture() {
    // A `static` initialiser and a `.map(Mutex::new)` both need a rank.
    assert_family(|k| k == "std::sync::Mutex::new");
}

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
    // An exception without a reason, or naming no real lint, is an
    // error in its own right.
    assert_family(|k| k == "allow_attributes_without_reason" || k == "unknown_lints");
}

#[test]
fn fixtures_are_rule_free_when_linted_as_harness_code() {
    // The library-only lints leave the fixture's test module and its
    // binary alone: their unwraps, discards and prints are fine there.
    assert_clean(&["let _ = \"x\".parse::<u32>();", "Some(2u32).unwrap()"]);
    assert_no_bin_sites();
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

// ---------------------------------------------------------------------------
// Lock order: the ranked mutex over lock-order fixtures.

/// Two locks of the hierarchy, and the two halves of a lock cycle as two
/// source files would hold them: each nests one lock under the other.
struct Pair {
    sessions: Mutex<u32>,
    store: Mutex<u32>,
}

mod cycle_a {
    pub fn sessions_then_store(p: &super::Pair) -> u32 {
        let s = p.sessions.lock();
        let t = p.store.lock();
        *s + *t
    }
}

mod cycle_b {
    pub fn store_then_sessions(p: &super::Pair) -> u32 {
        let t = p.store.lock();
        let s = p.sessions.lock();
        *s + *t
    }
}

#[test]
fn catches_two_file_lock_cycle_in_fixtures() {
    // No cross-file view is needed: the half that nests against the
    // ranks fails on its own, the first time it runs.
    let p = Pair {
        sessions: Mutex::new(Rank::Sessions, 1),
        store: Mutex::new(Rank::EmbeddingStore, 2),
    };
    assert_eq!(cycle_a::sessions_then_store(&p), 3);
    assert_rank_violation("acquiring Sessions while holding EmbeddingStore", || {
        assert_eq!(cycle_b::store_then_sessions(&p), 3);
    });
}

/// A condvar wait that re-acquires one lock while a guard of a different
/// lock stays live: a notifier that needs `stats` can never wake it.
struct Queue {
    stats: Mutex<u64>,
    items: Mutex<Vec<u32>>,
    ready: Condvar,
}

impl Queue {
    fn drain_counted(&self) -> u64 {
        let mut count = self.stats.lock();
        let mut g = self.items.lock();
        if g.is_empty() {
            g = g.wait_timeout(&self.ready, Duration::from_millis(1));
        }
        *count += g.len() as u64;
        g.clear();
        *count
    }
}

#[test]
fn catches_wait_holding_second_guard_in_fixture() {
    let q = Queue {
        stats: Mutex::new(Rank::Sessions, 0),
        items: Mutex::new(Rank::AdmissionQueue, Vec::new()),
        ready: Condvar::new(),
    };
    assert_rank_violation(
        "condvar wait on AdmissionQueue while holding [Sessions]",
        || {
            assert_eq!(q.drain_counted(), 0);
        },
    );
}
