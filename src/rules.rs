//! The determinism and safety rules of the README's "Static analysis &
//! determinism invariants" table, each held to the toolchain check that
//! enforces it: a `clippy.toml` ban or one of CI's `$LIB_LINTS` (checked
//! against the fixture crate in `tests/fixtures/clippy`), the workspace
//! lints table, or the ranked [`gp_obs::sync::Mutex`].

mod tests {
    use crate::clippy_fixture::{assert_clean, assert_family, assert_no_bin_sites};
    use crate::lock_order::assert_rank_violation;
    use gp_obs::sync::{Mutex, Rank};
    use std::path::Path;
    use std::sync::Condvar;
    use std::time::Duration;

    const R1: &[&str] = &[
        "unwrap_used",
        "expect_used",
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
    ];

    /// The `[lints.*]` (or `[workspace.lints.*]`) sections of a manifest,
    /// as `(section, line)` pairs.
    fn lints_table(manifest: &str, prefix: &str) -> Vec<(String, String)> {
        let mut section = String::new();
        let mut table = Vec::new();
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                section = line.to_string();
            } else if !line.is_empty() && !line.starts_with('#') {
                if let Some(kind) = section.strip_prefix(prefix) {
                    table.push((kind.to_string(), line.to_string()));
                }
            }
        }
        table
    }

    fn read(rel: &str) -> String {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
    }

    // D1 — hash-order iteration: `clippy.toml` bans plus
    // `iter_over_hash_type`.

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
        // The ban is global; ordered iteration and point lookups stay
        // clean.
        assert_clean(&["v.iter().sum()", "self.by_node.get(&id)"]);
    }

    #[test]
    fn d1_pragma_suppresses_with_reason() {
        assert_clean(&["hash order never escapes", "seen.iter().copied()"]);
    }

    // D2 — `partial_cmp`: the trait method is banned outright.

    #[test]
    fn d2_flags_partial_cmp_in_sort_and_bare_unwrap() {
        // Comparators, a UFCS call and a bare comparison; total_cmp and
        // `>` stay clean.
        assert_family(|k| k == "core::cmp::PartialOrd::partial_cmp");
        assert_clean(&["b.total_cmp(a)", "*x > 0.0"]);
    }

    // D4 — wall-clock reads.

    #[test]
    fn d4_flags_wall_clock_in_result_affecting_lib_only() {
        // Every crate now; timing code carries a reasoned #[expect].
        assert_family(|k| k.starts_with("std::time::"));
        assert_clean(&["diagnostics field only", "SystemTime::now().duration_since"]);
    }

    // R1 and O1 — library-only lints (`cargo clippy --lib`).

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
    fn o1_flags_println_in_lib_not_bin() {
        assert_family(|k| k.starts_with("print_"));
        assert_no_bin_sites();
    }

    // B1 — unbounded queues.

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
        // The ban covers every target (harness and bin sites carry
        // #[expect]); a local fn merely named `channel` is not the
        // banned path.
        assert_clean(&["q.capacity() + channel()"]);
    }

    #[test]
    fn b1_pragma_suppresses_with_reason() {
        assert_clean(&["depth bounded by the pool budget", "mpsc::channel().1"]);
    }

    // A1 — `unsafe_code = "deny"` in the workspace lints table.

    #[test]
    fn a1_flags_arch_intrinsics_outside_backend() {
        // Every unsafe block outside the fenced modules is flagged. Safe
        // SIMD in a `#[target_feature]` fn is not; `tests/arch_fence.rs`
        // keeps its `std::arch` paths in the backend.
        assert_family(|k| k == "unsafe_code");
        assert_clean(&["_mm_add_ps(_mm_set1_ps(1.0)"]);
    }

    #[test]
    fn a1_exempts_the_tensor_backend_module() {
        // One module-level #[expect] covers every block in the module.
        assert_clean(&["the SIMD kernels; each block", "unsafe { *v.as_ptr() }"]);
    }

    #[test]
    fn a1_is_suppressible_with_a_reason() {
        assert_clean(&[
            "one probe outside the backend",
            "v.get_unchecked(v.len() - 1)",
        ]);
    }

    // P1 — every exception names a real lint and says why.

    #[test]
    fn p1_fires_for_missing_reason_and_unknown_rule() {
        assert_family(|k| k == "allow_attributes_without_reason" || k == "unknown_lints");
    }

    #[test]
    fn p1_applies_even_in_harness_files() {
        // Cargo applies a member's lints table to all of its targets,
        // tests and benches included. Every member inherits the
        // workspace's, and the fixture crate carries the same one.
        let workspace = lints_table(&read("Cargo.toml"), "[workspace.lints.");
        assert!(workspace.contains(&(
            "clippy]".to_string(),
            "allow_attributes_without_reason = \"deny\"".to_string()
        )));
        assert!(workspace.contains(&("rust]".to_string(), "unsafe_code = \"deny\"".to_string())));
        assert_eq!(
            lints_table(&read("tests/fixtures/clippy/Cargo.toml"), "[lints."),
            workspace
        );
        let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
        let mut members = vec!["Cargo.toml".to_string()];
        for entry in std::fs::read_dir(crates).expect("list crates/") {
            let name = entry.expect("crates/ entry").file_name();
            members.push(format!("crates/{}/Cargo.toml", name.to_string_lossy()));
        }
        for member in members {
            let inherits = lints_table(&read(&member), "[lints");
            assert_eq!(
                inherits,
                [("]".to_string(), "workspace = true".to_string())],
                "{member}"
            );
        }
    }

    #[test]
    fn rule_mentions_in_comments_and_strings_do_not_fire() {
        assert_clean(&[
            "`Instant::now()` and `unsafe",
            "unsafe { Instant::now() }\"",
        ]);
    }

    // C1 — lock order: the ranked mutex, checked at runtime in debug
    // builds.

    #[test]
    fn c1_flags_a_lock_taken_under_another_guard() {
        // One lock at a time is fine; a registry lock taken inside
        // gp-obs under a guard held here is out of order.
        let histogram = Mutex::new(Rank::ObsHistogram, ());
        drop(histogram.lock());
        let _ = gp_obs::snapshot();
        assert_rank_violation("acquiring ObsRegistry while holding ObsHistogram", || {
            let _held = histogram.lock();
            let _ = gp_obs::snapshot();
        });
    }

    #[test]
    fn c1_wait_alone_drop_the_guard_and_relock_is_clean() {
        // The guard moves into a helper that waits alone, is dropped, and
        // the lock is taken again; later ranks nest under it.
        struct C {
            state: Mutex<u32>,
            cv: Condvar,
        }
        impl C {
            fn lead(&self, mut st: gp_obs::sync::MutexGuard<'_, u32>) -> u32 {
                st = st.wait_timeout(&self.cv, Duration::from_millis(1));
                *st += 1;
                drop(st);
                let st = self.state.lock();
                let _ = gp_obs::snapshot();
                *st
            }
        }
        let c = C {
            state: Mutex::new(Rank::Sessions, 0),
            cv: Condvar::new(),
        };
        assert_eq!(c.lead(c.state.lock()), 1);
    }

    #[test]
    fn c1_flags_a_second_guard_held_across_a_wait() {
        // The nesting is in rank order; waiting under the outer guard is
        // not, since a notifier may need it first.
        let outer = Mutex::new(Rank::Sessions, ());
        let queue = Mutex::new(Rank::AdmissionQueue, ());
        let cv = Condvar::new();
        drop(queue.lock().wait_timeout(&cv, Duration::from_millis(1)));
        assert_rank_violation(
            "condvar wait on AdmissionQueue while holding [Sessions]",
            || {
                let _outer = outer.lock();
                drop(queue.lock().wait_timeout(&cv, Duration::from_millis(1)));
            },
        );
    }
}
