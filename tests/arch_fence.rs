//! `std::arch` stays in the SIMD backend, `crates/tensor/src/backend/`.
//!
//! The workspace's `unsafe_code = "deny"` does not fence it alone. Inside
//! a `#[target_feature]` fn the arithmetic intrinsics (`_mm_add_ps`,
//! `vaddq_f32`, …) are safe calls, so SIMD code compiles anywhere without
//! `unsafe`; only pointer loads and stores, and a call into such a fn from
//! code without the feature, need it. So this test reads the library
//! sources (`src/` and `crates/*/src/`) and fails on any non-comment line
//! outside the backend that names the `arch` module: `std::arch`,
//! `core::arch`, `use std::{arch, …}`. A string that mentions it fails
//! too; comments do not.

#[path = "support/sources.rs"]
mod sources;

use std::path::Path;

/// 1-based numbers of the lines of `src` whose code (the text before any
/// `//`) has `arch` as a whole identifier.
fn arch_lines(src: &str) -> Vec<usize> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    src.lines()
        .enumerate()
        .filter(|(_, line)| {
            let code = line.split("//").next().unwrap_or_default();
            code.match_indices("arch").any(|(at, _)| {
                let before = code[..at].chars().next_back();
                let after = code[at + "arch".len()..].chars().next();
                !before.is_some_and(ident) && !after.is_some_and(ident)
            })
        })
        .map(|(i, _)| i + 1)
        .collect()
}

#[test]
fn arch_paths_stay_in_the_tensor_backend() {
    let backend = Path::new("crates/tensor/src/backend");
    let outside: Vec<String> = sources::library_sources()
        .iter()
        .filter(|(path, _)| !path.starts_with(backend))
        .flat_map(|(path, src)| {
            arch_lines(src)
                .into_iter()
                .map(move |line| format!("{}:{line}", path.display()))
        })
        .collect();
    assert!(
        outside.is_empty(),
        "`std::arch` outside {}: {outside:?}",
        backend.display()
    );
}

#[test]
fn arch_fence_flags_exactly_the_marked_fixture_sites() {
    // The clippy fixture's safe SIMD fn, which `unsafe_code` lets through,
    // is the site this fence exists for.
    let fixture = include_str!("fixtures/clippy/src/lib.rs");
    let marked: Vec<usize> = fixture
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("// fence: arch"))
        .map(|(i, _)| i + 1)
        .collect();
    assert!(!marked.is_empty(), "the fixture marks no arch site");
    assert_eq!(arch_lines(fixture), marked);

    let src = "\
use core::arch::aarch64::vaddq_f32;
use std::{arch, mem};
let v = std::arch::x86_64::_mm_setzero_ps();
//! `std::arch` in a doc comment
let n = 1; // std::arch in a trailing comment
#[cfg(target_arch = \"x86_64\")]
let (search, archive, arch_id) = (1, 2, 3);
";
    assert_eq!(arch_lines(src), [1, 2, 3]);
}
