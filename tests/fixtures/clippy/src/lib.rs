//! Dirty fixture for the hazards clippy enforces in this repo: CI's
//! `$LIB_LINTS` plus the bans in the repo-root `clippy.toml` (found by
//! directory lookup). Each site clippy must report ends in `// lint: <key>`
//! (the lint name, or the banned method's path); the repo-root
//! `tests/lint_integration.rs` checks clippy reports exactly those.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::mpsc;
use std::time::{Instant, SystemTime};

// D1 — hash-order iteration.

pub struct Scores {
    pub by_node: HashMap<u64, f32>,
    pub seen: HashSet<u64>,
}

impl Scores {
    pub fn total(&self) -> f32 {
        self.by_node.values().sum() // lint: std::collections::HashMap::values
    }

    pub fn seen_sum(&self) -> u64 {
        let mut sum = 0;
        for id in &self.seen { sum += *id; } // lint: iter_over_hash_type
        sum
    }

    pub fn drained(&mut self) -> Vec<(u64, f32)> {
        self.by_node.drain().collect() // lint: std::collections::HashMap::drain
    }

    pub fn every_other_order_leak(&mut self) -> usize {
        let mut n = self.by_node.iter().len(); // lint: std::collections::HashMap::iter
        n += self.by_node.iter_mut().len(); // lint: std::collections::HashMap::iter_mut
        n += self.by_node.keys().len(); // lint: std::collections::HashMap::keys
        n += self.by_node.values_mut().len(); // lint: std::collections::HashMap::values_mut
        self.by_node.retain(|_, v| *v > 0.0); // lint: std::collections::HashMap::retain
        n += self.seen.iter().len(); // lint: std::collections::HashSet::iter
        self.seen.retain(|id| *id > 0); // lint: std::collections::HashSet::retain
        n += self.seen.drain().len(); // lint: std::collections::HashSet::drain
        n
    }

    pub fn into_parts(self) -> (Vec<u64>, Vec<f32>) {
        let keys = self.by_node.clone().into_keys().collect(); // lint: std::collections::HashMap::into_keys
        let values = self.by_node.into_values().collect(); // lint: std::collections::HashMap::into_values
        (keys, values)
    }

    /// Point lookups are order-free.
    pub fn lookup(&self, id: u64) -> Option<f32> {
        self.by_node.get(&id).copied()
    }
}

/// A freshly constructed map is hashed too.
pub fn local_total() -> u32 {
    let m = HashMap::from([(1u32, 2u32)]);
    let mut sum = 0;
    for (k, v) in &m { sum += k + v; } // lint: iter_over_hash_type
    sum
}

/// Vec iteration is ordered.
pub fn vec_total(v: &[f32]) -> f32 {
    v.iter().sum()
}

#[expect(clippy::disallowed_methods, reason = "drained into a Vec and sorted on the next line; hash order never escapes")]
pub fn sorted_ids(seen: &HashSet<u64>) -> Vec<u64> {
    let mut ids: Vec<u64> = seen.iter().copied().collect();
    ids.sort_unstable();
    ids
}

// D4 — wall-clock reads.

pub fn timed() -> u128 {
    let t = Instant::now(); // lint: std::time::Instant::now
    let s = SystemTime::now(); // lint: std::time::SystemTime::now
    t.elapsed().as_nanos() + s.elapsed().map_or(0, |d| d.as_nanos())
}

#[expect(clippy::disallowed_methods, reason = "feeds a diagnostics field only, never a result")]
pub fn stamp() -> u64 {
    SystemTime::now().duration_since(std::time::UNIX_EPOCH).map_or(0, |d| d.as_secs())
}

// R1 — panicking constructs.

pub fn risky(o: Option<u32>) -> u32 {
    let a = o.unwrap(); // lint: unwrap_used
    let b = o.ok_or("absent").expect("present"); // lint: expect_used
    match a.cmp(&b) {
        std::cmp::Ordering::Less => panic!("impossible"), // lint: panic
        std::cmp::Ordering::Greater => unreachable!(), // lint: unreachable
        std::cmp::Ordering::Equal => a,
    }
}

pub fn later(flag: bool) -> u32 {
    if flag {
        todo!() // lint: todo
    } else {
        unimplemented!() // lint: unimplemented
    }
}

/// A fixed site whose exception was left behind: the stale expectation
/// itself fails, so every exception ratchets down with its site.
#[expect(clippy::unwrap_used, reason = "the unwrap this excused is gone")] // lint: unfulfilled_lint_expectations
pub fn fixed(o: Option<u32>) -> u32 {
    o.unwrap_or(0)
}

// B1 — unbounded queues.

pub fn queues() -> usize {
    let (tx, rx) = mpsc::channel::<u32>(); // lint: std::sync::mpsc::channel
    let mut q: VecDeque<u32> = VecDeque::new(); // lint: std::collections::VecDeque::new
    q.push_back(1);
    drop((tx, rx));
    q.len()
}

/// Bounded constructions, and a local fn merely named `channel`.
pub fn bounded() -> usize {
    let (tx, rx) = mpsc::sync_channel::<u32>(8);
    let q: VecDeque<u32> = VecDeque::with_capacity(8);
    drop((tx, rx));
    q.capacity() + channel()
}

fn channel() -> usize {
    0
}

#[expect(clippy::disallowed_methods, reason = "one message per worker; depth bounded by the pool budget")]
pub fn per_worker() -> mpsc::Receiver<u32> {
    mpsc::channel().1
}

#[expect(clippy::disallowed_methods, reason = "the channel this excused is bounded now")] // lint: unfulfilled_lint_expectations
pub fn bounded_now() -> mpsc::Receiver<u32> {
    mpsc::sync_channel(1).1
}

// O1 — library stdout/stderr.

pub fn noisy() {
    println!("debug output from a library"); // lint: print_stdout
    eprintln!("and more"); // lint: print_stderr
}

// E1 — discarded results.

pub fn persist(path: &std::path::Path, data: &[u8]) {
    let _ = std::fs::write(path, data); // lint: let_underscore_must_use
}

pub fn evict(path: &std::path::Path) {
    std::fs::remove_file(path).ok(); // lint: unused_result_ok
}

#[expect(clippy::let_underscore_must_use, reason = "best-effort temp cleanup; a leftover file is re-deleted on the next run")]
pub fn cleanup(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
}

#[expect(clippy::let_underscore_must_use, reason = "the error this dropped is returned now")] // lint: unfulfilled_lint_expectations
pub fn remove(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::remove_file(path)
}

// D2 — `partial_cmp` comparators: NaN makes them panic or scramble order.

pub fn ranked(mut v: Vec<f32>) -> Vec<f32> {
    v.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal)); // lint: core::cmp::PartialOrd::partial_cmp
    v
}

pub fn best(v: &[f32]) -> Option<f32> {
    v.iter().copied().max_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Less)) // lint: core::cmp::PartialOrd::partial_cmp
}

pub fn ufcs(a: f64, b: f64) -> bool {
    PartialOrd::partial_cmp(&a, &b).is_some() // lint: core::cmp::PartialOrd::partial_cmp
}

/// A bare comparison feeds some comparator sooner or later.
pub fn compared(a: f32, b: f32) -> Option<std::cmp::Ordering> {
    a.partial_cmp(&b) // lint: core::cmp::PartialOrd::partial_cmp
}

/// Total orders and plain comparisons stay allowed.
pub fn ranked_total(mut v: Vec<f32>) -> Vec<f32> {
    v.sort_by(|a, b| b.total_cmp(a));
    v.retain(|x| *x > 0.0);
    v
}

// C1 — every mutex takes a rank from the lock hierarchy.

pub static UNRANKED: std::sync::Mutex<u32> = std::sync::Mutex::new(0); // lint: std::sync::Mutex::new

pub fn unranked_slots(n: usize) -> Vec<std::sync::Mutex<usize>> {
    (0..n).map(std::sync::Mutex::new).collect() // lint: std::sync::Mutex::new
}

// A1 — `unsafe` outside the fenced modules. The lints table's
// `unsafe_code = "deny"` catches raw pointer reads, SIMD loads and stores,
// and every call into a `#[target_feature]` fn from code without the
// feature.

pub fn first(v: &[f32]) -> f32 {
    unsafe { *v.get_unchecked(0) } // lint: unsafe_code
}

/// Inside a `#[target_feature]` fn the arithmetic intrinsics are safe, so
/// `unsafe_code` cannot see this SIMD code; `tests/arch_fence.rs` flags
/// the `std::arch` path instead.
///
/// # Safety
///
/// A caller without SSE enabled calls this in an `unsafe` block, after
/// checking the host has it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse")]
pub fn simd_sum() -> f32 {
    use std::arch::x86_64::{_mm_add_ps, _mm_cvtss_f32, _mm_set1_ps}; // fence: arch
    _mm_cvtss_f32(_mm_add_ps(_mm_set1_ps(1.0), _mm_set1_ps(2.0)))
}

/// The fenced SIMD backend: one reasoned exception for the whole module.
#[expect(unsafe_code, reason = "the SIMD kernels; each block states the bounds it relies on")]
pub mod backend {
    pub fn first(v: &[f32]) -> f32 {
        if v.is_empty() {
            return 0.0;
        }
        // SAFETY: `v` is non-empty.
        unsafe { *v.as_ptr() }
    }
}

#[expect(unsafe_code, reason = "one probe outside the backend, excused where it stands")]
pub fn last(v: &[f32]) -> f32 {
    if v.is_empty() {
        return 0.0;
    }
    // SAFETY: `v` is non-empty.
    unsafe { *v.get_unchecked(v.len() - 1) }
}

// P1 — every exception names a real lint and says why.

#[expect(clippy::unwrap_used)] // lint: allow_attributes_without_reason
pub fn unexplained(o: Option<u32>) -> u32 {
    o.unwrap()
}

#[expect(clippy::no_such_lint, reason = "names a lint that does not exist")] // lint: unknown_lints
pub fn misnamed() {}

/// Rules named in comments and strings are not code: `partial_cmp`,
/// `Instant::now()` and `unsafe { .. }` here stay clean.
pub fn mentions() -> &'static str {
    "v.sort_by(|a, b| a.partial_cmp(b).unwrap()); unsafe { Instant::now() }"
}

#[cfg(test)]
mod tests {
    #[test]
    fn panics_are_fine_in_tests() {
        let _ = "x".parse::<u32>();
        assert_eq!(Some(2u32).unwrap(), super::risky(Some(2)));
    }
}
