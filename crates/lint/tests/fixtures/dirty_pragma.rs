//! Dirty fixture (never compiled): pragma hygiene (P1) next to one
//! justified and one unjustified D2 site.

pub fn rank(scores: &mut [f32]) {
    scores.sort_by(|a, b| b.partial_cmp(a).unwrap());
}

// gp-lint: allow(D2)
pub fn bad_pragma_above() {}

pub fn suppressed(scores: &mut [f32]) {
    // gp-lint: allow(D2) — inputs are clamped to finite values two lines up
    scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
}

// gp-lint: allow(R1) — R1 is a clippy lint now; this pragma excuses nothing
pub fn retired_rule() {}
