//! Dirty fixture (never compiled): file B of the two-file lock-order
//! cycle — takes `Pair::second` before `Pair::first`, closing the loop
//! opened by `dirty_lock_cycle_a.rs`. C1 needs no cross-file view to
//! fail it: the nesting alone is the finding.

pub fn backward(p: &Pair) -> u32 {
    let b = p.second.lock().unwrap();
    let a = p.first.lock().unwrap();
    *b - *a
}
