//! Dirty fixture (never compiled): file A of a two-file lock-order
//! cycle. Takes `Pair::first` before `Pair::second`; the reverse order
//! lives in `dirty_lock_cycle_b.rs`. Per-function C1 fails each half on
//! its own: the second `.lock()` is taken under a live guard.

use std::sync::Mutex;

pub struct Pair {
    pub first: Mutex<u32>,
    pub second: Mutex<u32>,
}

impl Pair {
    pub fn forward(&self) -> u32 {
        let a = self.first.lock().unwrap();
        let b = self.second.lock().unwrap();
        *a + *b
    }
}
