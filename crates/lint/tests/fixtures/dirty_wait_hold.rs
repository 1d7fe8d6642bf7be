//! Dirty fixture (never compiled): a condvar wait that re-acquires one
//! lock while a guard of a *different* lock stays live. A lost wakeup
//! here stalls every `stats` user; C1 fails the nested `.lock()` that
//! sets the shape up.

use std::sync::{Condvar, Mutex};

pub struct Queue {
    pub items: Mutex<Vec<u32>>,
    pub stats: Mutex<u64>,
    pub ready: Condvar,
}

impl Queue {
    pub fn drain_counted(&self) -> u64 {
        let mut count = self.stats.lock().unwrap();
        let mut g = self.items.lock().unwrap();
        while g.is_empty() {
            g = self.ready.wait(g).unwrap();
        }
        *count += g.len() as u64;
        g.clear();
        *count
    }
}
