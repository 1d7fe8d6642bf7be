//! Deterministic parallelism: a **thread budget** ([`WorkerPool`]) and
//! one fan-out under it, [`WorkerPool::map`].
//!
//! Kernels do not fan out: every `Tensor` matmul runs its kernel once
//! over its whole output on the calling thread. The one parallel
//! construct is `gp_core`'s `Engine::evaluate`, which maps its episodes
//! over the engine's budget; each episode's result lands at its own
//! index, so accuracies are bit-identical for every budget.
//!
//! # The thread budget
//!
//! A [`WorkerPool`] holds no threads. Each [`WorkerPool::map`] call with
//! budget `B` runs on the caller plus at most `B − 1` scoped helpers
//! that live for that call alone, so a budget of 1 never spawns and a
//! finished call leaves no thread behind. Spawning costs ~10µs on Linux,
//! paid once per `evaluate` call, against episodes that take
//! milliseconds each.

use std::sync::atomic::{AtomicUsize, Ordering};

/// [`WorkerPool::map`] calls that ran on more than one thread.
static FANOUTS: gp_obs::Counter = gp_obs::Counter::new("tensor.parallel.fanouts");

/// The thread budget of an engine's [`WorkerPool`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// One thread; every map runs inline on its caller (default).
    #[default]
    Serial,
    /// Exactly `n` threads (clamped to ≥ 1).
    Threads(usize),
    /// One thread per available hardware thread.
    Auto,
}

impl Parallelism {
    /// The thread count this setting resolves to on this host.
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// A thread budget for [`WorkerPool::map`]: the most threads, the caller
/// included, that one map call runs on.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WorkerPool {
    budget: usize,
}

impl WorkerPool {
    /// A pool with the given thread budget (clamped to ≥ 1).
    pub fn with_budget(budget: usize) -> Self {
        Self {
            budget: budget.max(1),
        }
    }

    /// The configured thread budget (≥ 1).
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// `[f(0), …, f(count − 1)]`, computed on the caller plus up to
    /// `budget − 1` scoped helpers that claim indices from one shared
    /// counter. The result is in index order whichever thread ran each
    /// call, so it is the same at every budget. A budget of 1, or a
    /// `count` of at most 1, spawns nothing. A helper that fails to spawn
    /// is simply absent: the threads that did start drain its indices. A
    /// panic in `f` reaches the caller once every thread has stopped.
    pub fn map<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let helpers = self.budget.min(count).saturating_sub(1);
        let next = AtomicUsize::new(0);
        let claim = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    return done;
                }
                done.push((i, f(i)));
            }
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "the one sanctioned scope: its helpers are bounded by the budget and joined before map returns"
        )]
        let mut results = std::thread::scope(|scope| {
            let started: Vec<_> = (0..helpers)
                .filter_map(|h| {
                    std::thread::Builder::new()
                        .name(format!("gp-map-{h}"))
                        .spawn_scoped(scope, claim)
                        .ok()
                })
                .collect();
            if !started.is_empty() {
                FANOUTS.inc();
            }
            let mut results = claim();
            for helper in started {
                match helper.join() {
                    Ok(part) => results.extend(part),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            results
        });
        results.sort_unstable_by_key(|&(i, _)| i);
        results.into_iter().map(|(_, value)| value).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;
    use std::thread::ThreadId;
    use std::time::Duration;

    #[test]
    fn parallelism_resolves_to_positive_workers() {
        assert_eq!(Parallelism::Serial.workers(), 1);
        assert_eq!(Parallelism::Threads(4).workers(), 4);
        assert_eq!(Parallelism::Threads(0).workers(), 1);
        assert!(Parallelism::Auto.workers() >= 1);
        assert_eq!(WorkerPool::with_budget(0).budget(), 1);
    }

    /// Every index runs exactly once and lands at its own position, for
    /// no tasks, one task, fewer tasks than the budget and more.
    #[test]
    fn map_runs_each_index_once_in_order() {
        let pool = WorkerPool::with_budget(3);
        for count in [0usize, 1, 2, 3, 50] {
            let runs: Vec<AtomicUsize> = (0..count).map(|_| AtomicUsize::new(0)).collect();
            let out = pool.map(count, |i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(200));
                i * 10
            });
            assert_eq!(out, (0..count).map(|i| i * 10).collect::<Vec<_>>());
            assert!(
                runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                "count {count}: an index ran other than once"
            );
        }
    }

    #[test]
    fn budget_one_pool_spawns_no_threads_and_runs_inline() {
        let pool = WorkerPool::with_budget(1);
        let caller = std::thread::current().id();
        let threads = pool.map(8, |_| std::thread::current().id());
        assert_eq!(threads, vec![caller; 8], "a task left the caller");
    }

    /// However many tasks, one map runs on at most `budget` threads.
    #[test]
    fn map_runs_on_at_most_budget_threads() {
        for budget in [2usize, 3, 5] {
            let pool = WorkerPool::with_budget(budget);
            let threads: HashSet<ThreadId> = pool
                .map(64, |_| {
                    std::thread::sleep(Duration::from_millis(1));
                    std::thread::current().id()
                })
                .into_iter()
                .collect();
            assert!(
                (1..=budget).contains(&threads.len()),
                "budget {budget} ran on {} threads",
                threads.len()
            );
        }
    }

    /// A panic on a helper thread reaches the caller, and the pool stays
    /// usable.
    #[test]
    fn pool_propagates_task_panics() {
        let pool = WorkerPool::with_budget(3);
        let caller = std::thread::current().id();
        let helper_ran = AtomicBool::new(false);
        let caught = std::panic::catch_unwind(|| {
            pool.map(6, |i| {
                if std::thread::current().id() != caller {
                    helper_ran.store(true, Ordering::Release);
                    panic!("boom from task {i}");
                }
                // Hold the caller until a helper has run a task, so the
                // panic the caller sees comes from a helper.
                for _ in 0..1_000_000 {
                    if helper_ran.load(Ordering::Acquire) {
                        break;
                    }
                    std::thread::yield_now();
                }
                i
            })
        });
        let panic = caught.expect_err("a helper's panic must reach the caller");
        let message = panic.downcast_ref::<String>().map_or("", String::as_str);
        assert!(message.starts_with("boom from task"), "{message:?}");
        // The pool must still be usable afterwards.
        assert_eq!(pool.map(4, |i| i + 1), vec![1, 2, 3, 4]);
    }
}
