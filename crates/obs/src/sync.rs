//! Ranked mutexes: the lock hierarchy of DESIGN.md, checked at runtime.
//!
//! Every library mutex is a [`Mutex`] built with a [`Rank`]. A thread may
//! take a lock only while every lock it already holds has a lower rank,
//! so two threads can never wait on each other's locks in a cycle. Debug
//! builds (`debug_assertions`, as under `cargo test`) keep a per-thread
//! list of held ranks and panic on the first out-of-order acquisition,
//! across function and crate boundaries, on every path the tests run.
//! They also panic on a condvar wait while any other lock is held: the
//! thread that would notify may need that lock first.
//! Release builds compile the bookkeeping out, so [`Mutex::lock`] is one
//! std lock call.
//!
//! `lock()` recovers from poisoning. Each lock in the hierarchy guards
//! state that is written whole under it (a map insert, a counter, a
//! queue push), so a holder that panicked cannot leave it torn, and one
//! crashed request must not take the process down with it.
//!
//! The root `clippy.toml` bans `std::sync::Mutex::new`, so a new mutex
//! has to take a rank here.

use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, PoisonError};
use std::time::Duration;

/// A lock's place in the hierarchy. Declaration order is acquisition
/// order: while holding a lock of one rank, a thread may only take locks
/// declared after it. The table in DESIGN.md ("Lock hierarchy") says what
/// each lock guards and which nestings occur.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rank {
    /// A test's own serialization or gate lock, held around whole test
    /// bodies or handler calls.
    Harness,
    /// `gp_serve` `SessionHost::sessions`: the session → engine table.
    Sessions,
    /// `gp_serve` `BoundedQueue::inner`: the admission queue.
    AdmissionQueue,
    /// `gp_core` `Engine::weights_fp`: the cached weight fingerprint.
    WeightsFingerprint,
    /// `gp_core` `EmbeddingStore::inner`: the RAM and disk tiers.
    EmbeddingStore,
    /// `gp_obs` registry maps (counters, gauges, histograms).
    ObsRegistry,
    /// One `gp_obs` histogram's buckets.
    ObsHistogram,
}

/// A mutex with a [`Rank`]; see the module docs.
pub struct Mutex<T> {
    rank: Rank,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A mutex at `rank` (const, so it can initialise a `static`).
    #[expect(
        clippy::disallowed_methods,
        reason = "the one place a std mutex is built; it gets its rank here"
    )]
    pub const fn new(rank: Rank, value: T) -> Self {
        Self {
            rank,
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Acquire the lock, recovering it if a holder panicked. In debug
    /// builds, panics if this thread holds a lock of equal or higher rank.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let held = Held::acquire(self.rank);
        MutexGuard {
            guard: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
            _held: held,
        }
    }
}

/// The guard of a locked [`Mutex`]; derefs to the protected value.
pub struct MutexGuard<'a, T> {
    guard: std::sync::MutexGuard<'a, T>,
    _held: Held,
}

impl<'a, T> MutexGuard<'a, T> {
    /// Release the lock, block on `cv` until notified, and reacquire it
    /// (with poison recovery). The rank stays held across the wait. In
    /// debug builds, panics if this thread holds any other lock.
    pub fn wait(self, cv: &Condvar) -> Self {
        let MutexGuard { guard, _held } = self;
        _held.assert_alone();
        MutexGuard {
            guard: cv.wait(guard).unwrap_or_else(PoisonError::into_inner),
            _held,
        }
    }

    /// As [`MutexGuard::wait`], but for at most `dur`. Callers re-check
    /// their condition, so whether the wait timed out is not reported.
    pub fn wait_timeout(self, cv: &Condvar, dur: Duration) -> Self {
        let MutexGuard { guard, _held } = self;
        _held.assert_alone();
        let (guard, _) = cv
            .wait_timeout(guard, dur)
            .unwrap_or_else(PoisonError::into_inner);
        MutexGuard { guard, _held }
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// One entry in this thread's list of held ranks, removed on drop.
/// Zero-sized and inert in release builds.
struct Held {
    #[cfg(debug_assertions)]
    rank: Rank,
}

#[cfg(debug_assertions)]
thread_local! {
    static HELD: std::cell::RefCell<Vec<Rank>> = const { std::cell::RefCell::new(Vec::new()) };
}

impl Held {
    #[cfg(debug_assertions)]
    fn acquire(rank: Rank) -> Self {
        // Ranks are pushed in ascending order, so the last one is the
        // highest held. `try_with`: a lock taken while thread-locals are
        // being destroyed skips the bookkeeping rather than aborting.
        HELD.try_with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&top) = held.last() {
                assert!(
                    (top as u8) < (rank as u8),
                    "lock order violation: acquiring {rank:?} while holding {top:?} \
                     (see the lock hierarchy in DESIGN.md)"
                );
            }
            held.push(rank);
        })
        .unwrap_or(());
        Self { rank }
    }

    #[cfg(not(debug_assertions))]
    #[inline(always)]
    fn acquire(_rank: Rank) -> Self {
        Self {}
    }

    /// Before a condvar wait: this is the only rank the thread holds.
    #[cfg(debug_assertions)]
    fn assert_alone(&self) {
        HELD.try_with(|held| {
            let others: Vec<Rank> = held
                .borrow()
                .iter()
                .copied()
                .filter(|r| *r != self.rank)
                .collect();
            assert!(
                others.is_empty(),
                "condvar wait on {:?} while holding {others:?}: a notifier that needs \
                 those locks can never wake it (see the lock hierarchy in DESIGN.md)",
                self.rank
            );
        })
        .unwrap_or(());
    }

    #[cfg(not(debug_assertions))]
    #[inline(always)]
    fn assert_alone(&self) {}
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        HELD.try_with(|held| held.borrow_mut().retain(|r| *r != self.rank))
            .unwrap_or(());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascending_acquisition_and_reacquisition_are_allowed() {
        let store = Mutex::new(Rank::EmbeddingStore, 1);
        let histo = Mutex::new(Rank::ObsHistogram, 2);
        // Guards may drop out of order; the rank list follows them.
        let s = store.lock();
        let h = histo.lock();
        assert_eq!(*s + *h, 3);
        drop(s);
        drop(h);
        *store.lock() += 1;
        assert_eq!(*store.lock(), 2);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "acquiring EmbeddingStore while holding ObsHistogram")
    )]
    fn inverted_acquisition_panics() {
        let store = Mutex::new(Rank::EmbeddingStore, ());
        let histo = Mutex::new(Rank::ObsHistogram, ());
        let _h = histo.lock();
        let _s = store.lock();
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "while holding ObsRegistry"))]
    fn equal_ranks_never_nest() {
        let a = Mutex::new(Rank::ObsRegistry, ());
        let b = Mutex::new(Rank::ObsRegistry, ());
        let _a = a.lock();
        let _b = b.lock();
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "condvar wait on EmbeddingStore while holding [Sessions]")
    )]
    fn waiting_under_a_second_guard_panics() {
        let sessions = Mutex::new(Rank::Sessions, ());
        let store = Mutex::new(Rank::EmbeddingStore, ());
        let cv = Condvar::new();
        let _held = sessions.lock();
        let s = store.lock();
        drop(s.wait_timeout(&cv, Duration::from_millis(1)));
    }

    #[test]
    fn lock_recovers_from_poison_and_unwinding_releases_the_rank() {
        let m = Mutex::new(Rank::Harness, 0);
        let poisoned = std::panic::catch_unwind(|| {
            *m.lock() = 7;
            let _g = m.lock();
            panic!("poison the lock");
        });
        assert!(poisoned.is_err());
        assert_eq!(*m.lock(), 7);
    }
}
