//! Per-request deadlines for the Alg. 2 inference pipeline.
//!
//! A [`Deadline`] is an absolute point in time carried alongside a
//! request. The pipeline checks it **at stage boundaries only** —
//! after candidate embedding, after query embedding, and after each
//! query chunk's selection and task graph — never inside a kernel, so an expired deadline
//! aborts cleanly with a typed [`crate::DeadlineExceeded`] carrying the
//! partial per-stage timing collected so far. Work that completed before
//! the deadline fired is bit-identical to an undeadlined run: the clock
//! only ever decides *whether to continue*, not *what to compute*.
//!
//! `gp-serve` is the primary consumer: it stamps a deadline at admission
//! time (so queue wait counts against the budget) and maps
//! `DeadlineExceeded` to HTTP 504.

use std::time::{Duration, Instant};

/// An absolute request deadline (monotonic clock).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `budget` from now.
    #[expect(
        clippy::disallowed_methods,
        reason = "the clock only gates stage-boundary aborts; completed results never depend on it"
    )]
    pub fn after(budget: Duration) -> Self {
        let at = Instant::now() + budget;
        Self { at }
    }

    /// A deadline `ms` milliseconds from now.
    pub fn after_millis(ms: u64) -> Self {
        Self::after(Duration::from_millis(ms))
    }

    /// A deadline at an explicit instant (e.g. stamped at admission time
    /// so queue wait counts against the request budget).
    pub fn at(at: Instant) -> Self {
        Self { at }
    }

    /// True once the deadline has passed.
    #[expect(
        clippy::disallowed_methods,
        reason = "the clock only gates stage-boundary aborts; completed results never depend on it"
    )]
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left before expiry (zero once expired).
    #[expect(
        clippy::disallowed_methods,
        reason = "the clock only gates stage-boundary aborts; completed results never depend on it"
    )]
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }

    /// The absolute expiry instant.
    pub fn instant(&self) -> Instant {
        self.at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_deadline_is_not_expired() {
        let d = Deadline::after(Duration::from_secs(60));
        assert!(!d.expired());
        assert!(d.remaining() > Duration::from_secs(50));
    }

    #[test]
    fn zero_budget_deadline_expires_immediately() {
        let d = Deadline::after(Duration::ZERO);
        assert!(d.expired());
        assert_eq!(d.remaining(), Duration::ZERO);
    }

    #[test]
    fn millis_constructor_matches_duration() {
        let d = Deadline::after_millis(0);
        assert!(d.expired());
        let far = Deadline::after_millis(120_000);
        assert!(!far.expired());
    }
}
