//! Serve-layer instruments, registered in `gp-obs`'s process-global
//! registry so `GET /v1/metrics` (and `gp … --metrics`) export them
//! alongside the engine's own counters.
//!
//! Everything here is observational: off-by-default like all of
//! `gp-obs`, and never consulted by request handling. The shed /
//! deadline / panic counters are the server's black-box flight
//! recorder — the overload tests assert against them, so their names
//! are part of the crate's public contract.

use gp_obs::{Counter, Gauge, Histogram};

/// Requests fully served (any status except queue sheds).
pub static REQUESTS_TOTAL: Counter = Counter::new("serve.requests_total");
/// Connections rejected at admission (503): queue full or draining.
pub static SHED_TOTAL: Counter = Counter::new("serve.shed_total");
/// Requests that ran out of deadline at an Alg. 2 stage boundary (504).
pub static DEADLINE_EXCEEDED_TOTAL: Counter = Counter::new("serve.deadline_exceeded_total");
/// Handler panics contained by `catch_unwind` (500).
pub static PANICS_TOTAL: Counter = Counter::new("serve.panics_total");
/// Connections waiting in the admission queue right now.
pub static QUEUE_DEPTH: Gauge = Gauge::new("serve.queue_depth");
/// Requests currently being processed by workers.
pub static INFLIGHT: Gauge = Gauge::new("serve.inflight");
/// Wall time from worker pickup to response written.
pub static REQUEST_MICROS: Histogram = Histogram::new("serve.request_micros");
/// Wall time spent queued between accept and worker pickup.
pub static QUEUE_WAIT_MICROS: Histogram = Histogram::new("serve.queue_wait_micros");
/// Worker/accept threads whose drain-time `join()` failed — the thread
/// panicked somewhere outside the per-request `catch_unwind` (which
/// would have answered 500 and kept it alive). Anything nonzero here
/// means a bug escaped request isolation.
pub static JOIN_FAILURES_TOTAL: Counter = Counter::new("serve.join_failures_total");
/// Response writes that failed (peer gone or write timeout): the
/// request was processed but the answer never arrived. Distinguishes
/// "clients are flaky" from "the server is slow" in overload triage.
pub static WRITE_ERRORS_TOTAL: Counter = Counter::new("serve.write_errors_total");
