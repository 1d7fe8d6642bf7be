//! # gp-serve — overload-safe inference serving for GraphPrompter
//!
//! A hand-rolled HTTP/1.1 server (zero dependencies beyond `std` and
//! the workspace crates) that exposes the Alg. 2 inference pipeline:
//!
//! | endpoint            | method | purpose                                        |
//! |---------------------|--------|------------------------------------------------|
//! | `/v1/classify`      | POST   | run one few-shot episode, return predictions   |
//! | `/v1/metrics`       | GET    | `gp-obs` registry snapshot as JSON             |
//! | `/v1/health`        | GET    | liveness + queue depth + engine revision       |
//!
//! The interesting part is not the HTTP, it is what happens when the
//! server is mistreated. Every robustness mechanism in this crate is
//! tied to the test that proves it:
//!
//! | mechanism                                | where                        | proven by (`tests/overload.rs`)                |
//! |------------------------------------------|------------------------------|------------------------------------------------|
//! | bounded admission, 503 + `Retry-After`   | [`queue::BoundedQueue`]      | `saturated_queue_sheds_immediately_with_503`   |
//! | deadline at Alg. 2 stage boundaries, 504 | `gp_core::Engine::run_episode_deadline` | `deadline_returns_504_with_partial_stage_timing` |
//! | no thread leak across 504s               | shared `WorkerPool` budget   | `deadline_exhaustion_leaks_no_pool_threads`    |
//! | panic isolation per request, 500         | `catch_unwind` in [`server`] | `panicking_request_gets_500_and_server_survives` |
//! | slow-loris / truncated-body defence      | [`http::read_request`]       | `slow_and_malformed_clients_are_bounded`       |
//! | header/body size caps, 431/413           | [`http::Limits`]             | `slow_and_malformed_clients_are_bounded`       |
//! | graceful drain, zero dropped in-flight   | [`server::ServerHandle`]     | `graceful_drain_completes_admitted_requests`   |
//! | admitted p99 ≤ 2× uncontended under 2× load | queue sized to the SLO    | `overload_keeps_admitted_p99_within_twice_uncontended` |
//! | field-naming 400s, server-side caps      | `app::classify` validation   | `request_validation_is_hardened`               |
//! | bounded keep-alive, per-request deadlines | [`server`] worker loop      | `keep_alive_connection_serves_many_requests`   |
//! | cross-request batching, per-member 504   | [`coalesce::Coalescer`]      | `mid_collection_expiry_504s_one_member_not_the_batch` |
//!
//! ## Degradation ladder
//!
//! Under rising load the server degrades in a fixed order, each step
//! cheaper than the last: admitted requests slow down (bounded by
//! queue capacity × service time) → the queue fills and new arrivals
//! are shed with `503 + Retry-After` straight from the accept thread →
//! per-request deadlines convert over-budget admitted work into 504s
//! at the next stage boundary, returning the partial-stage timing so
//! the client can see where the time went. It never: queues without
//! bound, holds a worker on a slow client past the read deadline, or
//! lets one poisoned lock take down the process (every lock in the
//! serving path recovers from poisoning).
//!
//! Determinism survives serving: an episode is a pure function of the
//! request `(seed, ways, queries)` and the host's weights, deadlines
//! only ever *cut off* work at stage boundaries (completed stages are
//! bit-identical to an undeadlined run), and session replicas share
//! one revision. Cross-request batching ([`coalesce`]) keeps that
//! contract — fused members are bit-identical on `Backend::Reference`
//! to solo runs, so batching is purely a throughput knob
//! (`gp serve --max-batch/--batch-window-ms`). See `README.md`
//! § "Request batching".

pub mod app;
pub mod coalesce;
pub mod http;
pub mod json;
pub mod metrics;
pub mod queue;
pub mod server;

pub use app::{ClassifyApp, SessionHost, MAX_QUERIES, MAX_QUEUE_CAPACITY, MAX_WAYS};
pub use coalesce::Coalescer;
pub use http::{Limits, Request, Response};
pub use queue::{BoundedQueue, PushError};
pub use server::{DrainStats, Handler, ServeContext, Server, ServerConfig, ServerHandle};
