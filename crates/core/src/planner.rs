//! The request type of batched Alg. 2 inference.
//!
//! An [`EpisodeRequest`] is one member of a
//! [`crate::Engine::run_episodes_batched`] call. Batch membership never
//! affects results: per-datapoint RNG streams and row-local embedding
//! make every member bit-identical to a solo run (see
//! `crates/core/tests/batching.rs`).

use gp_datasets::FewShotTask;

use crate::deadline::Deadline;

/// One member of a fused batched-inference call: a task plus its own
/// optional deadline, enforced at the same stage boundaries as a serial
/// run.
pub struct EpisodeRequest<'a> {
    /// The member's few-shot task.
    pub task: &'a FewShotTask,
    /// Per-member deadline; expiry aborts this member only.
    pub deadline: Option<Deadline>,
}
