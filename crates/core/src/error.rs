//! The typed errors of a request that ran out of time and of a
//! pre-training run that diverged.
//!
//! [`crate::Engine::run_episode_deadline`] reports an expired deadline as
//! [`DeadlineExceeded`], and [`crate::Engine::run_episodes_batched`]
//! does so for each member on its own; gp-serve maps it to 504 Gateway
//! Timeout. Config
//! errors surface from [`crate::EngineBuilder::try_build`] as
//! [`crate::ConfigError`], and a non-finite training loss from
//! [`crate::Engine::try_pretrain`] as [`DivergenceError`]. Non-finite
//! input features never get that far: `gp_datasets::load_dataset`
//! rejects them at the file boundary.

/// Diagnosis of a request that ran out of budget: which stage boundary
/// observed the expiry, how much of the episode had completed, and the
/// per-stage wall-clock collected up to that point (the "partial-stage
/// timing" a 504 response attaches).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeadlineExceeded {
    /// Name of the stage boundary where the expiry was observed
    /// (`"candidate_embed"`, `"query_embed"`, `"selection"`,
    /// `"task_graph"`).
    pub stage: &'static str,
    /// Queries fully predicted before the abort.
    pub completed_queries: usize,
    /// Queries the episode was asked for.
    pub total_queries: usize,
    /// `(stage, cumulative µs)` pairs in pipeline order for every stage
    /// that ran at all before the abort.
    pub stage_micros: Vec<(&'static str, u64)>,
}

impl std::fmt::Display for DeadlineExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "deadline exceeded at stage `{}` after {}/{} queries",
            self.stage, self.completed_queries, self.total_queries
        )?;
        if !self.stage_micros.is_empty() {
            write!(f, " (")?;
            for (i, (stage, us)) in self.stage_micros.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{stage}={us}µs")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl std::error::Error for DeadlineExceeded {}

/// Why pre-training stopped early. The loop checks each step's loss
/// before the optimizer applies it, so the weights are those after the
/// last finite step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DivergenceError {
    /// The step's loss `L_NM + L_MT` was NaN or ±∞.
    NonFiniteLoss {
        /// Index of the step whose update was not applied.
        step: usize,
    },
}

impl std::fmt::Display for DivergenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let DivergenceError::NonFiniteLoss { step } = self;
        write!(f, "non-finite loss at step {step}")
    }
}

impl std::error::Error for DivergenceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_exceeded_display_lists_partial_stages() {
        let e = DeadlineExceeded {
            stage: "selection",
            completed_queries: 5,
            total_queries: 12,
            stage_micros: vec![("candidate_embed", 900), ("query_embed", 400)],
        };
        let s = e.to_string();
        assert!(s.contains("`selection`"), "{s}");
        assert!(s.contains("5/12"), "{s}");
        assert!(s.contains("candidate_embed=900µs"), "{s}");
    }
}
