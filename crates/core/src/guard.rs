//! Non-finite and divergence guard rails for the training loop.
//!
//! A NaN loss silently poisons the AdamW moments and every parameter it
//! touches; a loss spike often precedes one. [`GuardRail`] inspects the
//! loss and gradients of every step *before* the optimizer applies them
//! and reacts per [`GuardAction`]: skip the update (parameters stay at
//! their pre-step values), clip the gradients to a norm ceiling, or abort
//! the run with a typed [`DivergenceError`]. A post-step parameter check
//! additionally restores the pre-step snapshot if an update still managed
//! to produce non-finite weights.

use std::collections::VecDeque;

use gp_nn::ParamId;
use gp_tensor::Tensor;

static GUARD_SKIPS: gp_obs::Counter = gp_obs::Counter::new("pretrain.guard_skips");
static GUARD_CLIPS: gp_obs::Counter = gp_obs::Counter::new("pretrain.guard_clips");

/// Global L2 norm over all gradient tensors (shared with the pretrain
/// loop's `pretrain.grad_norm_milli` histogram).
pub(crate) fn grad_l2_norm(grads: &[(ParamId, Tensor)]) -> f32 {
    grads
        .iter()
        .map(|(_, g)| {
            let n = g.frobenius_norm();
            n * n
        })
        .sum::<f32>()
        .sqrt()
}

/// What to do when a guard-rail check trips.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum GuardAction {
    /// Skip the optimizer step; parameters keep their pre-step values.
    Skip,
    /// Rescale gradients to [`GuardRailConfig::clip_norm`] and proceed.
    /// Non-finite losses/gradients cannot be clipped and are skipped.
    Clip,
    /// Return a [`DivergenceError`] and stop training.
    Abort,
}

/// Guard-rail policy for a training run.
#[derive(Clone, Debug, PartialEq)]
pub struct GuardRailConfig {
    /// Reaction to a tripped check.
    pub action: GuardAction,
    /// A step's loss greater than `spike_factor ×` the trailing-window
    /// median counts as a spike. Non-positive disables spike detection.
    pub spike_factor: f32,
    /// Number of trailing healthy losses kept for the median.
    /// [`crate::PretrainConfig::validate`] requires at least 1.
    pub window: usize,
    /// Minimum healthy losses observed before spike detection activates
    /// (a cold median over 1–2 values is too noisy to trust).
    pub warmup: usize,
    /// Global gradient-norm ceiling. `None` disables the norm check;
    /// under [`GuardAction::Clip`] it is also the clipping target
    /// (default 1.0 when unset).
    pub clip_norm: Option<f32>,
}

impl Default for GuardRailConfig {
    fn default() -> Self {
        Self {
            action: GuardAction::Skip,
            spike_factor: 10.0,
            window: 25,
            warmup: 5,
            clip_norm: None,
        }
    }
}

impl GuardRailConfig {
    /// Skip-step policy with default spike detection.
    pub fn skip() -> Self {
        Self::default()
    }

    /// Clip-to-`max_norm` policy.
    pub fn clip(max_norm: f32) -> Self {
        Self {
            action: GuardAction::Clip,
            clip_norm: Some(max_norm),
            ..Self::default()
        }
    }

    /// Abort-on-divergence policy.
    pub fn abort() -> Self {
        Self {
            action: GuardAction::Abort,
            ..Self::default()
        }
    }
}

/// Typed divergence diagnosis, returned as an error under
/// [`GuardAction::Abort`] and recorded as the skip/clip reason otherwise.
#[derive(Clone, Debug, PartialEq)]
pub enum DivergenceError {
    /// The step's loss was NaN or ±∞.
    NonFiniteLoss {
        /// Absolute step index.
        step: usize,
    },
    /// A gradient tensor contained a NaN or ±∞ entry.
    NonFiniteGrad {
        /// Absolute step index.
        step: usize,
        /// Index of the offending parameter in the store.
        param: usize,
    },
    /// The optimizer update produced non-finite parameters (caught by the
    /// post-step check; the pre-step snapshot was restored).
    NonFiniteParams {
        /// Absolute step index.
        step: usize,
    },
    /// Loss exceeded `spike_factor ×` the trailing median.
    LossSpike {
        /// Absolute step index.
        step: usize,
        /// The spiking loss value.
        loss: f32,
        /// Trailing median it was compared against.
        median: f32,
    },
    /// Global gradient norm exceeded the configured ceiling.
    GradNormExceeded {
        /// Absolute step index.
        step: usize,
        /// Observed global gradient norm.
        norm: f32,
        /// Configured ceiling.
        limit: f32,
    },
}

impl std::fmt::Display for DivergenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DivergenceError::NonFiniteLoss { step } => {
                write!(f, "non-finite loss at step {step}")
            }
            DivergenceError::NonFiniteGrad { step, param } => {
                write!(
                    f,
                    "non-finite gradient for parameter {param} at step {step}"
                )
            }
            DivergenceError::NonFiniteParams { step } => {
                write!(
                    f,
                    "optimizer update produced non-finite parameters at step {step}"
                )
            }
            DivergenceError::LossSpike { step, loss, median } => {
                write!(
                    f,
                    "loss spike at step {step}: {loss} vs trailing median {median}"
                )
            }
            DivergenceError::GradNormExceeded { step, norm, limit } => {
                write!(
                    f,
                    "gradient norm {norm} exceeds limit {limit} at step {step}"
                )
            }
        }
    }
}

impl std::error::Error for DivergenceError {}

/// Verdict for one step: apply the (possibly clipped) update, or skip it.
#[derive(Clone, Debug, PartialEq)]
pub enum StepVerdict {
    /// Apply the optimizer step (gradients may have been clipped in place).
    Proceed,
    /// Skip the optimizer step for the recorded reason.
    Skip(DivergenceError),
}

/// Stateful guard rail: trailing loss window plus incident counters.
#[derive(Clone, Debug)]
pub struct GuardRail {
    cfg: GuardRailConfig,
    window: VecDeque<f32>,
    /// Steps skipped due to incidents.
    pub skipped: usize,
    /// Steps whose gradients were clipped.
    pub clipped: usize,
}

impl GuardRail {
    /// A guard rail with the given policy and an empty trailing window.
    #[expect(
        clippy::disallowed_methods,
        reason = "the trailing window is trimmed to cfg.window on every push and restore"
    )]
    pub fn new(cfg: GuardRailConfig) -> Self {
        Self {
            cfg,
            window: VecDeque::new(),
            skipped: 0,
            clipped: 0,
        }
    }

    /// The policy this rail enforces.
    pub fn config(&self) -> &GuardRailConfig {
        &self.cfg
    }

    /// Trailing healthy-loss window, oldest first (for checkpointing).
    pub fn window(&self) -> Vec<f32> {
        self.window.iter().copied().collect()
    }

    /// Restore a window exported with [`GuardRail::window`] (resume path).
    pub fn restore_window(&mut self, window: &[f32]) {
        self.window = window.iter().copied().collect();
        while self.window.len() > self.cfg.window.max(1) {
            self.window.pop_front();
        }
    }

    /// Median of the trailing window; `None` before warmup.
    fn trailing_median(&self) -> Option<f32> {
        if self.window.len() < self.cfg.warmup.max(1) {
            return None;
        }
        let mut sorted: Vec<f32> = self.window.iter().copied().collect();
        sorted.sort_by(f32::total_cmp);
        let n = sorted.len();
        Some(if n % 2 == 1 {
            sorted[n / 2]
        } else {
            0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
        })
    }

    fn record_healthy(&mut self, loss: f32) {
        self.window.push_back(loss);
        while self.window.len() > self.cfg.window.max(1) {
            self.window.pop_front();
        }
    }

    /// Global L2 norm over all gradient tensors.
    fn global_grad_norm(grads: &[(ParamId, Tensor)]) -> f32 {
        grad_l2_norm(grads)
    }

    /// Diagnose the step; `None` means healthy.
    fn diagnose(
        &self,
        step: usize,
        loss: f32,
        grads: &[(ParamId, Tensor)],
    ) -> Option<DivergenceError> {
        if !loss.is_finite() {
            return Some(DivergenceError::NonFiniteLoss { step });
        }
        for (id, g) in grads {
            if !g.all_finite() {
                return Some(DivergenceError::NonFiniteGrad {
                    step,
                    param: id.index(),
                });
            }
        }
        if let Some(limit) = self.cfg.clip_norm {
            let norm = Self::global_grad_norm(grads);
            if norm > limit {
                return Some(DivergenceError::GradNormExceeded { step, norm, limit });
            }
        }
        if self.cfg.spike_factor > 0.0 {
            if let Some(median) = self.trailing_median() {
                if median.is_finite() && loss > self.cfg.spike_factor * median.abs().max(1e-12) {
                    return Some(DivergenceError::LossSpike { step, loss, median });
                }
            }
        }
        None
    }

    /// Check one step. On a clippable incident under [`GuardAction::Clip`]
    /// the gradients are rescaled in place and the step proceeds; otherwise
    /// the verdict says whether to apply or skip the update. Under
    /// [`GuardAction::Abort`] any incident is returned as an error.
    pub fn check(
        &mut self,
        step: usize,
        loss: f32,
        grads: &mut [(ParamId, Tensor)],
    ) -> Result<StepVerdict, DivergenceError> {
        let Some(incident) = self.diagnose(step, loss, grads) else {
            self.record_healthy(loss);
            return Ok(StepVerdict::Proceed);
        };
        match self.cfg.action {
            GuardAction::Abort => Err(incident),
            GuardAction::Clip => {
                // Non-finite values cannot be repaired by scaling.
                let clippable = matches!(
                    incident,
                    DivergenceError::LossSpike { .. } | DivergenceError::GradNormExceeded { .. }
                );
                if !clippable {
                    self.skipped += 1;
                    GUARD_SKIPS.inc();
                    return Ok(StepVerdict::Skip(incident));
                }
                let target = self.cfg.clip_norm.unwrap_or(1.0);
                let norm = Self::global_grad_norm(grads);
                if norm > target && norm.is_finite() && norm > 0.0 {
                    let scale = target / norm;
                    for (_, g) in grads.iter_mut() {
                        *g = g.scale(scale);
                    }
                }
                self.clipped += 1;
                GUARD_CLIPS.inc();
                self.record_healthy(loss);
                Ok(StepVerdict::Proceed)
            }
            GuardAction::Skip => {
                self.skipped += 1;
                GUARD_SKIPS.inc();
                Ok(StepVerdict::Skip(incident))
            }
        }
    }

    /// Post-step parameter check: called after the optimizer applied an
    /// update. Returns the error to raise (Abort) or record (Skip/Clip);
    /// the caller restores the pre-step snapshot in both cases.
    pub fn after_step(&mut self, step: usize, params_finite: bool) -> Option<DivergenceError> {
        if params_finite {
            return None;
        }
        self.skipped += 1;
        GUARD_SKIPS.inc();
        Some(DivergenceError::NonFiniteParams { step })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grads_of(vals: &[f32]) -> Vec<(ParamId, Tensor)> {
        // ParamId is crate-private to gp-nn; obtain real ids via a store.
        let mut store = gp_nn::ParamStore::new();
        vals.iter()
            .enumerate()
            .map(|(i, &v)| {
                (
                    store.add(format!("g{i}"), Tensor::scalar(0.0)),
                    Tensor::scalar(v),
                )
            })
            .collect()
    }

    #[test]
    fn healthy_steps_proceed_and_fill_window() {
        let mut rail = GuardRail::new(GuardRailConfig::default());
        for step in 0..10 {
            let mut g = grads_of(&[0.1, -0.2]);
            assert_eq!(rail.check(step, 1.0, &mut g).unwrap(), StepVerdict::Proceed);
        }
        assert_eq!(rail.window().len(), 10);
        assert_eq!(rail.skipped, 0);
    }

    #[test]
    fn nan_loss_skips_under_skip_policy() {
        let mut rail = GuardRail::new(GuardRailConfig::skip());
        let mut g = grads_of(&[0.1]);
        match rail.check(3, f32::NAN, &mut g).unwrap() {
            StepVerdict::Skip(DivergenceError::NonFiniteLoss { step }) => assert_eq!(step, 3),
            v => panic!("expected NonFiniteLoss skip, got {v:?}"),
        }
        assert_eq!(rail.skipped, 1);
        // The NaN must not enter the trailing window.
        assert!(rail.window().is_empty());
    }

    #[test]
    fn nan_grad_aborts_under_abort_policy() {
        let mut rail = GuardRail::new(GuardRailConfig::abort());
        let mut g = grads_of(&[0.1, f32::INFINITY]);
        let err = rail.check(7, 0.5, &mut g).unwrap_err();
        assert_eq!(err, DivergenceError::NonFiniteGrad { step: 7, param: 1 });
    }

    #[test]
    fn loss_spike_detected_after_warmup() {
        let cfg = GuardRailConfig {
            spike_factor: 5.0,
            warmup: 4,
            ..GuardRailConfig::skip()
        };
        let mut rail = GuardRail::new(cfg);
        for step in 0..6 {
            let mut g = grads_of(&[0.1]);
            assert_eq!(rail.check(step, 1.0, &mut g).unwrap(), StepVerdict::Proceed);
        }
        let mut g = grads_of(&[0.1]);
        match rail.check(6, 100.0, &mut g).unwrap() {
            StepVerdict::Skip(DivergenceError::LossSpike { loss, median, .. }) => {
                assert_eq!(loss, 100.0);
                assert!((median - 1.0).abs() < 1e-6);
            }
            v => panic!("expected LossSpike, got {v:?}"),
        }
        // A merely-elevated loss below the factor passes.
        let mut g = grads_of(&[0.1]);
        assert_eq!(rail.check(7, 4.0, &mut g).unwrap(), StepVerdict::Proceed);
    }

    #[test]
    fn clip_rescales_gradients_to_target_norm() {
        let mut rail = GuardRail::new(GuardRailConfig::clip(1.0));
        let mut g = grads_of(&[3.0, 4.0]); // norm 5
        assert_eq!(rail.check(0, 1.0, &mut g).unwrap(), StepVerdict::Proceed);
        assert_eq!(rail.clipped, 1);
        let norm = GuardRail::global_grad_norm(&g);
        assert!((norm - 1.0).abs() < 1e-5, "clipped norm {norm}");
        // Values keep their direction.
        assert!(g[0].1.item() > 0.0 && g[1].1.item() > g[0].1.item());
    }

    #[test]
    fn clip_cannot_repair_non_finite_and_skips() {
        let mut rail = GuardRail::new(GuardRailConfig::clip(1.0));
        let mut g = grads_of(&[f32::NAN]);
        match rail.check(0, 1.0, &mut g).unwrap() {
            StepVerdict::Skip(DivergenceError::NonFiniteGrad { .. }) => {}
            v => panic!("expected skip, got {v:?}"),
        }
    }

    #[test]
    fn window_roundtrip_for_resume() {
        let mut rail = GuardRail::new(GuardRailConfig::default());
        for step in 0..8 {
            let mut g = grads_of(&[0.1]);
            rail.check(step, step as f32, &mut g).unwrap();
        }
        let saved = rail.window();
        let mut fresh = GuardRail::new(GuardRailConfig::default());
        fresh.restore_window(&saved);
        assert_eq!(fresh.window(), saved);
    }

    #[test]
    fn after_step_flags_non_finite_params() {
        let mut rail = GuardRail::new(GuardRailConfig::skip());
        assert!(rail.after_step(4, true).is_none());
        assert_eq!(
            rail.after_step(4, false),
            Some(DivergenceError::NonFiniteParams { step: 4 })
        );
        assert_eq!(rail.skipped, 1);
    }
}
