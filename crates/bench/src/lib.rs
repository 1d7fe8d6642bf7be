//! # gp-bench
//!
//! The experiment harness: shared model-training helpers plus one module
//! per table/figure of the paper (see DESIGN.md's experiment index).
//! The `experiments` binary dispatches to these and regenerates
//! EXPERIMENTS.md. Performance is measured by the repository benchmark
//! (`benchmark/`, driven by BENCHMARK.json), not here.

pub mod experiments;
pub mod harness;

pub use harness::{Ctx, GraphPrompterMethod, GraphPrompterView, Suite};
