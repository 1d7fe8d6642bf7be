//! Shared experiment plumbing: standard configurations and a
//! lazily-trained model/dataset registry ([`Ctx`]).

use std::cell::{OnceCell, RefCell};
use std::path::Path;

use gp_baselines::{Contrastive, ContrastiveConfig, Finetune, ProG, PromptGraph};
use gp_core::{InferenceConfig, ModelConfig, PretrainConfig, StageConfig};
use gp_datasets::{presets, Dataset};
use gp_graph::SamplerConfig;

/// Global experiment scale knobs. The defaults reproduce every table and
/// figure in minutes on a laptop; raise `pre_steps`, `episodes` and
/// `queries` for tighter error bars.
#[derive(Clone, Debug)]
pub struct Suite {
    /// Pre-training steps for GraphPrompter / Prodigy.
    pub pre_steps: usize,
    /// Episodes per table cell (the paper averages over repeated runs).
    pub episodes: usize,
    /// Queries per episode (the paper samples 500 test datapoints).
    pub queries: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for Suite {
    fn default() -> Self {
        Self {
            pre_steps: 400,
            episodes: 8,
            queries: 50,
            seed: 0,
        }
    }
}

impl Suite {
    /// A fast configuration for smoke tests and CI.
    pub fn smoke() -> Self {
        Self {
            pre_steps: 40,
            episodes: 2,
            queries: 10,
            seed: 0,
        }
    }

    /// The standard model architecture for every experiment.
    pub fn model_config(&self) -> ModelConfig {
        ModelConfig {
            seed: self.seed,
            ..ModelConfig::default()
        }
    }

    /// The standard sampler (`l = 1`, as in the paper's main protocol).
    pub fn sampler(&self) -> SamplerConfig {
        SamplerConfig::default()
    }

    /// The standard pre-training configuration.
    pub fn pretrain_config(&self) -> PretrainConfig {
        PretrainConfig {
            steps: self.pre_steps,
            seed: self.seed,
            sampler: self.sampler(),
            ..PretrainConfig::default()
        }
    }

    /// The standard evaluation protocol (3-shot, N = 10) under `stages`.
    /// Methods with their own stage rule ([`PromptGraph`]) override
    /// `stages`; the encoder baselines ignore it.
    pub fn inference_config(&self, stages: StageConfig) -> InferenceConfig {
        InferenceConfig {
            shots: 3,
            candidates_per_class: 10,
            stages,
            sampler: self.sampler(),
            seed: self.seed,
            ..InferenceConfig::default()
        }
    }

    /// Contrastive pre-training configuration (shared by Contrastive,
    /// Finetune and ProG).
    pub fn contrastive_config(&self) -> ContrastiveConfig {
        ContrastiveConfig {
            steps: self.pre_steps.max(100),
            seed: self.seed,
            ..ContrastiveConfig::default()
        }
    }
}

/// Lazily-built datasets and trained models shared across experiments.
///
/// Two pre-training domains exist, mirroring the paper: MAG240M-like →
/// arXiv-like (node tasks) and Wiki-like → the KG datasets (edge tasks).
/// Each accessor builds its slot on first use and borrows it afterwards,
/// so an experiment can hold several datasets and models at once.
#[derive(Default)]
pub struct Ctx {
    /// Scale knobs.
    pub suite: Suite,
    mag: OnceCell<Dataset>,
    wiki: OnceCell<Dataset>,
    arxiv: OnceCell<Dataset>,
    conceptnet: OnceCell<Dataset>,
    fb: OnceCell<Dataset>,
    nell: OnceCell<Dataset>,
    gp_mag: OnceCell<PromptGraph>,
    gp_wiki: OnceCell<PromptGraph>,
    prodigy_mag: OnceCell<PromptGraph>,
    prodigy_wiki: OnceCell<PromptGraph>,
    ofa_mag: OnceCell<PromptGraph>,
    ofa_wiki: OnceCell<PromptGraph>,
    contrastive_mag: OnceCell<Contrastive>,
    contrastive_wiki: OnceCell<Contrastive>,
    /// Figure artifacts that could not be written, see [`Ctx::write_result`].
    artifact_errors: RefCell<Vec<String>>,
}

impl Ctx {
    /// Fresh lazy registry.
    pub fn new(suite: Suite) -> Self {
        Self {
            suite,
            ..Default::default()
        }
    }

    /// Write one figure artifact to `results/<name>`, creating the
    /// directory first. A failure is recorded, not swallowed:
    /// [`Ctx::artifacts_written`] reports it, so an unwritable `results/`
    /// fails the run instead of leaving stale files behind.
    pub fn write_result(&self, name: &str, contents: impl AsRef<[u8]>) {
        let path = Path::new("results").join(name);
        let written =
            std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, contents));
        if let Err(e) = written {
            self.artifact_errors
                .borrow_mut()
                .push(format!("cannot write {}: {e}", path.display()));
        }
    }

    /// `Err` naming every artifact [`Ctx::write_result`] failed to write.
    pub fn artifacts_written(&self) -> Result<(), String> {
        let errors = self.artifact_errors.borrow();
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors.join("\n"))
        }
    }

    /// MAG240M-like node-task pre-training source.
    pub fn mag(&self) -> &Dataset {
        self.mag
            .get_or_init(|| presets::mag240m_like(self.suite.seed))
    }

    /// Wiki-like edge-task pre-training source.
    pub fn wiki(&self) -> &Dataset {
        self.wiki
            .get_or_init(|| presets::wiki_like(self.suite.seed))
    }

    /// arXiv-like node-task target.
    pub fn arxiv(&self) -> &Dataset {
        self.arxiv
            .get_or_init(|| presets::arxiv_like(self.suite.seed))
    }

    /// ConceptNet-like edge-task target.
    pub fn conceptnet(&self) -> &Dataset {
        self.conceptnet
            .get_or_init(|| presets::conceptnet_like(self.suite.seed))
    }

    /// FB15K-237-like edge-task target.
    pub fn fb(&self) -> &Dataset {
        self.fb
            .get_or_init(|| presets::fb15k237_like(self.suite.seed))
    }

    /// NELL-like edge-task target.
    pub fn nell(&self) -> &Dataset {
        self.nell
            .get_or_init(|| presets::nell_like(self.suite.seed))
    }

    /// A prompt-graph method pre-trained on `source` with the suite's
    /// model and pre-training configs.
    fn pretrain(
        &self,
        method: fn(&Dataset, ModelConfig, &PretrainConfig) -> PromptGraph,
        source: &Dataset,
    ) -> PromptGraph {
        method(
            source,
            self.suite.model_config(),
            &self.suite.pretrain_config(),
        )
    }

    /// GraphPrompter pre-trained on the node-task source (MAG-like).
    pub fn gp_mag(&self) -> &PromptGraph {
        self.gp_mag
            .get_or_init(|| self.pretrain(PromptGraph::graphprompter, self.mag()))
    }

    /// GraphPrompter pre-trained on the edge-task source (Wiki-like).
    pub fn gp_wiki(&self) -> &PromptGraph {
        self.gp_wiki
            .get_or_init(|| self.pretrain(PromptGraph::graphprompter, self.wiki()))
    }

    /// Prodigy pre-trained on the node-task source.
    pub fn prodigy_mag(&self) -> &PromptGraph {
        self.prodigy_mag
            .get_or_init(|| self.pretrain(PromptGraph::prodigy, self.mag()))
    }

    /// Prodigy pre-trained on the edge-task source.
    pub fn prodigy_wiki(&self) -> &PromptGraph {
        self.prodigy_wiki
            .get_or_init(|| self.pretrain(PromptGraph::prodigy, self.wiki()))
    }

    /// OFA analog pre-trained on the node-task source.
    pub fn ofa_mag(&self) -> &PromptGraph {
        self.ofa_mag
            .get_or_init(|| self.pretrain(PromptGraph::ofa, self.mag()))
    }

    /// OFA analog pre-trained on the edge-task source.
    pub fn ofa_wiki(&self) -> &PromptGraph {
        self.ofa_wiki
            .get_or_init(|| self.pretrain(PromptGraph::ofa, self.wiki()))
    }

    /// Contrastive encoder pre-trained on the node-task source.
    pub fn contrastive_mag(&self) -> &Contrastive {
        self.contrastive_mag
            .get_or_init(|| Contrastive::pretrain(self.mag(), self.suite.contrastive_config()))
    }

    /// Contrastive encoder pre-trained on the edge-task source.
    pub fn contrastive_wiki(&self) -> &Contrastive {
        self.contrastive_wiki
            .get_or_init(|| Contrastive::pretrain(self.wiki(), self.suite.contrastive_config()))
    }

    /// Fresh NoPretrain baseline (cheap; not cached).
    pub fn no_pretrain(&self) -> PromptGraph {
        PromptGraph::no_pretrain(self.suite.model_config())
    }

    /// The contrastive encoder of a pre-training domain: MAG-like for
    /// node tasks, Wiki-like for edge tasks.
    fn contrastive(&self, node_domain: bool) -> &Contrastive {
        if node_domain {
            self.contrastive_mag()
        } else {
            self.contrastive_wiki()
        }
    }

    /// Finetune baseline over the domain's cached contrastive encoder.
    pub fn finetune(&self, node_domain: bool) -> Finetune<'_> {
        Finetune::new(self.contrastive(node_domain))
    }

    /// ProG baseline over the domain's cached contrastive encoder.
    pub fn prog(&self, node_domain: bool) -> ProG<'_> {
        ProG::new(self.contrastive(node_domain))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_builds_each_slot_once_and_lends_several_at_once() {
        use gp_baselines::IclBaseline;
        let ctx = Ctx::new(Suite {
            pre_steps: 1,
            episodes: 1,
            queries: 2,
            seed: 0,
        });
        let fb = ctx.fb();
        let gp = ctx.gp_wiki();
        // A dataset and a model borrowed together, as every experiment does.
        let cfg = ctx.suite.inference_config(StageConfig::full());
        let accs = gp.evaluate(fb, 2, ctx.suite.queries, 1, &cfg);
        assert_eq!(accs.len(), 1);
        assert!(std::ptr::eq(fb, ctx.fb()));
        assert!(std::ptr::eq(gp, ctx.gp_wiki()));
        assert!(std::ptr::eq(ctx.wiki(), ctx.wiki()));
    }
}
