//! Shared experiment plumbing: standard configurations, a lazily-trained
//! model/dataset registry ([`Ctx`]), and the GraphPrompter method wrapper.

use std::cell::{OnceCell, RefCell};
use std::path::Path;

use gp_baselines::{
    Contrastive, ContrastiveConfig, EvalProtocol, Finetune, IclBaseline, NoPretrain, Ofa, ProG,
    Prodigy,
};
use gp_core::{
    Engine, GraphPrompterModel, InferenceConfig, ModelConfig, PretrainConfig, StageConfig,
    TrainingCurve,
};
use gp_datasets::{presets, Dataset, Task};
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

    /// The standard evaluation protocol (3-shot, N = 10).
    pub fn protocol(&self) -> EvalProtocol {
        EvalProtocol {
            shots: 3,
            candidates_per_class: 10,
            queries: self.queries,
            sampler: self.sampler(),
            seed: self.seed,
        }
    }

    /// The standard GraphPrompter inference configuration.
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

/// A pre-trained GraphPrompter exposed through the baseline trait so
/// tables can sweep methods uniformly.
///
/// Per the paper (§V-B), the Prompt Augmenter is deployed on **edge
/// classification** tasks; node-classification evaluation runs with the
/// cache disabled. `evaluate` picks the stage set from the dataset task.
pub struct GraphPrompterMethod {
    /// The engine owning the pre-trained model (and the cross-episode
    /// embedding cache shared by every experiment that reuses it).
    pub engine: Engine,
    /// Pre-training curve (Fig. 9).
    pub curve: TrainingCurve,
}

impl GraphPrompterMethod {
    /// Pre-train the full method on `source`.
    #[expect(
        clippy::expect_used,
        reason = "engines are built from the suite's known-good configs"
    )]
    pub fn pretrain(source: &Dataset, suite: &Suite) -> Self {
        let mut engine = Engine::builder()
            .model_config(suite.model_config())
            .pretrain_config(suite.pretrain_config())
            .inference_config(suite.inference_config(StageConfig::full()))
            .try_build()
            .expect("suite configs must be valid");
        let curve = engine.pretrain(source);
        Self { engine, curve }
    }

    /// The pre-trained model.
    pub fn model(&self) -> &GraphPrompterModel {
        self.engine.model()
    }

    /// Stage set used for `dataset` (augmenter only on edge tasks).
    pub fn stages_for(task: Task) -> StageConfig {
        match task {
            Task::EdgeClassification => StageConfig::full(),
            Task::NodeClassification => StageConfig::without_augmenter(),
        }
    }

    /// Same pre-trained weights, explicit stage toggles (ablations).
    pub fn with_stages(&self, stages: StageConfig) -> GraphPrompterView<'_> {
        GraphPrompterView {
            engine: &self.engine,
            stages,
        }
    }
}

impl IclBaseline for GraphPrompterMethod {
    fn name(&self) -> &str {
        "GraphPrompter"
    }

    fn evaluate(
        &self,
        dataset: &Dataset,
        ways: usize,
        episodes: usize,
        protocol: &EvalProtocol,
    ) -> Vec<f32> {
        self.with_stages(Self::stages_for(dataset.task))
            .evaluate(dataset, ways, episodes, protocol)
    }
}

/// Borrowed view of a pre-trained engine with explicit stage toggles.
pub struct GraphPrompterView<'m> {
    /// The shared pre-trained engine.
    pub engine: &'m Engine,
    /// Toggles for this view.
    pub stages: StageConfig,
}

impl IclBaseline for GraphPrompterView<'_> {
    fn name(&self) -> &str {
        "GraphPrompter(view)"
    }

    fn evaluate(
        &self,
        dataset: &Dataset,
        ways: usize,
        episodes: usize,
        protocol: &EvalProtocol,
    ) -> Vec<f32> {
        let cfg = InferenceConfig {
            shots: protocol.shots,
            candidates_per_class: protocol.candidates_per_class,
            stages: self.stages,
            sampler: protocol.sampler,
            seed: protocol.seed,
            ..InferenceConfig::default()
        };
        self.engine
            .evaluate_with(dataset, ways, protocol.queries, episodes, &cfg)
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
    gp_mag: OnceCell<GraphPrompterMethod>,
    gp_wiki: OnceCell<GraphPrompterMethod>,
    prodigy_mag: OnceCell<Prodigy>,
    prodigy_wiki: OnceCell<Prodigy>,
    ofa_mag: OnceCell<Ofa>,
    ofa_wiki: OnceCell<Ofa>,
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

    /// The pre-training source of a domain: MAG-like for node tasks,
    /// Wiki-like for edge tasks.
    fn source(&self, node_domain: bool) -> &Dataset {
        if node_domain {
            self.mag()
        } else {
            self.wiki()
        }
    }

    /// GraphPrompter pre-trained on the node-task source (MAG-like).
    pub fn gp_mag(&self) -> &GraphPrompterMethod {
        self.gp_mag
            .get_or_init(|| GraphPrompterMethod::pretrain(self.mag(), &self.suite))
    }

    /// GraphPrompter pre-trained on the edge-task source (Wiki-like).
    pub fn gp_wiki(&self) -> &GraphPrompterMethod {
        self.gp_wiki
            .get_or_init(|| GraphPrompterMethod::pretrain(self.wiki(), &self.suite))
    }

    /// Prodigy pre-trained on the node-task source.
    pub fn prodigy_mag(&self) -> &Prodigy {
        self.prodigy_mag.get_or_init(|| {
            Prodigy::pretrain(
                self.mag(),
                self.suite.model_config(),
                &self.suite.pretrain_config(),
            )
        })
    }

    /// Prodigy pre-trained on the edge-task source.
    pub fn prodigy_wiki(&self) -> &Prodigy {
        self.prodigy_wiki.get_or_init(|| {
            Prodigy::pretrain(
                self.wiki(),
                self.suite.model_config(),
                &self.suite.pretrain_config(),
            )
        })
    }

    /// OFA analog pre-trained on the node-task source.
    pub fn ofa_mag(&self) -> &Ofa {
        self.ofa_mag.get_or_init(|| {
            Ofa::pretrain(
                self.mag(),
                self.suite.model_config(),
                &self.suite.pretrain_config(),
            )
        })
    }

    /// OFA analog pre-trained on the edge-task source.
    pub fn ofa_wiki(&self) -> &Ofa {
        self.ofa_wiki.get_or_init(|| {
            Ofa::pretrain(
                self.wiki(),
                self.suite.model_config(),
                &self.suite.pretrain_config(),
            )
        })
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
    pub fn no_pretrain(&self) -> NoPretrain {
        NoPretrain::new(self.suite.model_config())
    }

    /// Finetune baseline over a freshly pre-trained contrastive encoder
    /// for the given pre-training domain. (The encoder is re-trained
    /// rather than shared because the baselines take ownership; the cost
    /// is ~1 s and determinism makes the copies identical.)
    pub fn finetune(&self, node_domain: bool) -> Finetune {
        Finetune::new(Contrastive::pretrain(
            self.source(node_domain),
            self.suite.contrastive_config(),
        ))
    }

    /// ProG baseline over a freshly pre-trained contrastive encoder.
    pub fn prog(&self, node_domain: bool) -> ProG {
        ProG::new(Contrastive::pretrain(
            self.source(node_domain),
            self.suite.contrastive_config(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_builds_each_slot_once_and_lends_several_at_once() {
        let ctx = Ctx::new(Suite {
            pre_steps: 1,
            episodes: 1,
            queries: 2,
            seed: 0,
        });
        let fb = ctx.fb();
        let gp = ctx.gp_wiki();
        // A dataset and a model borrowed together, as every experiment does.
        let accs = gp.evaluate(fb, 2, 1, &ctx.suite.protocol());
        assert_eq!(accs.len(), 1);
        assert!(std::ptr::eq(fb, ctx.fb()));
        assert!(std::ptr::eq(gp, ctx.gp_wiki()));
        assert!(std::ptr::eq(ctx.wiki(), ctx.wiki()));
    }
}
