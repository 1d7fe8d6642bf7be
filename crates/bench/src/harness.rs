//! Shared experiment plumbing: standard configurations, a lazily-trained
//! model/dataset registry ([`Ctx`]), and the GraphPrompter method wrapper.

#![expect(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "the lazy registry unwraps the slot each accessor filled just above, and engines are built from the suite's known-good configs"
)]

use std::cell::RefCell;
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
#[derive(Default)]
pub struct Ctx {
    /// Scale knobs.
    pub suite: Suite,
    mag: Option<Dataset>,
    wiki: Option<Dataset>,
    arxiv: Option<Dataset>,
    conceptnet: Option<Dataset>,
    fb: Option<Dataset>,
    nell: Option<Dataset>,
    gp_mag: Option<GraphPrompterMethod>,
    gp_wiki: Option<GraphPrompterMethod>,
    prodigy_mag: Option<Prodigy>,
    prodigy_wiki: Option<Prodigy>,
    ofa_mag: Option<Ofa>,
    ofa_wiki: Option<Ofa>,
    contrastive_mag: Option<Contrastive>,
    contrastive_wiki: Option<Contrastive>,
    /// Figure artifacts that could not be written, see [`Ctx::write_result`].
    artifact_errors: RefCell<Vec<String>>,
}

macro_rules! lazy_dataset {
    ($fn_name:ident, $field:ident, $preset:ident) => {
        /// Lazily-generated dataset.
        pub fn $fn_name(&mut self) -> &Dataset {
            if self.$field.is_none() {
                self.$field = Some(presets::$preset(self.suite.seed));
            }
            self.$field.as_ref().unwrap()
        }
    };
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

    lazy_dataset!(mag, mag, mag240m_like);
    lazy_dataset!(wiki, wiki, wiki_like);
    lazy_dataset!(arxiv, arxiv, arxiv_like);
    lazy_dataset!(conceptnet, conceptnet, conceptnet_like);
    lazy_dataset!(fb, fb, fb15k237_like);
    lazy_dataset!(nell, nell, nell_like);

    /// GraphPrompter pre-trained on the node-task source (MAG-like).
    pub fn gp_mag(&mut self) -> &GraphPrompterMethod {
        if self.gp_mag.is_none() {
            let suite = self.suite.clone();
            self.mag();
            self.gp_mag = Some(GraphPrompterMethod::pretrain(
                self.mag.as_ref().unwrap(),
                &suite,
            ));
        }
        self.gp_mag.as_ref().unwrap()
    }

    /// GraphPrompter pre-trained on the edge-task source (Wiki-like).
    pub fn gp_wiki(&mut self) -> &GraphPrompterMethod {
        if self.gp_wiki.is_none() {
            let suite = self.suite.clone();
            self.wiki();
            self.gp_wiki = Some(GraphPrompterMethod::pretrain(
                self.wiki.as_ref().unwrap(),
                &suite,
            ));
        }
        self.gp_wiki.as_ref().unwrap()
    }

    /// Prodigy pre-trained on the node-task source.
    pub fn prodigy_mag(&mut self) -> &Prodigy {
        if self.prodigy_mag.is_none() {
            let suite = self.suite.clone();
            self.mag();
            self.prodigy_mag = Some(Prodigy::pretrain(
                self.mag.as_ref().unwrap(),
                suite.model_config(),
                &suite.pretrain_config(),
            ));
        }
        self.prodigy_mag.as_ref().unwrap()
    }

    /// Prodigy pre-trained on the edge-task source.
    pub fn prodigy_wiki(&mut self) -> &Prodigy {
        if self.prodigy_wiki.is_none() {
            let suite = self.suite.clone();
            self.wiki();
            self.prodigy_wiki = Some(Prodigy::pretrain(
                self.wiki.as_ref().unwrap(),
                suite.model_config(),
                &suite.pretrain_config(),
            ));
        }
        self.prodigy_wiki.as_ref().unwrap()
    }

    /// OFA analog pre-trained on the node-task source.
    pub fn ofa_mag(&mut self) -> &Ofa {
        if self.ofa_mag.is_none() {
            let suite = self.suite.clone();
            self.mag();
            self.ofa_mag = Some(Ofa::pretrain(
                self.mag.as_ref().unwrap(),
                suite.model_config(),
                &suite.pretrain_config(),
            ));
        }
        self.ofa_mag.as_ref().unwrap()
    }

    /// OFA analog pre-trained on the edge-task source.
    pub fn ofa_wiki(&mut self) -> &Ofa {
        if self.ofa_wiki.is_none() {
            let suite = self.suite.clone();
            self.wiki();
            self.ofa_wiki = Some(Ofa::pretrain(
                self.wiki.as_ref().unwrap(),
                suite.model_config(),
                &suite.pretrain_config(),
            ));
        }
        self.ofa_wiki.as_ref().unwrap()
    }

    /// Contrastive encoder pre-trained on the node-task source.
    pub fn contrastive_mag(&mut self) -> &Contrastive {
        if self.contrastive_mag.is_none() {
            let cfg = self.suite.contrastive_config();
            self.mag();
            self.contrastive_mag = Some(Contrastive::pretrain(self.mag.as_ref().unwrap(), cfg));
        }
        self.contrastive_mag.as_ref().unwrap()
    }

    /// Contrastive encoder pre-trained on the edge-task source.
    pub fn contrastive_wiki(&mut self) -> &Contrastive {
        if self.contrastive_wiki.is_none() {
            let cfg = self.suite.contrastive_config();
            self.wiki();
            self.contrastive_wiki = Some(Contrastive::pretrain(self.wiki.as_ref().unwrap(), cfg));
        }
        self.contrastive_wiki.as_ref().unwrap()
    }

    /// Immutable access to an already-built dataset/model. The lazy `&mut`
    /// accessors build; these borrow, so an experiment can hold a model
    /// and a dataset at once.
    ///
    /// # Panics
    /// Panics if the corresponding lazy accessor has not run yet.
    pub fn arxiv_ref(&self) -> &Dataset {
        self.arxiv.as_ref().expect("call ctx.arxiv() first")
    }

    /// See [`Ctx::arxiv_ref`].
    pub fn conceptnet_ref(&self) -> &Dataset {
        self.conceptnet
            .as_ref()
            .expect("call ctx.conceptnet() first")
    }

    /// See [`Ctx::arxiv_ref`].
    pub fn fb_ref(&self) -> &Dataset {
        self.fb.as_ref().expect("call ctx.fb() first")
    }

    /// See [`Ctx::arxiv_ref`].
    pub fn nell_ref(&self) -> &Dataset {
        self.nell.as_ref().expect("call ctx.nell() first")
    }

    /// See [`Ctx::arxiv_ref`].
    pub fn wiki_ref(&self) -> &Dataset {
        self.wiki.as_ref().expect("call ctx.wiki() first")
    }

    /// See [`Ctx::arxiv_ref`].
    pub fn mag_ref(&self) -> &Dataset {
        self.mag.as_ref().expect("call ctx.mag() first")
    }

    /// See [`Ctx::arxiv_ref`].
    pub fn gp_mag_ref(&self) -> &GraphPrompterMethod {
        self.gp_mag.as_ref().expect("call ctx.gp_mag() first")
    }

    /// See [`Ctx::arxiv_ref`].
    pub fn gp_wiki_ref(&self) -> &GraphPrompterMethod {
        self.gp_wiki.as_ref().expect("call ctx.gp_wiki() first")
    }

    /// See [`Ctx::arxiv_ref`].
    pub fn prodigy_mag_ref(&self) -> &Prodigy {
        self.prodigy_mag
            .as_ref()
            .expect("call ctx.prodigy_mag() first")
    }

    /// See [`Ctx::arxiv_ref`].
    pub fn prodigy_wiki_ref(&self) -> &Prodigy {
        self.prodigy_wiki
            .as_ref()
            .expect("call ctx.prodigy_wiki() first")
    }

    /// See [`Ctx::arxiv_ref`].
    pub fn ofa_mag_ref(&self) -> &Ofa {
        self.ofa_mag.as_ref().expect("call ctx.ofa_mag() first")
    }

    /// See [`Ctx::arxiv_ref`].
    pub fn ofa_wiki_ref(&self) -> &Ofa {
        self.ofa_wiki.as_ref().expect("call ctx.ofa_wiki() first")
    }

    /// See [`Ctx::arxiv_ref`].
    pub fn contrastive_mag_ref(&self) -> &Contrastive {
        self.contrastive_mag
            .as_ref()
            .expect("call ctx.contrastive_mag() first")
    }

    /// See [`Ctx::arxiv_ref`].
    pub fn contrastive_wiki_ref(&self) -> &Contrastive {
        self.contrastive_wiki
            .as_ref()
            .expect("call ctx.contrastive_wiki() first")
    }

    /// Fresh NoPretrain baseline (cheap; not cached).
    pub fn no_pretrain(&self) -> NoPretrain {
        NoPretrain::new(self.suite.model_config())
    }

    /// Finetune baseline over a freshly pre-trained contrastive encoder
    /// for the given pre-training domain. (The encoder is re-trained
    /// rather than shared because the baselines take ownership; the cost
    /// is ~1 s and determinism makes the copies identical.)
    pub fn finetune(&mut self, node_domain: bool) -> Finetune {
        let cfg = self.suite.contrastive_config();
        let enc = if node_domain {
            self.mag();
            Contrastive::pretrain(self.mag.as_ref().unwrap(), cfg)
        } else {
            self.wiki();
            Contrastive::pretrain(self.wiki.as_ref().unwrap(), cfg)
        };
        Finetune::new(enc)
    }

    /// ProG baseline over a freshly pre-trained contrastive encoder.
    pub fn prog(&mut self, node_domain: bool) -> ProG {
        let cfg = self.suite.contrastive_config();
        let enc = if node_domain {
            self.mag();
            Contrastive::pretrain(self.mag.as_ref().unwrap(), cfg)
        } else {
            self.wiki();
            Contrastive::pretrain(self.wiki.as_ref().unwrap(), cfg)
        };
        ProG::new(enc)
    }
}
