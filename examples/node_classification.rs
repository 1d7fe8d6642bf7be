//! The paper's node-classification scenario (Table III): pre-train on the
//! MAG240M stand-in, transfer in-context to the arXiv stand-in, and
//! compare GraphPrompter against the NoPretrain / Prodigy baselines at
//! several way counts.
//!
//! ```text
//! cargo run --release --example node_classification
//! ```

use graphprompter::baselines::{IclBaseline, PromptGraph};
use graphprompter::eval::{MeanStd, Table};
use graphprompter::prelude::*;

fn main() {
    let suite_seed = 0;
    let source = presets::mag240m_like(suite_seed);
    let target = presets::arxiv_like(suite_seed);
    println!(
        "pre-train on {} ({} nodes, {} classes) → evaluate on {} ({} nodes, {} classes)\n",
        source.name,
        source.graph.num_nodes(),
        source.num_classes,
        target.name,
        target.graph.num_nodes(),
        target.num_classes
    );

    let model_cfg = ModelConfig::default();
    let pre_cfg = PretrainConfig::default();

    // GraphPrompter runs node tasks without the augmenter (§V-B).
    let gp = PromptGraph::graphprompter(&source, model_cfg.clone(), &pre_cfg);
    let prodigy = PromptGraph::prodigy(&source, model_cfg.clone(), &pre_cfg);
    let no_pre = PromptGraph::no_pretrain(model_cfg);

    let cfg = InferenceConfig::default();
    let (queries, episodes) = (30, 5);

    let mut table = Table::new(
        "arXiv-like in-context accuracy (%), 3-shot",
        &["Method", "5-way", "10-way", "20-way"],
    );
    for method in [&no_pre, &prodigy, &gp] {
        let mut row = vec![method.name().to_string()];
        for ways in [5, 10, 20] {
            let accs = method.evaluate(&target, ways, queries, episodes, &cfg);
            row.push(MeanStd::of(&accs).to_string());
        }
        table.row(&row);
    }

    println!("{}", table.to_markdown());
    println!("chance levels: 20% / 10% / 5%");
}
