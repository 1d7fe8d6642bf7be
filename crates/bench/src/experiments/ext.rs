//! Extension experiments beyond the paper's tables — the variations its
//! "Further Discussion" (§VI) names, plus ablations of this
//! reproduction's own design choices (DESIGN.md's calibration findings).

use gp_baselines::PromptGraph;
use gp_core::{CachePolicy, DistanceMetric, PseudoLabelPolicy, StageConfig};
use gp_eval::{MeanStd, Table};

use crate::harness::Ctx;

/// §VI: "In the retrieval stage, we can also use other clustering methods"
/// — Eq. 6's footnote lists Euclidean and Manhattan as drop-in metrics.
pub fn metrics(ctx: &Ctx) -> String {
    let suite = &ctx.suite;

    let mut out = String::from("## Extension — kNN distance metrics (Eq. 6 substitution)\n\n");
    let mut table = Table::new(
        "Retrieval metric comparison (measured), 5-way / 10-way accuracy (%)",
        &["Dataset", "Metric", "5-way", "10-way"],
    );
    for key in ["fb15k237", "nell"] {
        let ds = if key == "fb15k237" {
            ctx.fb()
        } else {
            ctx.nell()
        };
        let gp = ctx.gp_wiki();
        for (name, metric) in [
            ("cosine", DistanceMetric::Cosine),
            ("euclidean", DistanceMetric::Euclidean),
            ("manhattan", DistanceMetric::Manhattan),
        ] {
            let mut row = vec![ds.name.clone(), name.to_string()];
            for ways in [5usize, 10] {
                let mut cfg = suite.inference_config(StageConfig::full());
                cfg.knn_metric = metric;
                let stats = MeanStd::of(&gp.engine().evaluate_with(
                    ds,
                    ways,
                    suite.queries,
                    suite.episodes,
                    &cfg,
                ));
                row.push(stats.to_string());
            }
            table.row(&row);
        }
    }
    out += &table.to_markdown();
    out += "\nEuclidean/Manhattan run slightly ahead of cosine here rather than tying: \
Eq. 7 *sums* the similarity with the importance product, and the distance \
metrics span a wider numeric range on these embeddings, so the similarity \
term carries more weight in the combined score. The substitutability claim \
holds — every metric is effective — and the combination weighting is the \
lever a practitioner would tune.\n";
    out
}

/// §VI: "we can replace the cache in the prompt augmenter with other
/// caching solutions" — LFU (paper) vs LRU vs FIFO.
pub fn cache_policy(ctx: &Ctx) -> String {
    let suite = &ctx.suite;

    let mut out = String::from("## Extension — cache replacement policies (§VI substitution)\n\n");
    let mut table = Table::new(
        "Replacement policy comparison (measured), 5-way accuracy (%)",
        &["Dataset", "LFU (paper)", "LRU", "FIFO"],
    );
    for key in ["fb15k237", "nell"] {
        let ds = if key == "fb15k237" {
            ctx.fb()
        } else {
            ctx.nell()
        };
        let gp = ctx.gp_wiki();
        let mut row = vec![ds.name.clone()];
        for policy in [CachePolicy::Lfu, CachePolicy::Lru, CachePolicy::Fifo] {
            let mut cfg = suite.inference_config(StageConfig::full());
            cfg.cache_policy = policy;
            // A lower gate keeps the cache active so the policy matters.
            cfg.pseudo_labels = PseudoLabelPolicy::Confidence { min: 0.5 };
            let stats =
                MeanStd::of(
                    &gp.engine()
                        .evaluate_with(ds, 5, suite.queries, suite.episodes, &cfg),
                );
            row.push(stats.to_string());
        }
        table.row(&row);
    }
    out += &table.to_markdown();
    out += "\nWith per-class caches of size 3 the policies rarely diverge \
            (few entries, similar churn); LFU's hit-protection matters most \
            when similar queries recur, which the paper's spatial-locality \
            argument predicts.\n";
    out
}

/// Ablation benches for this reproduction's own design choices
/// (DESIGN.md's calibration findings #1 and #3).
pub fn design_choices(ctx: &Ctx) -> String {
    let suite = &ctx.suite;
    let cfg = suite.inference_config(StageConfig::full());

    let mut out = String::from("## Extension — reproduction design-choice ablations\n\n");
    let mut table = Table::new(
        "Design choices (measured), FB15K-237-like accuracy (%)",
        &["recon_normalize", "proto_residual", "5-way", "20-way"],
    );
    for (norm, residual) in [(true, false), (false, false), (true, true)] {
        let mut mc = suite.model_config();
        mc.recon_normalize = norm;
        mc.proto_residual = residual;
        let gp = PromptGraph::graphprompter(ctx.wiki(), mc, &suite.pretrain_config());
        let mut row = vec![norm.to_string(), residual.to_string()];
        for ways in [5usize, 20] {
            let stats = MeanStd::of(&gp.engine().evaluate_with(
                ctx.fb(),
                ways,
                suite.queries,
                suite.episodes,
                &cfg,
            ));
            row.push(stats.to_string());
        }
        table.row(&row);
    }
    out += &table.to_markdown();
    out += "\nRow 1 is the shipped configuration. Disabling per-destination \
            renormalization of the reconstruction weights (row 2) re-introduces \
            the aggregation-shrinkage bias; enabling the prototype residual \
            (row 3) anchors label embeddings at class means, which helps the \
            cache but washes out the Prompt Selector's advantage — see \
            DESIGN.md's calibration notes.\n";
    out
}
