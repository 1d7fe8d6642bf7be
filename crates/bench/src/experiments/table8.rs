//! Table VIII — per-query inference time, Prodigy vs GraphPrompter, on
//! FB15K-237-like and NELL-like at 10/20/40 ways.
//!
//! Absolute milliseconds are not comparable to the paper's A100 numbers;
//! the reproduced claim is the **ratio**: GraphPrompter costs ≈2–3× per
//! query because of candidate retrieval (O((N+q)·m·d)) and the doubled
//! prompt set in the task graph (Eqs. 15–16).

use gp_core::{PseudoLabelPolicy, StageConfig};
use gp_datasets::sample_few_shot_task;
use gp_eval::Table;
use gp_tensor::rng::StdRng;

use crate::harness::Ctx;

const WAYS: [usize; 3] = [10, 20, 40];

const PAPER: &str = "FB15K-237 Prodigy [34, 68, 106] ms vs GraphPrompter [90, 150, 280] ms; \
                     NELL Prodigy [26, 42, 82] ms vs GraphPrompter [80, 120, 240] ms \
                     (ratios ≈2.6, 2.2, 2.6 / 3.1, 2.9, 2.9)";

/// Measure mean per-query time (ms) for one method configuration.
fn time_per_query(ctx: &Ctx, ds: &gp_datasets::Dataset, ways: usize, stages: StageConfig) -> f64 {
    let suite = &ctx.suite;
    let cfg = {
        let mut c = suite.inference_config(stages);
        // Keep the cache engaged for the timing (it is part of the cost
        // the paper measures).
        c.pseudo_labels = PseudoLabelPolicy::Confidence { min: 0.2 };
        c
    };
    let gp = ctx.gp_wiki();
    let mut total = 0.0;
    let reps = suite.episodes.clamp(1, 3);
    for i in 0..reps {
        let mut ep_rng = StdRng::seed_from_u64(suite.seed + i as u64);
        let task = sample_few_shot_task(
            ds,
            ways,
            cfg.candidates_per_class,
            suite.queries,
            &mut ep_rng,
        );
        // Cold embedding cache per episode: the paper times full
        // inference, candidate embedding included.
        gp.engine().clear_embed_cache();
        let res = gp.engine().run_episode_with(ds, &task, &cfg);
        total += res.per_query_micros / 1000.0;
    }
    total / reps as f64
}

/// Run the experiment; returns a markdown section.
pub fn run(ctx: &Ctx) -> String {
    let mut out = String::from("## Table VIII — per-query inference time\n\n");
    let mut table = Table::new(
        "Table VIII (measured): mean per-query time (ms)",
        &["Dataset", "Method", "10-way", "20-way", "40-way"],
    );
    let mut ratios = Vec::new();

    for key in ["fb15k237", "nell"] {
        let ds = if key == "fb15k237" {
            ctx.fb()
        } else {
            ctx.nell()
        };
        let mut prodigy_ms = Vec::new();
        let mut gp_ms = Vec::new();
        for &w in &WAYS {
            prodigy_ms.push(time_per_query(ctx, ds, w, StageConfig::prodigy()));
            gp_ms.push(time_per_query(ctx, ds, w, StageConfig::full()));
        }
        let fmt = |v: &[f64]| v.iter().map(|x| format!("{x:.2}")).collect::<Vec<_>>();
        let p = fmt(&prodigy_ms);
        let g = fmt(&gp_ms);
        table.row(&[
            ds.name.clone(),
            "Prodigy".into(),
            p[0].clone(),
            p[1].clone(),
            p[2].clone(),
        ]);
        table.row(&[
            ds.name.clone(),
            "GraphPrompter".into(),
            g[0].clone(),
            g[1].clone(),
            g[2].clone(),
        ]);
        for (pm, gm) in prodigy_ms.iter().zip(&gp_ms) {
            ratios.push(gm / pm.max(1e-9));
        }
    }

    let mean_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
    out += &table.to_markdown();
    out += &format!(
        "\n### Table VIII (paper, for reference)\n\n{PAPER}\n\n\
         **Shape checks**\n\n\
         - GraphPrompter/Prodigy time ratio {:.2}× on average \
         (paper: ≈2–3×, and the paper notes the retrieval module is pluggable): {}\n",
        mean_ratio,
        verdict(mean_ratio)
    );
    out
}

/// REPRODUCED at or above the paper's ≈2× floor, DEVIATES (with the
/// cause) below it.
fn verdict(mean_ratio: f64) -> &'static str {
    if mean_ratio >= RATIO_FLOOR {
        "REPRODUCED"
    } else {
        "DEVIATES — below the paper's ≈2× floor: the stages only \
         GraphPrompter runs (reconstruction, kNN retrieval, augmentation) are \
         cheap next to the sampling, GNN_D embedding and task graph both \
         methods run. The synthetic data graphs hold at most 30 nodes, and \
         reconstruction computes each distinct edge triple of an episode once"
    }
}

/// The low end of the paper's per-query time ratios (2.2–3.1).
const RATIO_FLOOR: f64 = 2.0;
