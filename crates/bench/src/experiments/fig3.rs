//! Fig. 3 — component ablation on FB15K-237-like and NELL-like, 3-shot,
//! ways ∈ {5, 10, 20, 40}: full vs w/o generator (reconstruction) vs
//! w/o kNN vs w/o selection layer vs w/o augmenter vs the Prodigy floor.
//! One pre-trained model serves all toggles (inference-time ablation).

use gp_baselines::IclBaseline;
use gp_core::StageConfig;
use gp_eval::{line_chart, MeanStd, Series, Table};

use crate::harness::Ctx;

const WAYS: [usize; 4] = [5, 10, 20, 40];

const PAPER: &str = "Paper Fig. 3: every bar (w/o one component) sits below the full \
                     method and above the Prodigy baseline; 'w/o kNN' is only ≈1% above \
                     baseline, so kNN retrieval carries most of the selector's gain.";

/// Run the experiment; returns a markdown section.
pub fn run(ctx: &Ctx) -> String {
    let suite = &ctx.suite;
    let protocol = suite.protocol();
    let episodes = suite.episodes;

    let variants: Vec<(&str, StageConfig)> = vec![
        ("full", StageConfig::full()),
        ("w/o generator", StageConfig::without_reconstruction()),
        ("w/o kNN", StageConfig::without_knn()),
        (
            "w/o selection layer",
            StageConfig::without_selection_layer(),
        ),
        ("w/o augmenter", StageConfig::without_augmenter()),
        ("Prodigy (all off)", StageConfig::prodigy()),
    ];

    let mut out = String::from("## Fig. 3 — component ablation\n\n");
    let mut full_avg = 0.0f32;
    let mut floor_avg = 0.0f32;
    let mut cells = 0usize;

    for key in ["fb15k237", "nell"] {
        let ds = if key == "fb15k237" {
            ctx.fb()
        } else {
            ctx.nell()
        };
        let gp = ctx.gp_wiki();
        let mut table = Table::new(
            format!("Fig. 3 (measured): {} accuracy (%)", ds.name),
            &["Variant", "5-way", "10-way", "20-way", "40-way"],
        );
        let mut svg_series: Vec<Series> = Vec::new();
        for (name, stages) in &variants {
            let mut row = vec![name.to_string()];
            let mut points = Vec::new();
            for &w in &WAYS {
                let stats =
                    MeanStd::of(&gp.with_stages(*stages).evaluate(ds, w, episodes, &protocol));
                if *name == "full" {
                    full_avg += stats.mean;
                    cells += 1;
                }
                if *name == "Prodigy (all off)" {
                    floor_avg += stats.mean;
                }
                points.push((w as f32, stats.mean));
                row.push(stats.to_string());
            }
            svg_series.push(Series::new(name.to_string(), points));
            table.row(&row);
        }
        ctx.write_result(
            &format!("fig3_{key}_ablation.svg"),
            line_chart(
                &format!("Fig. 3: {} ablation", ds.name),
                "ways",
                "accuracy (%)",
                &svg_series,
            ),
        );
        out += &table.to_markdown();
        out += "\n";
    }
    out += "Plots written to `results/fig3_*_ablation.svg`.\n\n";

    full_avg /= cells as f32;
    floor_avg /= cells as f32;
    out += &format!(
        "{PAPER}\n\n**Shape checks**\n\n\
         - Full method avg {full_avg:.1}% above the all-off floor avg {floor_avg:.1}%: {}\n\
         - Known substrate deviation: the augmenter's stand-alone gain did not \
         transfer to the synthetic datasets (it is ≈neutral here; see DESIGN.md \
         §augmenter notes), so 'w/o augmenter' ≈ 'full'.\n",
        if full_avg > floor_avg {
            "REPRODUCED"
        } else {
            "NOT REPRODUCED"
        }
    );
    out
}
