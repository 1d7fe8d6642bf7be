//! One module per table/figure of the paper's evaluation section.
//!
//! Every experiment takes the lazy [`Ctx`] registry and returns a markdown
//! section (measured results + the paper's reference numbers + a shape
//! check). The `experiments` binary prints single sections or assembles
//! all of them into EXPERIMENTS.md.

pub mod ext;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod table8;

use crate::harness::Ctx;

/// All experiment ids in paper order.
pub const ALL_IDS: &[&str] = &[
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "ext-metrics",
    "ext-cache-policy",
    "ext-design",
];

/// Run one experiment by id; returns its markdown section.
pub fn run(id: &str, ctx: &Ctx) -> Option<String> {
    Some(match id {
        "table3" => table3::run(ctx),
        "table4" => table4::run(ctx),
        "table5" => table5::run(ctx),
        "table6" => table6::run(ctx),
        "table7" => table7::run(ctx),
        "table8" => table8::run(ctx),
        "fig3" => fig3::run(ctx),
        "fig4" => fig4::run(ctx),
        "fig5" => fig5::run(ctx),
        "fig6" => fig6::run(ctx),
        "fig7" => fig7::run(ctx),
        "fig8" => fig8::run(ctx),
        "fig9" => fig9::run(ctx),
        "ext-metrics" => ext::metrics(ctx),
        "ext-cache-policy" => ext::cache_policy(ctx),
        "ext-design" => ext::design_choices(ctx),
        _ => return None,
    })
}

/// Header written at the top of EXPERIMENTS.md.
pub fn preamble(ctx: &Ctx) -> String {
    format!(
        "# EXPERIMENTS — paper vs. measured\n\n\
         Generated by `cargo run -p gp-bench --release --bin experiments -- all`.\n\n\
         Substrate: synthetic stand-ins for the paper's datasets (see DESIGN.md's\n\
         substitution table); absolute numbers are therefore not comparable to the\n\
         paper — each section reports the paper's values for reference and checks\n\
         the **shape** of the result (who wins, how trends move).\n\n\
         Scale: pre_steps = {}, episodes/cell = {}, queries/episode = {} \
         (paper: 10k steps, 500 test samples). Figure experiments write \
         SVG/CSV artifacts into `results/`.\n",
        ctx.suite.pre_steps, ctx.suite.episodes, ctx.suite.queries
    )
}

/// Format a mean±std cell.
pub(crate) fn cell(stats: &gp_eval::MeanStd) -> String {
    stats.to_string()
}

/// Evaluate and aggregate a method over one table cell under the
/// suite's standard protocol.
pub(crate) fn agg(
    method: &dyn gp_baselines::IclBaseline,
    dataset: &gp_datasets::Dataset,
    ways: usize,
    suite: &crate::Suite,
) -> gp_eval::MeanStd {
    let cfg = suite.inference_config(gp_core::StageConfig::default());
    gp_eval::MeanStd::of(&method.evaluate(dataset, ways, suite.queries, suite.episodes, &cfg))
}
