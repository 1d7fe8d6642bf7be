//! Fig. 9 — pre-training loss and accuracy curves on the Wiki-like source,
//! GraphPrompter vs Prodigy. The paper's point: the reconstruction and
//! selection layers add negligible cost, so the curves are comparable in
//! both convergence speed and reached accuracy.

use gp_eval::{line_chart, Series, Table};

use crate::harness::Ctx;

const PAPER: &str = "Paper Fig. 9: over 10k steps on Wiki the two methods' loss and \
                     training-accuracy curves overlap; the MLPs' extra cost is \
                     negligible next to the GNNs (§V-F).";

/// Run the experiment; returns a markdown section.
pub fn run(ctx: &Ctx) -> String {
    let gp_curve = ctx.gp_wiki().curve();
    let pr_curve = ctx.prodigy_wiki().curve();

    let mut table = Table::new(
        "Fig. 9 (measured): pre-training curves on wiki-like",
        &["Step", "GP loss", "GP acc", "Prodigy loss", "Prodigy acc"],
    );
    // The two curves share the logging schedule (same PretrainConfig).
    let n = gp_curve.steps.len().min(pr_curve.steps.len());
    // Downsample to at most 12 rows for the report.
    let stride = (n / 12).max(1);
    for i in (0..n).step_by(stride) {
        table.row(&[
            gp_curve.steps[i].to_string(),
            format!("{:.3}", gp_curve.loss[i]),
            format!("{:.2}", gp_curve.accuracy[i]),
            format!("{:.3}", pr_curve.loss[i]),
            format!("{:.2}", pr_curve.accuracy[i]),
        ]);
    }

    let series = |vals: &[f32], steps: &[usize]| -> Vec<(f32, f32)> {
        steps
            .iter()
            .zip(vals)
            .map(|(&s, &v)| (s as f32, v))
            .collect()
    };
    ctx.write_result(
        "fig9_loss.svg",
        line_chart(
            "Fig. 9: pre-training loss on wiki-like",
            "step",
            "loss",
            &[
                Series::new("GraphPrompter", series(&gp_curve.loss, &gp_curve.steps)),
                Series::new("Prodigy", series(&pr_curve.loss, &pr_curve.steps)),
            ],
        ),
    );
    ctx.write_result(
        "fig9_accuracy.svg",
        line_chart(
            "Fig. 9: pre-training episode accuracy on wiki-like",
            "step",
            "accuracy",
            &[
                Series::new("GraphPrompter", series(&gp_curve.accuracy, &gp_curve.steps)),
                Series::new("Prodigy", series(&pr_curve.accuracy, &pr_curve.steps)),
            ],
        ),
    );

    let (gp_first, gp_last) = first_and_last_tenth(&gp_curve.loss);
    let (pr_first, pr_last) = first_and_last_tenth(&pr_curve.loss);
    let gap = (gp_last - pr_last).abs();

    format!(
        "## Fig. 9 — pre-training curves\n\n{}\nPlots written to `results/fig9_*.svg`.\n\n{PAPER}\n\n\
         **Shape checks** (losses are means over the first and the last tenth of the \
         logged steps: one logged loss is a single small minibatch and spikes)\n\n\
         - Both losses decrease (GP {gp_first:.2} → {gp_last:.2}, \
         Prodigy {pr_first:.2} → {pr_last:.2}): {}\n\
         - Final losses within 0.5 of each other (gap {gap:.2}) — the extra MLPs \
         do not change convergence: {}\n",
        table.to_markdown(),
        if gp_last < gp_first && pr_last < pr_first { "REPRODUCED" } else { "NOT REPRODUCED" },
        if gap < 0.5 { "REPRODUCED" } else { "NOT REPRODUCED" }
    )
}

/// Mean of the first and of the last tenth of `v` (at least one value
/// each; zeros when `v` is empty).
fn first_and_last_tenth(v: &[f32]) -> (f32, f32) {
    let k = (v.len() / 10).max(1).min(v.len());
    let mean = |s: &[f32]| s.iter().sum::<f32>() / s.len().max(1) as f32;
    (mean(&v[..k]), mean(&v[v.len() - k..]))
}
