//! Fig. 4 — `GNN_D` architecture comparison: GraphSAGE (default) vs GAT
//! as the Prompt Generator's encoder on FB15K-237-like and NELL-like.
//! GCN is included as an extra point beyond the paper. Each architecture
//! is pre-trained from scratch on the Wiki-like source.

use gp_baselines::IclBaseline;
use gp_core::{Engine, GeneratorKind, StageConfig};
use gp_eval::{MeanStd, Table};

use crate::harness::{Ctx, GraphPrompterView};

const WAYS: [usize; 2] = [5, 10];

const PAPER: &str = "Paper Fig. 4: the GraphSAGE-based generator outperforms the GAT \
                     variant on both datasets (attributed to SAGE scaling better on \
                     large pre-training graphs).";

/// Run the experiment; returns a markdown section.
#[expect(
    clippy::expect_used,
    reason = "the suite's configs with one knob flipped are valid by construction; a failure is a bug worth aborting the experiment over"
)]
pub fn run(ctx: &Ctx) -> String {
    let suite = &ctx.suite;
    let protocol = suite.protocol();
    let episodes = suite.episodes;

    // Train one model per architecture on the same source.
    let mut models = Vec::new();
    for (name, kind) in [
        ("GraphSAGE", GeneratorKind::Sage),
        ("GAT", GeneratorKind::Gat),
        ("GCN", GeneratorKind::Gcn),
    ] {
        let mut mc = suite.model_config();
        mc.generator = kind;
        let mut engine = Engine::builder()
            .model_config(mc)
            .pretrain_config(suite.pretrain_config())
            .inference_config(suite.inference_config(StageConfig::full()))
            .try_build()
            .expect("suite configs must be valid");
        engine.pretrain(ctx.wiki());
        models.push((name, engine));
    }

    let mut out = String::from("## Fig. 4 — GNN architecture comparison\n\n");
    let mut sage_avg = 0.0f32;
    let mut gat_avg = 0.0f32;
    let mut cells = 0usize;

    for key in ["fb15k237", "nell"] {
        let ds = if key == "fb15k237" {
            ctx.fb()
        } else {
            ctx.nell()
        };
        let mut table = Table::new(
            format!("Fig. 4 (measured): {} accuracy (%)", ds.name),
            &["Generator", "5-way", "10-way"],
        );
        for (name, engine) in &models {
            let view = GraphPrompterView {
                engine,
                stages: StageConfig::full(),
            };
            let mut row = vec![name.to_string()];
            for &w in &WAYS {
                let stats = MeanStd::of(&view.evaluate(ds, w, episodes, &protocol));
                if *name == "GraphSAGE" {
                    sage_avg += stats.mean;
                    cells += 1;
                }
                if *name == "GAT" {
                    gat_avg += stats.mean;
                }
                row.push(stats.to_string());
            }
            table.row(&row);
        }
        out += &table.to_markdown();
        out += "\n";
    }

    sage_avg /= cells as f32;
    gat_avg /= cells as f32;
    out += &format!(
        "{PAPER}\n\n**Shape checks**\n\n\
         - GraphSAGE avg {sage_avg:.1}% vs GAT avg {gat_avg:.1}%: {}\n",
        if sage_avg >= gat_avg {
            "REPRODUCED"
        } else {
            "DEVIATES — expected at laptop scale: the paper attributes SAGE's \
             edge to scalability on large pre-training graphs (244M nodes), a \
             regime the synthetic substrate cannot reach; on small graphs \
             GAT's attention is competitive"
        }
    );
    out
}
