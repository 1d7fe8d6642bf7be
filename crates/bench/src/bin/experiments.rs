//! Experiment runner: one subcommand per table/figure of the paper.
//!
//! ```text
//! cargo run -p gp-bench --release --bin experiments -- <id> [--smoke]
//! ```
//!
//! `<id>` ∈ {table3..table8, fig3..fig9, ext-*, all, calibrate}.
//! `all` runs every experiment and regenerates EXPERIMENTS.md; `--smoke`
//! shrinks the scale for a fast sanity pass. Any other argument exits 2
//! with the usage line. Performance is measured by the repository
//! benchmark (`benchmark/`), not here.

use std::time::Instant;

use gp_baselines::{IclBaseline, PromptGraph};
use gp_bench::experiments;
use gp_bench::{Ctx, Suite};
use gp_core::StageConfig;
use gp_datasets::presets;
use gp_eval::MeanStd;

#[expect(
    clippy::disallowed_methods,
    reason = "progress timing printed to stderr; it never feeds a result"
)]
fn main() {
    let mut smoke = false;
    let mut which: Option<String> = None;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else if which.is_none() && !arg.starts_with('-') {
            which = Some(arg);
        } else {
            usage(&format!("unexpected argument '{arg}'"));
        }
    }
    let suite = if smoke {
        Suite::smoke()
    } else {
        Suite::default()
    };

    match which.as_deref() {
        Some("calibrate") => calibrate(&suite),
        Some("all") => run_all(suite),
        Some(id) if experiments::ALL_IDS.contains(&id) => {
            let ctx = Ctx::new(suite);
            let t0 = Instant::now();
            let section = experiments::run(id, &ctx).expect("id checked above");
            println!("{section}");
            eprintln!("[{id} finished in {:?}]", t0.elapsed());
            exit_on_artifact_errors(&ctx);
        }
        Some(other) => usage(&format!("unknown experiment '{other}'")),
        None => usage("no experiment given"),
    }
}

/// Print why the arguments were rejected plus the usage line; exit 2.
fn usage(why: &str) -> ! {
    eprintln!("experiments: {why}");
    eprintln!(
        "usage: experiments <all|calibrate|{}> [--smoke]",
        experiments::ALL_IDS.join("|")
    );
    std::process::exit(2);
}

/// Run every experiment and write EXPERIMENTS.md.
#[expect(
    clippy::disallowed_methods,
    reason = "progress timing printed to stderr; it never feeds a result"
)]
fn run_all(suite: Suite) {
    let ctx = Ctx::new(suite);
    let mut doc = experiments::preamble(&ctx);
    let t0 = Instant::now();
    for &id in experiments::ALL_IDS {
        let started = Instant::now();
        eprintln!("[{:?}] running {id}...", t0.elapsed());
        let section = experiments::run(id, &ctx).expect("known id");
        eprintln!("[{:?}] {id} done in {:?}", t0.elapsed(), started.elapsed());
        exit_on_artifact_errors(&ctx);
        doc.push('\n');
        doc.push_str(&section);
    }
    std::fs::write("EXPERIMENTS.md", &doc).expect("write EXPERIMENTS.md");
    eprintln!("[{:?}] EXPERIMENTS.md written", t0.elapsed());
}

/// Fail the run when an experiment could not write its `results/` files.
fn exit_on_artifact_errors(ctx: &Ctx) {
    if let Err(why) = ctx.artifacts_written() {
        eprintln!("experiments: {why}");
        std::process::exit(1);
    }
}

/// Quick shape check: GraphPrompter vs Prodigy vs chance on the headline
/// cross-domain transfers.
#[expect(
    clippy::disallowed_methods,
    reason = "progress timing printed to stderr; it never feeds a result"
)]
fn calibrate(suite: &Suite) {
    let t0 = Instant::now();
    let cfg = suite.inference_config(StageConfig::default());
    let (queries, episodes) = (suite.queries, suite.episodes);

    // Node side: MAG-like → arXiv-like.
    let mag = presets::mag240m_like(suite.seed);
    let arxiv = presets::arxiv_like(suite.seed);
    let gp = PromptGraph::graphprompter(&mag, suite.model_config(), &suite.pretrain_config());
    let prodigy = PromptGraph::prodigy(&mag, suite.model_config(), &suite.pretrain_config());
    println!(
        "[{:?}] node side pre-trained ({} params)",
        t0.elapsed(),
        gp.engine().model().num_parameters()
    );
    for ways in [5usize, 10] {
        let g = MeanStd::of(&gp.evaluate(&arxiv, ways, queries, episodes, &cfg));
        let p = MeanStd::of(&prodigy.evaluate(&arxiv, ways, queries, episodes, &cfg));
        println!(
            "arxiv {ways}-way: GraphPrompter {g} | Prodigy {p} | chance {:.1}",
            100.0 / ways as f32
        );
    }

    // Edge side: Wiki-like → FB15K-237-like.
    let wiki = presets::wiki_like(suite.seed);
    let fb = presets::fb15k237_like(suite.seed);
    let gp_kg = PromptGraph::graphprompter(&wiki, suite.model_config(), &suite.pretrain_config());
    let prodigy_kg = PromptGraph::prodigy(&wiki, suite.model_config(), &suite.pretrain_config());
    for ways in [5usize, 20, 40] {
        let g = MeanStd::of(&gp_kg.evaluate(&fb, ways, queries, episodes, &cfg));
        let p = MeanStd::of(&prodigy_kg.evaluate(&fb, ways, queries, episodes, &cfg));
        println!(
            "fb {ways}-way: GraphPrompter {g} | Prodigy {p} | chance {:.1}",
            100.0 / ways as f32
        );
    }
    println!("[{:?}] calibrate done", t0.elapsed());
}
