//! Experiment runner: one subcommand per table/figure of the paper.
//!
//! ```text
//! cargo run -p gp-bench --release --bin experiments -- <id> [--smoke] [--threads <n>]
//! ```
//!
//! `<id>` ∈ {table3..table8, fig3..fig9, all, calibrate, bench-inference,
//! bench-serve}.
//! `all` runs every experiment and regenerates EXPERIMENTS.md;
//! `bench-inference` times serial/warm-cache/parallel inference and
//! rewrites BENCH_inference.json — it runs in the engine's timing mode
//! (episode fan-out pinned to 1, uncontended per-query latency), and
//! `--threads <n>` forces the parallel mode's thread budget to `n`
//! (emitting the parallel row even on a single-core host), and
//! `--backend {reference,fast}` restricts the episode rows to one
//! compute backend (default: both; the wide-matmul microbench always
//! compares both) — it also measures the cross-request batching rows
//! (solo vs fused per-query cost at batch sizes 1/2/4/8) and a
//! `disk_warm` row: a restarted engine's first episode against a warm
//! persistent embedding tier (`--embed-store-dir <dir>` overrides the
//! scratch directory it uses). `bench-serve`
//! load-tests the gp-serve HTTP server (baseline latency, saturation
//! QPS, shed rate and admitted p99 under 2× overload, plus a keep-alive
//! batched phase — `--max-batch <n>` sets its coalescer cap, default 4,
//! 1 disables) and rewrites BENCH_serve.json. `--smoke` shrinks the
//! scale for a fast sanity pass.

use std::time::Instant;

use gp_baselines::IclBaseline;
use gp_bench::experiments;
use gp_bench::{Ctx, GraphPrompterMethod, Suite};
use gp_datasets::presets;
use gp_eval::MeanStd;

#[expect(
    clippy::disallowed_methods,
    reason = "progress timing printed to stderr; it never feeds a result"
)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.parse::<usize>().unwrap_or_else(|_| {
                eprintln!("--threads expects a positive integer, got '{v}'");
                std::process::exit(2);
            })
        });
    let backend = args
        .iter()
        .position(|a| a == "--backend")
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.parse::<gp_tensor::Backend>().unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            })
        });
    let embed_store_dir = args
        .iter()
        .position(|a| a == "--embed-store-dir")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    let max_batch = args
        .iter()
        .position(|a| a == "--max-batch")
        .and_then(|i| args.get(i + 1))
        .map_or(4, |v| {
            v.parse::<usize>().unwrap_or_else(|_| {
                eprintln!("--max-batch expects a positive integer, got '{v}'");
                std::process::exit(2);
            })
        });
    let suite = if smoke {
        Suite::smoke()
    } else {
        Suite::default()
    };
    let which = args.first().map(String::as_str).unwrap_or("help");

    match which {
        "calibrate" => calibrate(&suite),
        "all" => run_all(suite),
        "bench-inference" => bench_inference(smoke, threads, backend, embed_store_dir),
        "bench-serve" => bench_serve(smoke, max_batch),
        id if experiments::ALL_IDS.contains(&id) => {
            let mut ctx = Ctx::new(suite);
            let t0 = Instant::now();
            let section = experiments::run(id, &mut ctx).expect("id checked above");
            println!("{section}");
            eprintln!("[{id} finished in {:?}]", t0.elapsed());
            exit_on_artifact_errors(&ctx);
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            eprintln!(
                "usage: experiments <all|calibrate|bench-inference|bench-serve|{}> [--smoke] [--threads <n>] [--backend reference|fast] [--max-batch <n>]",
                experiments::ALL_IDS.join("|")
            );
            std::process::exit(2);
        }
    }
}

/// Time serial / warm-cache / parallel / disk-warm-restart inference per
/// backend and write the committed BENCH_inference.json artifact. The
/// disk-warm row uses `--embed-store-dir` when given, else a scratch
/// directory under the OS temp dir (wiped afterwards either way).
#[expect(
    clippy::disallowed_methods,
    reason = "progress timing printed to stderr; it never feeds a result"
)]
fn bench_inference(
    smoke: bool,
    threads: Option<usize>,
    backend: Option<gp_tensor::Backend>,
    embed_store_dir: Option<std::path::PathBuf>,
) {
    let t0 = Instant::now();
    let store_dir = embed_store_dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("gp-bench-embed-{}", std::process::id()))
    });
    let report = gp_bench::infer_bench::run(smoke, threads, backend, Some(store_dir.clone()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let json = report.to_json();
    std::fs::write("BENCH_inference.json", &json).expect("write BENCH_inference.json");
    print!("{json}");
    let disk_warm = report
        .backends
        .first()
        .and_then(gp_bench::BackendRows::disk_warm_speedup)
        .map_or("n/a".to_string(), |s| format!("{s:.2}x"));
    eprintln!(
        "[bench-inference done in {:?}; best speedup {:.2}x over serial, \
         disk-warm restart {disk_warm} vs cold, wide-matmul fast/reference {:.2}x]",
        t0.elapsed(),
        report.best_speedup(),
        report.wide_matmul.speedup()
    );
}

/// Load-test the gp-serve server and write the committed
/// BENCH_serve.json artifact.
#[expect(
    clippy::disallowed_methods,
    reason = "progress timing printed to stderr; it never feeds a result"
)]
fn bench_serve(smoke: bool, max_batch: usize) {
    let t0 = Instant::now();
    let report = match gp_bench::serve_bench::run(smoke, max_batch) {
        Ok(report) => report,
        Err(why) => {
            eprintln!("bench-serve failed: {why}");
            std::process::exit(1);
        }
    };
    let json = report.to_json();
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    print!("{json}");
    let fused = report
        .batched
        .as_ref()
        .map_or("batching off".to_string(), |b| {
            format!("mean fused batch {:.2}/{}", b.mean_batch_size, b.max_batch)
        });
    eprintln!(
        "[bench-serve done in {:?}; shed rate {:.1}% at 2x, admitted p99 {:.2}x baseline, {fused}]",
        t0.elapsed(),
        100.0 * report.shed_rate(),
        report.admitted_p99_ratio()
    );
}

/// Run every experiment and write EXPERIMENTS.md.
#[expect(
    clippy::disallowed_methods,
    reason = "progress timing printed to stderr; it never feeds a result"
)]
fn run_all(suite: Suite) {
    let mut ctx = Ctx::new(suite);
    let mut doc = experiments::preamble(&ctx);
    let t0 = Instant::now();
    for &id in experiments::ALL_IDS {
        let started = Instant::now();
        eprintln!("[{:?}] running {id}...", t0.elapsed());
        let section = experiments::run(id, &mut ctx).expect("known id");
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
    let protocol = suite.protocol();

    // Node side: MAG-like → arXiv-like.
    let mag = presets::mag240m_like(suite.seed);
    let arxiv = presets::arxiv_like(suite.seed);
    let gp = GraphPrompterMethod::pretrain(&mag, suite);
    let prodigy =
        gp_baselines::Prodigy::pretrain(&mag, suite.model_config(), &suite.pretrain_config());
    println!(
        "[{:?}] node side pre-trained ({} params)",
        t0.elapsed(),
        gp.model().num_parameters()
    );
    for ways in [5usize, 10] {
        let g = MeanStd::of(&gp.evaluate(&arxiv, ways, suite.episodes, &protocol));
        let p = MeanStd::of(&prodigy.evaluate(&arxiv, ways, suite.episodes, &protocol));
        println!(
            "arxiv {ways}-way: GraphPrompter {g} | Prodigy {p} | chance {:.1}",
            100.0 / ways as f32
        );
    }

    // Edge side: Wiki-like → FB15K-237-like.
    let wiki = presets::wiki_like(suite.seed);
    let fb = presets::fb15k237_like(suite.seed);
    let gp_kg = GraphPrompterMethod::pretrain(&wiki, suite);
    let prodigy_kg =
        gp_baselines::Prodigy::pretrain(&wiki, suite.model_config(), &suite.pretrain_config());
    for ways in [5usize, 20, 40] {
        let g = MeanStd::of(&gp_kg.evaluate(&fb, ways, suite.episodes, &protocol));
        let p = MeanStd::of(&prodigy_kg.evaluate(&fb, ways, suite.episodes, &protocol));
        println!(
            "fb {ways}-way: GraphPrompter {g} | Prodigy {p} | chance {:.1}",
            100.0 / ways as f32
        );
    }
    println!("[{:?}] calibrate done", t0.elapsed());
}
