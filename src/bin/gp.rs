//! `gp` — command-line interface to the GraphPrompter reproduction.
//!
//! ```text
//! gp datasets                               # preset statistics
//! gp pretrain  --source wiki --steps 400 --out model.gpck
//!              [--checkpoint-dir ./ckpts] [--checkpoint-every 100]
//!              [--keep-last 3] [--validate-every 100] [--resume]
//! gp evaluate  --model model.gpck --dataset fb15k237 --ways 10 [--episodes 5]
//!              [--prodigy]                  # random-selection baseline stages
//! gp episode   --model model.gpck --dataset conceptnet --ways 4 [--seed 7]
//!              # pretrain/evaluate/episode/serve also take
//!              # --backend {reference,fast} (default reference)
//! gp export    --dataset arxiv --dir ./my_arxiv       # dump to TSV
//! gp inspect   model.gpck                   # validate + describe a checkpoint
//! gp serve     --dataset wiki [--model model.gpck] [--addr 127.0.0.1:7431]
//!              [--workers 4] [--queue 64] [--deadline-ms 30000]
//!              [--max-sessions 64] [--threads 2]
//!              [--max-batch 1] [--batch-window-ms 2]
//!              # evaluate/episode/serve also take
//!              # --embed-store-dir <dir> [--embed-quant {f32,f16,i8}]
//! ```
//!
//! `serve` runs the overload-safe inference server (`gp-serve`):
//! `POST /v1/classify`, `GET /v1/metrics`, `GET /v1/health`. SIGTERM
//! or SIGINT drains gracefully — in-flight and queued requests finish,
//! then the process exits. See README § "Serving & overload behavior".
//!
//! `--max-batch N` (N > 1) turns on cross-request batching: concurrent
//! classify requests against the same dataset/revision/backend are
//! coalesced for up to `--batch-window-ms` and run as one fused
//! inference pass, amortizing the candidate-embedding stage. Results
//! are bit-identical to `--max-batch 1`; only throughput changes. See
//! README § "Request batching".
//!
//! `evaluate`/`episode` also accept `--dataset-path <dir>` to run on a
//! directory in the `gp export` TSV format (bring your own graph), and
//! `--threads <n>` as the engine's **thread budget**: at most `n` live
//! threads in total, shared by episode fan-out and tensor-kernel
//! row-blocks (`--threads 0` = one per core; `--threads 1` spawns no
//! worker threads at all; results are bit-identical either way).
//!
//! `--embed-store-dir <dir>` attaches a persistent disk tier to the
//! engine's embedding cache: embeddings demoted from RAM are written to
//! CRC-protected GPES shards and promoted back on use — including
//! across process restarts, so a rerun (or a restarted `gp serve`)
//! against the same directory and weights answers its first queries
//! warm. `--embed-quant` picks the on-disk encoding: `f32` (default) is
//! bit-exact, `f16`/`i8` shrink shards ~2×/~4× at a bounded error. See
//! README § "Embedding tiers & persistence".
//!
//! `--backend {reference,fast}` selects the tensor kernels: `reference`
//! (default) is the bit-exact ground truth, `fast` the tiled/SIMD
//! implementation with tolerance-equal results. For `serve` this sets
//! the default; a request's `"backend"` body field can pin a new
//! session to either.
//!
//! Every command accepts `--metrics` (human-readable report on stderr
//! when the command finishes) or `--metrics-json` (JSON on stdout):
//! process-wide counters, gauges and per-stage latency histograms from
//! the `gp-obs` registry. Collection is off unless one of the flags is
//! given, and enabling it never changes any result (asserted in tests).
//!
//! With `--checkpoint-dir`, `pretrain` runs crash-safe: full trainer state
//! is written atomically every `--checkpoint-every` steps and `--resume`
//! continues from the newest valid checkpoint (corrupt files are skipped
//! and reported).
//!
//! Dataset names: mag240m, wiki, arxiv, conceptnet, fb15k237, nell.

use gp_tensor::rng::StdRng;
use graphprompter::core::{
    inspect_checkpoint, pretrain_resumable, CheckpointConfig, CheckpointKind, GraphPrompterModel,
    InferenceConfig, ModelConfig, PretrainConfig, StageConfig,
};
use graphprompter::datasets::{presets, sample_few_shot_task, Dataset, Task};
use graphprompter::eval::{ConfusionMatrix, MeanStd, Table};
use graphprompter::prelude::{Backend, Engine, Parallelism};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let metrics_text = has_flag(&args, "--metrics");
    let metrics_json = has_flag(&args, "--metrics-json");
    if metrics_text || metrics_json {
        graphprompter::obs::set_enabled(true);
    }
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let result = match cmd {
        "datasets" => datasets(has_flag(&args[1..], "--detail")),
        "pretrain" => pretrain_cmd(&args[1..]),
        "evaluate" => evaluate_cmd(&args[1..]),
        "episode" => episode_cmd(&args[1..]),
        "export" => export_cmd(&args[1..]),
        "inspect" => inspect_cmd(&args[1..]),
        "lint" => lint_cmd(&args[1..]),
        "serve" => serve_cmd(&args[1..]),
        _ => {
            eprintln!(
                "usage: gp <datasets|pretrain|evaluate|episode|export|inspect|lint|serve> [flags]\n\
                 common flags: --metrics | --metrics-json (print collected metrics on exit)\n\
                 see the module docs in src/bin/gp.rs for flag details"
            );
            std::process::exit(2);
        }
    };
    // Report even when the command failed: the counters collected up to
    // the failure are exactly what a post-mortem wants.
    if metrics_json {
        println!("{}", graphprompter::obs::snapshot().to_json());
    } else if metrics_text {
        eprintln!("{}", graphprompter::obs::snapshot().to_text());
    }
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

type CliResult = Result<(), String>;

/// `gp lint [gp-lint flags]` — the repo-specific linter (D2, A1, C1, M1,
/// P1; the generic rules are clippy lints), delegated to
/// [`graphprompter::lint::run_cli`] (same engine as the standalone
/// `gp-lint` binary; see `gp lint --help` for its flags).
fn lint_cmd(args: &[String]) -> CliResult {
    let (report, code) = graphprompter::lint::run_cli(args);
    if code == 0 {
        print!("{report}");
        Ok(())
    } else {
        eprint!("{report}");
        std::process::exit(code);
    }
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Parse `--threads <n>` into the engine's thread budget. Absent → the
/// serial default; `0` → one worker per core. The budget bounds *total*
/// threads: episodes and kernels share one worker pool.
fn parallelism(args: &[String]) -> Result<Parallelism, String> {
    match flag(args, "--threads") {
        None => Ok(Parallelism::Serial),
        Some(s) => match s.parse::<usize>() {
            Ok(0) => Ok(Parallelism::Auto),
            Ok(n) => Ok(Parallelism::Threads(n)),
            Err(_) => Err("--threads must be an integer (0 = one per core)".into()),
        },
    }
}

/// Parse the persistent embedding-store flags shared by
/// `evaluate`/`episode`/`serve`: `--embed-store-dir <dir>` attaches a
/// disk tier to the engine's embedding cache (entries survive process
/// restarts — a rerun against the same directory and weights starts
/// warm), and `--embed-quant {f32,f16,i8}` picks the on-disk encoding
/// (default `f32`, bit-exact on roundtrip).
fn embed_store_flags(
    args: &[String],
) -> Result<(Option<String>, graphprompter::core::Quantization), String> {
    let dir = flag(args, "--embed-store-dir");
    let quant = match flag(args, "--embed-quant") {
        None => graphprompter::core::Quantization::F32,
        Some(s) => {
            if dir.is_none() {
                return Err("--embed-quant requires --embed-store-dir".into());
            }
            graphprompter::core::Quantization::parse(&s)
                .ok_or("--embed-quant must be one of f32, f16, i8")?
        }
    };
    Ok((dir, quant))
}

/// Parse `--backend <name>` into a compute backend. Absent →
/// `reference`, the bit-exact default; `fast` swaps every tensor kernel
/// for the tiled/SIMD implementation (tolerance-equal results, still
/// bit-identical across `--threads` values and across replays).
fn backend(args: &[String]) -> Result<Backend, String> {
    match flag(args, "--backend") {
        None => Ok(Backend::Reference),
        Some(s) => s.parse::<Backend>(),
    }
}

/// Resolve a dataset: a preset name, or a directory path previously
/// written by `gp export` (or hand-authored in the same TSV format).
fn resolve_dataset(args: &[String], seed: u64) -> Result<Dataset, String> {
    if let Some(path) = flag(args, "--dataset-path") {
        return graphprompter::datasets::load_dataset(&path)
            .map_err(|e| format!("loading {path}: {e}"));
    }
    let name = flag(args, "--dataset").ok_or("missing --dataset <name> or --dataset-path <dir>")?;
    dataset_by_name(&name, seed)
}

/// An episode needs at least two classes and cannot have more than the
/// dataset offers (the bound gp-serve enforces on `"ways"`).
fn check_ways(ways: usize, ds: &Dataset) -> CliResult {
    if (2..=ds.num_classes).contains(&ways) {
        Ok(())
    } else {
        Err(format!(
            "--ways must be in 2..={} for {} (got {ways})",
            ds.num_classes, ds.name
        ))
    }
}

fn dataset_by_name(name: &str, seed: u64) -> Result<Dataset, String> {
    Ok(match name {
        "mag240m" => presets::mag240m_like(seed),
        "wiki" => presets::wiki_like(seed),
        "arxiv" => presets::arxiv_like(seed),
        "conceptnet" => presets::conceptnet_like(seed),
        "fb15k237" => presets::fb15k237_like(seed),
        "nell" => presets::nell_like(seed),
        other => return Err(format!("unknown dataset '{other}'")),
    })
}

fn datasets(detail: bool) -> CliResult {
    let mut table = Table::new(
        "Preset datasets (paper Table II stand-ins)",
        &[
            "Name",
            "Task",
            "Nodes",
            "Edges",
            "Classes",
            "Train/Valid/Test",
        ],
    );
    let mut details = Table::new(
        "Structure",
        &[
            "Name",
            "MeanDeg",
            "MaxDeg",
            "Isolated",
            "Components",
            "LargestCC",
            "Homophily",
        ],
    );
    for name in ["mag240m", "wiki", "arxiv", "conceptnet", "fb15k237", "nell"] {
        let ds = dataset_by_name(name, 0)?;
        table.row(&[
            ds.name.clone(),
            match ds.task {
                Task::NodeClassification => "node".into(),
                Task::EdgeClassification => "edge".into(),
            },
            ds.graph.num_nodes().to_string(),
            ds.graph.num_edges().to_string(),
            ds.num_classes.to_string(),
            format!("{}/{}/{}", ds.train.len(), ds.valid.len(), ds.test.len()),
        ]);
        if detail {
            let s = graphprompter::graph::graph_stats(&ds.graph);
            details.row(&[
                ds.name.clone(),
                format!("{:.2}", s.mean_degree),
                s.max_degree.to_string(),
                s.isolated.to_string(),
                s.components.to_string(),
                format!("{:.2}", s.largest_component_frac),
                s.homophily.map_or("-".into(), |h| format!("{h:.2}")),
            ]);
        }
    }
    println!("{}", table.to_markdown());
    if detail {
        println!("{}", details.to_markdown());
    }
    Ok(())
}

fn pretrain_cmd(args: &[String]) -> CliResult {
    let source = flag(args, "--source").ok_or("missing --source <dataset>")?;
    let out = flag(args, "--out").unwrap_or_else(|| "model.gpck".into());
    let steps: usize = flag(args, "--steps")
        .unwrap_or_else(|| "400".into())
        .parse()
        .map_err(|_| "--steps must be an integer")?;
    let seed: u64 = flag(args, "--seed")
        .unwrap_or_else(|| "0".into())
        .parse()
        .map_err(|_| "--seed must be an integer")?;

    let ds = dataset_by_name(&source, seed)?;
    let cfg = PretrainConfig {
        steps,
        seed,
        ..PretrainConfig::default()
    };
    let mut engine = Engine::builder()
        .model_config(ModelConfig {
            seed,
            ..ModelConfig::default()
        })
        .pretrain_config(cfg.clone())
        .parallelism(parallelism(args)?)
        .backend(backend(args)?)
        .try_build()
        .map_err(|e| format!("invalid configuration: {e}"))?;
    eprintln!("pre-training on {} for {steps} steps...", ds.name);
    #[expect(
        clippy::disallowed_methods,
        reason = "the elapsed time is reported to the user, not fed to training"
    )]
    let started = std::time::Instant::now();

    let curve = if let Some(dir) = flag(args, "--checkpoint-dir") {
        let every: usize = flag(args, "--checkpoint-every")
            .unwrap_or_else(|| "100".into())
            .parse()
            .map_err(|_| "--checkpoint-every must be an integer")?;
        let keep_last: usize = flag(args, "--keep-last")
            .unwrap_or_else(|| "3".into())
            .parse()
            .map_err(|_| "--keep-last must be an integer")?;
        let validate_every: usize = flag(args, "--validate-every")
            .unwrap_or_else(|| every.to_string())
            .parse()
            .map_err(|_| "--validate-every must be an integer")?;
        let ckpt = CheckpointConfig {
            every: every.max(1),
            keep_last,
            resume: has_flag(args, "--resume"),
            ..CheckpointConfig::new(&dir)
        };
        let report = pretrain_resumable(
            engine.model_mut(),
            &ds,
            &cfg,
            StageConfig::full(),
            validate_every.max(1),
            4,
            Some(&ckpt),
        )
        .map_err(|e| e.to_string())?;
        for (path, why) in &report.skipped_checkpoints {
            eprintln!("skipped corrupt checkpoint {}: {why}", path.display());
        }
        if let Some(step) = report.resumed_from {
            eprintln!("resumed from checkpoint at step {step}");
        }
        eprintln!(
            "best validation accuracy {:.3} at step {} (snapshot restored)",
            report.best_acc, report.best_step
        );
        report.curve
    } else {
        engine.pretrain(&ds)
    };

    eprintln!(
        "done in {:?}; loss {:.3} → {:.3}, train acc {:.2}",
        started.elapsed(),
        curve.loss.first().copied().unwrap_or(f32::NAN),
        curve.loss.last().copied().unwrap_or(f32::NAN),
        curve.accuracy.last().copied().unwrap_or(f32::NAN),
    );
    engine.model().save(&out).map_err(|e| e.to_string())?;
    println!("checkpoint written to {out}");
    Ok(())
}

/// Drain request flag flipped by SIGTERM/SIGINT; polled by `serve_cmd`.
static SHUTDOWN_REQUESTED: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

/// Route SIGTERM and SIGINT into [`SHUTDOWN_REQUESTED`] via raw
/// `signal(2)` — no libc crate in this workspace. Only the flag store
/// happens in the handler (async-signal-safe); all real work runs on
/// the main thread's poll loop.
#[cfg(unix)]
fn install_drain_signals() {
    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN_REQUESTED.store(true, std::sync::atomic::Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_drain_signals() {}

fn serve_cmd(args: &[String]) -> CliResult {
    use graphprompter::serve::{ClassifyApp, Server, ServerConfig, SessionHost};
    use std::sync::Arc;

    let seed: u64 = flag(args, "--seed")
        .unwrap_or_else(|| "0".into())
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let ds = resolve_dataset(args, seed)?;
    let model = if flag(args, "--model").is_some() {
        load_model(args)?
    } else {
        eprintln!("no --model given; serving an untrained model (seed {seed})");
        GraphPrompterModel::new(ModelConfig {
            seed,
            ..ModelConfig::default()
        })
    };

    let parse_or = |name: &str, default: u64| -> Result<u64, String> {
        flag(args, name)
            .map(|s| s.parse().map_err(|_| format!("{name} must be an integer")))
            .unwrap_or(Ok(default))
    };
    let budget = match parallelism(args)? {
        Parallelism::Serial => 2,
        Parallelism::Auto => std::thread::available_parallelism().map_or(2, |n| n.get()),
        Parallelism::Threads(n) => n.max(1),
    };
    let (store_dir, embed_quant) = embed_store_flags(args)?;
    let config = ServerConfig {
        addr: flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:7431".into()),
        workers: parse_or("--workers", 4)? as usize,
        queue_capacity: parse_or("--queue", 64)? as usize,
        default_deadline_ms: parse_or("--deadline-ms", 30_000)?,
        embed_store_dir: store_dir.map(std::path::PathBuf::from),
        embed_quantization: embed_quant,
        ..ServerConfig::default()
    };

    let pool = Arc::new(graphprompter::prelude::WorkerPool::with_budget(budget));
    let infer = InferenceConfig {
        seed,
        ..InferenceConfig::default()
    };
    let host = SessionHost::with_embed_store(
        &model,
        ds,
        infer,
        pool,
        parse_or("--max-sessions", 64)? as usize,
        backend(args)?,
        config.embed_store(),
    )?;
    let revision = host.revision();
    let max_batch = parse_or("--max-batch", 1)? as usize;
    let batch_window_ms = parse_or("--batch-window-ms", 2)?;
    let app = Arc::new(ClassifyApp::new(host).with_batching(max_batch, batch_window_ms));
    if max_batch > 1 {
        println!("cross-request batching: up to {max_batch} fused per pass, {batch_window_ms}ms collect window");
    }
    if let Some(dir) = &config.embed_store_dir {
        println!(
            "persistent embedding store: {} ({} shards); warm-starts sessions across restarts",
            dir.display(),
            config.embed_quantization.name()
        );
    }
    let handle = Server::start(config, Arc::clone(&app)).map_err(|e| e.to_string())?;

    install_drain_signals();
    println!("gp-serve listening on {}", handle.addr());
    println!("  POST /v1/classify   {{\"ways\", \"queries\", \"seed\", \"deadline_ms\"?, \"session\"?, \"backend\"?}}");
    println!("  GET  /v1/metrics    gp-obs snapshot (enable with --metrics-json)");
    println!("  GET  /v1/health     liveness + queue depth + engine revision {revision}");
    println!("SIGTERM/SIGINT drains gracefully.");

    while !SHUTDOWN_REQUESTED.load(std::sync::atomic::Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    eprintln!("drain requested; finishing admitted requests...");
    let drain = handle.shutdown();
    let persisted = app.host().flush_embed_stores();
    if persisted > 0 {
        eprintln!("embedding store flushed: {persisted} entries will warm-start the next run");
    }
    if drain.join_failures > 0 {
        eprintln!(
            "drained with {} worker thread(s) lost to panics (see serve.join_failures_total).",
            drain.join_failures
        );
    } else {
        eprintln!("drained cleanly.");
    }
    Ok(())
}

fn inspect_cmd(args: &[String]) -> CliResult {
    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or("usage: gp inspect <checkpoint.gpck>")?;
    let summary = inspect_checkpoint(std::path::Path::new(path))
        .map_err(|e| format!("{path}: INVALID: {e}"))?;
    let kind = match summary.kind {
        CheckpointKind::ModelV1 => "model (legacy v1, no checksum)",
        CheckpointKind::ModelV2 => "model (GPCK v2)",
        CheckpointKind::TrainerV2 => "trainer state (GPCK v2)",
    };
    println!("{path}: VALID");
    println!("  kind        {kind}");
    println!("  file size   {} bytes", summary.file_len);
    let c = &summary.config;
    println!(
        "  config      feat={} rel={} embed={} hidden={} generator={:?} seed={}",
        c.feat_dim, c.rel_dim, c.embed_dim, c.hidden_dim, c.generator, c.seed
    );
    println!(
        "  parameters  {} tensors, {} scalars",
        summary.num_tensors, summary.num_scalars
    );
    if let Some((step, best_acc, best_step, curve_points)) = summary.trainer {
        println!("  trainer     step {step}, curve points {curve_points}");
        println!("  best        acc {best_acc:.3} at step {best_step}");
    }
    Ok(())
}

fn load_model(args: &[String]) -> Result<GraphPrompterModel, String> {
    let path = flag(args, "--model").ok_or("missing --model <checkpoint>")?;
    GraphPrompterModel::load(&path).map_err(|e| format!("loading {path}: {e}"))
}

fn evaluate_cmd(args: &[String]) -> CliResult {
    let model = load_model(args)?;
    let ways: usize = flag(args, "--ways")
        .ok_or("missing --ways <m>")?
        .parse()
        .map_err(|_| "--ways must be an integer")?;
    let episodes: usize = flag(args, "--episodes")
        .unwrap_or_else(|| "5".into())
        .parse()
        .map_err(|_| "--episodes must be an integer")?;
    let seed: u64 = flag(args, "--seed")
        .unwrap_or_else(|| "0".into())
        .parse()
        .map_err(|_| "--seed must be an integer")?;

    let ds = resolve_dataset(args, seed)?;
    check_ways(ways, &ds)?;
    let stages = if has_flag(args, "--prodigy") {
        StageConfig::prodigy()
    } else if ds.task == Task::NodeClassification {
        StageConfig::without_augmenter()
    } else {
        StageConfig::full()
    };
    let (store_dir, embed_quant) = embed_store_flags(args)?;
    let mut builder = Engine::builder()
        .model(model)
        .inference_config(InferenceConfig {
            stages,
            seed,
            ..InferenceConfig::default()
        })
        .parallelism(parallelism(args)?)
        .backend(backend(args)?);
    if let Some(dir) = store_dir {
        builder = builder.embed_store_dir(dir).embed_quantization(embed_quant);
    }
    let engine = builder
        .try_build()
        .map_err(|e| format!("invalid configuration: {e}"))?;
    let accs = engine.evaluate(&ds, ways, 50, episodes);
    let persisted = engine.flush_embed_store();
    if persisted > 0 {
        eprintln!("embedding store: {persisted} entries persisted for the next run");
    }
    println!(
        "{} {}-way, {} episodes: {}% (chance {:.1}%)",
        ds.name,
        ways,
        episodes,
        MeanStd::of(&accs),
        100.0 / ways as f32
    );
    Ok(())
}

fn episode_cmd(args: &[String]) -> CliResult {
    let model = load_model(args)?;
    let ways: usize = flag(args, "--ways")
        .ok_or("missing --ways <m>")?
        .parse()
        .map_err(|_| "--ways must be an integer")?;
    let seed: u64 = flag(args, "--seed")
        .unwrap_or_else(|| "0".into())
        .parse()
        .map_err(|_| "--seed must be an integer")?;

    let ds = resolve_dataset(args, 0)?;
    check_ways(ways, &ds)?;
    let (store_dir, embed_quant) = embed_store_flags(args)?;
    let mut builder = Engine::builder()
        .model(model)
        .inference_config(InferenceConfig {
            seed,
            ..InferenceConfig::default()
        })
        .parallelism(parallelism(args)?)
        .backend(backend(args)?);
    if let Some(dir) = store_dir {
        builder = builder.embed_store_dir(dir).embed_quantization(embed_quant);
    }
    let engine = builder
        .try_build()
        .map_err(|e| format!("invalid configuration: {e}"))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let candidates = engine.inference_config().candidates_per_class;
    let task = sample_few_shot_task(&ds, ways, candidates, 50, &mut rng);
    let res = engine.run_episode(&ds, &task);
    let persisted = engine.flush_embed_store();
    if persisted > 0 {
        eprintln!("embedding store: {persisted} entries persisted for the next run");
    }
    println!(
        "{} {}-way episode: {}/{} correct ({:.1}%), {:.0} µs/query",
        ds.name,
        ways,
        res.correct,
        res.total,
        100.0 * res.accuracy(),
        res.per_query_micros
    );
    let cm = ConfusionMatrix::new(&res.query_labels, &res.predictions, ways);
    println!("macro-F1 {:.3}", cm.macro_f1());
    let mut table = Table::new(
        "Per-class recall/precision",
        &["Class", "Recall", "Precision"],
    );
    for c in 0..ways {
        table.row(&[
            task.classes[c].to_string(),
            format!("{:.2}", cm.recall(c)),
            format!("{:.2}", cm.precision(c)),
        ]);
    }
    println!("{}", table.to_markdown());
    Ok(())
}

fn export_cmd(args: &[String]) -> CliResult {
    let name = flag(args, "--dataset").ok_or("missing --dataset <name>")?;
    let dir = flag(args, "--dir").ok_or("missing --dir <path>")?;
    let seed: u64 = flag(args, "--seed")
        .unwrap_or_else(|| "0".into())
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let ds = dataset_by_name(&name, seed)?;
    graphprompter::datasets::save_dataset(&ds, &dir).map_err(|e| e.to_string())?;
    println!(
        "{} exported to {dir} (meta.tsv, nodes.tsv, edges.tsv)",
        ds.name
    );
    Ok(())
}
