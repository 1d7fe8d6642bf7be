//! The classify application: routes the three endpoints onto a
//! [`SessionHost`] of per-session [`Engine`]s.
//!
//! A request runs its own episode on the server worker that handles it:
//! `run_episode_deadline` spawns no thread (only `Engine::evaluate` fans
//! out), so deadline churn cannot
//! accumulate threads and a server keeps answering after a burst of
//! 504s (`deadline_exhaustion_504s_then_serves_200` in
//! `tests/overload.rs`).
//!
//! Sessions are deterministic replicas: every session engine is
//! `GraphPrompterModel::new(config)` (same seed → same Xavier init)
//! with the host's base weight snapshot restored, so `engine_revision`
//! is identical across sessions and a given `(seed, ways, queries)`
//! request returns bit-identical predictions on any session.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use gp_core::{
    Deadline, DeadlineExceeded, Engine, EpisodeResult, GraphPrompterModel, InferenceConfig,
    ModelConfig,
};
use gp_datasets::{sample_few_shot_task, supported_classes, Dataset, Split};
use gp_obs::sync::{Mutex, Rank};
use gp_tensor::rng::StdRng;
use gp_tensor::{Backend, WorkerPool};

use crate::http::{Request, Response};
use crate::json::{escape_json, parse, Value};
use crate::server::{Handler, ServeContext};

/// Upper bounds on request parameters, enforced before any work: a
/// hostile body must not be able to order an arbitrarily large episode.
pub const MAX_WAYS: usize = 32;
pub const MAX_QUERIES: usize = 512;
/// Upper bound on [`crate::ServerConfig::queue_capacity`], checked by
/// [`crate::Server::start`] before it allocates the queue. Each queued
/// item is an open connection, so a per-process fd limit binds first.
pub const MAX_QUEUE_CAPACITY: usize = 65_536;

/// Owns the base model weights and builds per-session engine replicas
/// on demand.
pub struct SessionHost {
    model_config: ModelConfig,
    base_snapshot: Vec<gp_tensor::Tensor>,
    infer: InferenceConfig,
    dataset: Dataset,
    /// Classes with a train (prompt) and a test (query) point: the most
    /// ways an episode over `dataset` can have.
    episode_classes: usize,
    max_sessions: usize,
    /// Root of the persistent embedding disk tier; each session engine
    /// gets its own shard subdirectory under it.
    embed_store: Option<PathBuf>,
    /// Only ever gains fully built engines, so the poison recovery of
    /// `lock` cannot expose a half-entry.
    sessions: Mutex<HashMap<String, Arc<Engine>>>,
}

impl SessionHost {
    /// Capture `model`'s weights as the base snapshot and eagerly build
    /// the `"default"` session so configuration errors surface at
    /// startup, not on the first request. `_pool` and `_backend` are
    /// accepted and change nothing: requests run on the server's own
    /// workers, and every [`gp_tensor::Backend`] name runs the same
    /// kernels.
    pub fn new(
        model: &GraphPrompterModel,
        dataset: Dataset,
        infer: InferenceConfig,
        _pool: Arc<WorkerPool>,
        max_sessions: usize,
        _backend: Backend,
    ) -> Result<Self, String> {
        Self::with_embed_store(model, dataset, infer, max_sessions, None)
    }

    /// As [`SessionHost::new`], optionally attaching a persistent
    /// embedding disk tier: each session's engine demotes cold embeddings
    /// to CRC-protected GPES shards under a per-session subdirectory of
    /// `embed_store`, and a restarted server pointed at the same
    /// directory (with the same weights) answers its first queries from
    /// the warm tier instead of re-embedding. Session names are hashed
    /// into the subdirectory name, so hostile session strings can never
    /// traverse outside the store root.
    pub fn with_embed_store(
        model: &GraphPrompterModel,
        dataset: Dataset,
        infer: InferenceConfig,
        max_sessions: usize,
        embed_store: Option<PathBuf>,
    ) -> Result<Self, String> {
        let episode_classes = supported_classes(&dataset, Split::Train, Split::Test).len();
        let host = Self {
            model_config: model.config().clone(),
            base_snapshot: model.store.snapshot(),
            infer,
            dataset,
            episode_classes,
            max_sessions: max_sessions.max(1),
            embed_store,
            sessions: Mutex::new(Rank::Sessions, HashMap::new()),
        };
        host.engine_for("default").map_err(|e| e.to_string())?;
        Ok(host)
    }

    /// Fetch or lazily build the engine for `session`.
    fn engine_for(&self, session: &str) -> Result<Arc<Engine>, SessionError> {
        if let Some(engine) = self.sessions.lock().get(session).cloned() {
            return Ok(engine);
        }
        // Build outside the lock: engine construction embeds nothing
        // but does clone the weight snapshot, and serving must not
        // stall on it. Two racers may build twice; the first insert wins
        // and both replicas are identical by construction.
        let engine = Arc::new(self.build_replica(session)?);
        let mut sessions = self.sessions.lock();
        if !sessions.contains_key(session) && sessions.len() >= self.max_sessions {
            return Err(SessionError::TooManySessions(self.max_sessions));
        }
        Ok(sessions
            .entry(session.to_string())
            .or_insert(engine)
            .clone())
    }

    fn build_replica(&self, session: &str) -> Result<Engine, SessionError> {
        let mut model = GraphPrompterModel::new(self.model_config.clone());
        model
            .store
            .try_restore(&self.base_snapshot)
            .map_err(|e| SessionError::Build(e.to_string()))?;
        let mut builder = Engine::builder()
            .model(model)
            .inference_config(self.infer.clone());
        if let Some(root) = &self.embed_store {
            // Session names arrive verbatim from request bodies; hashing
            // them into the directory name makes traversal impossible and
            // keeps the mapping stable across restarts of one binary.
            let mut h = std::collections::hash_map::DefaultHasher::new();
            std::hash::Hash::hash(session, &mut h);
            let sub = format!("session-{:016x}", std::hash::Hasher::finish(&h));
            builder = builder.embed_store_dir(root.join(sub));
        }
        builder
            .try_build()
            .map_err(|e| SessionError::Build(e.to_string()))
    }

    /// Write every session's in-memory embeddings back to the disk tier
    /// (durability barrier for graceful drain); returns total entries
    /// persisted. A no-op (0) when the host has no disk tier.
    pub fn flush_embed_stores(&self) -> usize {
        #[expect(
            clippy::disallowed_methods,
            reason = "each session flushes its own store; the summed count does not depend on the order"
        )]
        let engines: Vec<Arc<Engine>> = self.sessions.lock().values().cloned().collect();
        engines.iter().map(|e| e.flush_embed_store()).sum()
    }

    pub fn session_count(&self) -> usize {
        self.sessions.lock().len()
    }

    /// Weight revision shared by every session replica.
    pub fn revision(&self) -> u64 {
        self.sessions
            .lock()
            .get("default")
            .map(|e| e.revision())
            .unwrap_or(0)
    }

    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }
}

enum SessionError {
    TooManySessions(usize),
    Build(String),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::TooManySessions(max) => {
                write!(
                    f,
                    "session limit reached ({max}); reuse an existing session"
                )
            }
            SessionError::Build(why) => write!(f, "building session engine: {why}"),
        }
    }
}

impl SessionError {
    fn status(&self) -> u16 {
        match self {
            SessionError::TooManySessions(_) => 429,
            SessionError::Build(_) => 500,
        }
    }
}

/// [`Handler`] for the three serve endpoints.
pub struct ClassifyApp {
    host: SessionHost,
}

impl ClassifyApp {
    /// An app whose classify requests each run their own episode.
    pub fn new(host: SessionHost) -> Self {
        Self { host }
    }

    pub fn host(&self) -> &SessionHost {
        &self.host
    }

    fn health(&self, ctx: &ServeContext) -> Response {
        Response::json(
            200,
            format!(
                "{{\"status\":\"ok\",\"queue_depth\":{},\"sessions\":{},\"engine_revision\":{}}}",
                ctx.queue_depth,
                self.host.session_count(),
                self.host.revision()
            ),
        )
    }

    fn metrics(&self) -> Response {
        Response::json(200, gp_obs::snapshot().to_json())
    }

    fn classify(&self, req: &Request, ctx: &ServeContext) -> Response {
        let body = match std::str::from_utf8(&req.body) {
            Ok(s) => s,
            Err(_) => return Response::error(400, "body is not UTF-8"),
        };
        let doc = match parse(body) {
            Ok(v) => v,
            Err(e) => return Response::error(400, &e.to_string()),
        };

        // Typed extraction first: a wrong-typed field is a 400 naming
        // the field, never a silent fallback to the default.
        let session = match doc.get("session") {
            None => "default".to_string(),
            Some(v) => match v.as_str() {
                Some(s) => s.to_string(),
                None => return field_error("session", "must be a string"),
            },
        };
        let ways = match u64_field(&doc, "ways", 3) {
            Ok(v) => v as usize,
            Err(resp) => return resp,
        };
        let queries = match u64_field(&doc, "queries", 8) {
            Ok(v) => v as usize,
            Err(resp) => return resp,
        };
        let seed = match u64_field(&doc, "seed", 0) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        // `deadline_ms` is validated against the server-side cap: 0
        // would be an always-expired request, and an unbounded value
        // both overflows deadline arithmetic and parks effectively
        // undeadlined work on a worker.
        let deadline_ms = match doc.get("deadline_ms") {
            None => ctx.default_deadline_ms.clamp(1, ctx.max_deadline_ms),
            Some(v) => match v.as_u64() {
                None => return field_error("deadline_ms", "must be a non-negative integer"),
                Some(ms) if !(1..=ctx.max_deadline_ms).contains(&ms) => {
                    return field_error(
                        "deadline_ms",
                        &format!("must be in 1..={}", ctx.max_deadline_ms),
                    )
                }
                Some(ms) => ms,
            },
        };
        // `backend` names one of the accepted compute backends, which
        // all run the same kernels: checked, then ignored.
        if let Some(v) = doc.get("backend") {
            match v.as_str().map(str::parse::<Backend>) {
                None => return field_error("backend", "must be a string"),
                Some(Err(e)) => return field_error("backend", &e),
                Some(Ok(_)) => {}
            }
        }

        // Range checks against the effective caps: the server config's,
        // clamped by the crate hard limits.
        let dataset = self.host.dataset();
        let max_ways = (ctx.max_ways.min(MAX_WAYS as u64)) as usize;
        let max_queries = (ctx.max_queries.min(MAX_QUERIES as u64)) as usize;
        if !(2..=max_ways).contains(&ways) || ways > self.host.episode_classes {
            return field_error(
                "ways",
                &format!(
                    "must be in 2..={} and <= classes with train and test points ({})",
                    max_ways, self.host.episode_classes
                ),
            );
        }
        if !(1..=max_queries).contains(&queries) {
            return field_error("queries", &format!("must be in 1..={max_queries}"));
        }

        let engine = match self.host.engine_for(&session) {
            Ok(engine) => engine,
            Err(e) => return Response::error(e.status(), &e.to_string()),
        };

        // The episode is a pure function of (dataset seed, request
        // seed): the sampler RNG is fresh per request, never shared, so
        // replaying a request replays its answer bit-for-bit.
        let mut rng = StdRng::seed_from_u64(seed);
        let task = sample_few_shot_task(
            dataset,
            ways,
            self.host.infer.candidates_per_class,
            queries,
            &mut rng,
        );

        // Deadline counts from ADMISSION: a request that waited out its
        // budget in the queue 504s at the first stage boundary instead
        // of consuming compute it can no longer use. (`deadline_ms ≤
        // max_deadline_ms` keeps the add overflow-free.)
        let deadline = Deadline::at(ctx.admitted_at + Duration::from_millis(deadline_ms));
        match engine.run_episode_deadline(dataset, &task, deadline) {
            Ok(result) => Response::json(200, render_episode(&result, &session, engine.revision())),
            Err(d) => deadline_response(&d),
        }
    }
}

/// 400 whose body names the offending field machine-readably:
/// `{"error":"<field> <why>","field":"<field>"}`.
fn field_error(field: &str, why: &str) -> Response {
    Response::json(
        400,
        format!(
            "{{\"error\":\"{} {}\",\"field\":\"{}\"}}",
            escape_json(field),
            escape_json(why),
            escape_json(field)
        ),
    )
}

/// Optional unsigned-integer body field: absent → `default`; present
/// with any non-u64 value → field-naming 400.
fn u64_field(doc: &Value, field: &'static str, default: u64) -> Result<u64, Response> {
    match doc.get(field) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| field_error(field, "must be a non-negative integer below 2^53")),
    }
}

impl Handler for ClassifyApp {
    fn handle(&self, req: &Request, ctx: &ServeContext) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/v1/health") => self.health(ctx),
            ("GET", "/v1/metrics") => self.metrics(),
            ("POST", "/v1/classify") => self.classify(req, ctx),
            (_, "/v1/health" | "/v1/metrics" | "/v1/classify") => {
                Response::error(405, "method not allowed on this endpoint")
            }
            _ => Response::error(404, "unknown endpoint"),
        }
    }
}

/// A 504 whose body carries the partial-stage evidence — which Alg. 2
/// stage hit the wall and where the time went — so a client can tell
/// "server slow" from "deadline too tight".
fn deadline_response(d: &DeadlineExceeded) -> Response {
    let stages = d
        .stage_micros
        .iter()
        .map(|(name, micros)| format!("\"{}\":{}", escape_json(name), micros))
        .collect::<Vec<_>>()
        .join(",");
    Response::json(
        504,
        format!(
            "{{\"error\":\"deadline exceeded\",\"stage\":\"{}\",\
             \"completed_queries\":{},\"total_queries\":{},\"stage_micros\":{{{}}}}}",
            escape_json(d.stage),
            d.completed_queries,
            d.total_queries,
            stages
        ),
    )
}

fn render_u64s(xs: impl Iterator<Item = u64>) -> String {
    let mut out = String::from("[");
    for (i, x) in xs.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&x.to_string());
    }
    out.push(']');
    out
}

fn render_episode(r: &EpisodeResult, session: &str, revision: u64) -> String {
    let confidences = {
        let mut out = String::from("[");
        for (i, c) in r.confidences.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{c:.6}"));
        }
        out.push(']');
        out
    };
    // Everything before the wall-clock `per_query_micros` tail is the
    // deterministic replay surface.
    format!(
        "{{\"session\":\"{}\",\"engine_revision\":{},\"correct\":{},\
         \"total\":{},\"accuracy\":{:.6},\"predictions\":{},\"labels\":{},\"confidences\":{},\
         \"per_query_micros\":{:.1}}}",
        escape_json(session),
        revision,
        r.correct,
        r.total,
        r.accuracy(),
        render_u64s(r.predictions.iter().map(|p| *p as u64)),
        render_u64s(r.query_labels.iter().map(|l| *l as u64)),
        confidences,
        r.per_query_micros,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_datasets::CitationConfig;
    use std::time::Instant;

    fn tiny_host() -> SessionHost {
        let dataset = CitationConfig::new("serve-test", 160, 6, 9).generate();
        let model = GraphPrompterModel::new(ModelConfig {
            embed_dim: 16,
            hidden_dim: 16,
            seed: 7,
            ..ModelConfig::default()
        });
        let infer = InferenceConfig {
            candidates_per_class: 4,
            ..InferenceConfig::default()
        };
        SessionHost::with_embed_store(&model, dataset, infer, 3, None).expect("host builds")
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "test fixture: requests are admitted at the real clock"
    )]
    fn ctx() -> ServeContext {
        ServeContext {
            admitted_at: Instant::now(),
            queue_depth: 0,
            default_deadline_ms: 60_000,
            max_ways: MAX_WAYS as u64,
            max_queries: MAX_QUERIES as u64,
            max_deadline_ms: 3_600_000,
        }
    }

    /// Everything before the wall-clock tail — the deterministic part
    /// of a classify body (predictions, confidences, labels, …).
    fn sans_timing(body: &str) -> &str {
        body.split("\"per_query_micros\"").next().unwrap_or(body)
    }

    fn post_classify_ctx(app: &ClassifyApp, body: &str, ctx: &ServeContext) -> Response {
        let req = Request {
            method: "POST".to_string(),
            path: "/v1/classify".to_string(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        };
        app.handle(&req, ctx)
    }

    fn post_classify(app: &ClassifyApp, body: &str) -> Response {
        post_classify_ctx(app, body, &ctx())
    }

    #[test]
    fn classify_is_deterministic_per_seed() {
        let app = ClassifyApp::new(tiny_host());
        let a = post_classify(&app, r#"{"ways": 3, "queries": 6, "seed": 11}"#);
        let b = post_classify(&app, r#"{"ways": 3, "queries": 6, "seed": 11}"#);
        assert_eq!(a.status, 200, "{}", a.body);
        assert_eq!(
            sans_timing(&a.body),
            sans_timing(&b.body),
            "same request must replay bit-identically"
        );
        let c = post_classify(&app, r#"{"ways": 3, "queries": 6, "seed": 12}"#);
        assert_eq!(c.status, 200, "{}", c.body);
    }

    #[test]
    fn sessions_are_identical_replicas_and_capped() {
        let app = ClassifyApp::new(tiny_host());
        let a = post_classify(&app, r#"{"session": "a", "seed": 5}"#);
        let b = post_classify(&app, r#"{"session": "b", "seed": 5}"#);
        assert_eq!(a.status, 200, "{}", a.body);
        assert_eq!(
            sans_timing(&a.body).replace("\"session\":\"a\"", "\"session\":\"b\""),
            sans_timing(&b.body),
            "replica sessions must answer identically"
        );
        // Cap is 3 and default+a+b exist → a new session is refused...
        let d = post_classify(&app, r#"{"session": "c", "seed": 5}"#);
        assert_eq!(d.status, 429, "{}", d.body);
        // ...but existing sessions keep working.
        let again = post_classify(&app, r#"{"session": "a", "seed": 5}"#);
        assert_eq!(again.status, 200);
    }

    fn tiny_host_with_store(dir: &std::path::Path) -> SessionHost {
        let dataset = CitationConfig::new("serve-test", 160, 6, 9).generate();
        let model = GraphPrompterModel::new(ModelConfig {
            embed_dim: 16,
            hidden_dim: 16,
            seed: 7,
            ..ModelConfig::default()
        });
        let infer = InferenceConfig {
            candidates_per_class: 4,
            ..InferenceConfig::default()
        };
        SessionHost::with_embed_store(&model, dataset, infer, 3, Some(dir.to_path_buf()))
            .expect("host with embed store builds")
    }

    #[test]
    fn embed_store_is_invisible_and_warm_starts_a_restarted_host() {
        let dir = std::env::temp_dir().join(format!("gp_serve_estore_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plain = ClassifyApp::new(tiny_host());
        let tiered = ClassifyApp::new(tiny_host_with_store(&dir));
        let body = r#"{"ways": 3, "queries": 6, "seed": 11}"#;
        let a = post_classify(&plain, body);
        let b = post_classify(&tiered, body);
        assert_eq!(a.status, 200, "{}", a.body);
        assert_eq!(
            sans_timing(&a.body),
            sans_timing(&b.body),
            "an f32 disk tier must not change any answer"
        );
        assert!(
            tiered.host().flush_embed_stores() > 0,
            "drain must persist the session embeddings"
        );
        drop(tiered);

        // A second host over the same directory stands in for a server
        // restart: identical construction → identical weights, so the
        // shards' fingerprint matches and the first request runs warm.
        let restarted = ClassifyApp::new(tiny_host_with_store(&dir));
        let c = post_classify(&restarted, body);
        assert_eq!(c.status, 200, "{}", c.body);
        assert_eq!(
            sans_timing(&a.body),
            sans_timing(&c.body),
            "warm-started answers must replay bit-identically"
        );
        let stats = restarted
            .host()
            .sessions
            .lock()
            .get("default")
            .cloned()
            .expect("default session exists")
            .embed_cache_stats()
            .expect("embedding cache is on");
        assert!(
            stats.disk_hits > 0,
            "restarted host must answer from persisted shards: {stats:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_parameters_are_400_naming_the_field() {
        let app = ClassifyApp::new(tiny_host());
        for (body, field) in [
            ("{\"ways\": 1}", Some("ways")),
            ("{\"ways\": 99}", Some("ways")),
            ("{\"ways\": \"three\"}", Some("ways")),
            ("{\"queries\": 0}", Some("queries")),
            ("{\"queries\": 100000}", Some("queries")),
            ("{\"queries\": \"many\"}", Some("queries")),
            ("{\"deadline_ms\": 0}", Some("deadline_ms")),
            ("{\"deadline_ms\": 99999999999}", Some("deadline_ms")),
            ("{\"deadline_ms\": \"soon\"}", Some("deadline_ms")),
            ("{\"seed\": \"x\"}", Some("seed")),
            ("{\"seed\": 9007199254740993}", Some("seed")),
            ("{\"seed\": 18446744073709551616}", Some("seed")),
            ("{\"session\": 7}", Some("session")),
            ("{\"backend\": 1}", Some("backend")),
            ("{\"backend\": \"gpu\"}", Some("backend")),
            ("not json", None),
        ] {
            let resp = post_classify(&app, body);
            assert_eq!(resp.status, 400, "{body} → {}", resp.body);
            if let Some(field) = field {
                assert!(
                    resp.body.contains(&format!("\"field\":\"{field}\"")),
                    "{body} → {}",
                    resp.body
                );
            }
        }
    }

    #[test]
    fn server_side_caps_bound_request_parameters() {
        let app = ClassifyApp::new(tiny_host());
        let mut tight = ctx();
        tight.max_ways = 3;
        tight.max_queries = 4;
        tight.max_deadline_ms = 1_000;
        let resp = post_classify_ctx(&app, "{\"ways\": 4}", &tight);
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(resp.body.contains("\"field\":\"ways\""), "{}", resp.body);
        let resp = post_classify_ctx(&app, "{\"queries\": 5}", &tight);
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(resp.body.contains("\"field\":\"queries\""), "{}", resp.body);
        let resp = post_classify_ctx(&app, "{\"deadline_ms\": 2000}", &tight);
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(
            resp.body.contains("\"field\":\"deadline_ms\""),
            "{}",
            resp.body
        );
        // Within the tightened caps everything still runs (the missing
        // deadline default is clamped into the valid range).
        let resp = post_classify_ctx(&app, "{\"ways\": 3, \"queries\": 4}", &tight);
        assert_eq!(resp.status, 200, "{}", resp.body);
    }

    #[test]
    fn ways_beyond_the_classes_with_train_points_is_400_naming_the_field() {
        let mut dataset = CitationConfig::new("serve-test", 160, 6, 9).generate();
        dataset.train.retain(|dp| dp.label(&dataset.graph) != 0);
        let model = GraphPrompterModel::new(ModelConfig {
            embed_dim: 16,
            hidden_dim: 16,
            seed: 7,
            ..ModelConfig::default()
        });
        let host =
            SessionHost::with_embed_store(&model, dataset, InferenceConfig::default(), 1, None)
                .expect("host builds");
        let app = ClassifyApp::new(host);
        // Six classes, but class 0 has no prompt point: five ways is the most.
        let resp = post_classify(&app, r#"{"ways": 6, "queries": 6}"#);
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(resp.body.contains("\"field\":\"ways\""), "{}", resp.body);
        assert!(resp.body.contains("points (5)"), "{}", resp.body);
        let ok = post_classify(&app, r#"{"ways": 5, "queries": 6}"#);
        assert_eq!(ok.status, 200, "{}", ok.body);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test backdates admission against the real clock"
    )]
    fn expired_deadline_is_504_with_stage_evidence() {
        let app = ClassifyApp::new(tiny_host());
        // Admitted long ago with a 1ms budget: the deadline is already
        // gone when the episode starts, so the first stage boundary
        // reports it. (`deadline_ms: 0` is a 400 now — an
        // always-expired request is a client bug, not a server state.)
        let mut stale = ctx();
        stale.admitted_at = Instant::now()
            .checked_sub(Duration::from_secs(10))
            .unwrap_or_else(Instant::now);
        let resp = post_classify_ctx(
            &app,
            r#"{"ways": 3, "queries": 6, "deadline_ms": 1}"#,
            &stale,
        );
        assert_eq!(resp.status, 504, "{}", resp.body);
        assert!(
            resp.body.contains("\"stage\":\"candidate_embed\""),
            "{}",
            resp.body
        );
        assert!(resp.body.contains("\"total_queries\":6"), "{}", resp.body);
        // Engine still healthy afterwards.
        let ok = post_classify(&app, r#"{"ways": 3, "queries": 6}"#);
        assert_eq!(ok.status, 200, "{}", ok.body);
    }

    #[test]
    fn health_and_routing() {
        let app = ClassifyApp::new(tiny_host());
        let health = app.handle(
            &Request {
                method: "GET".to_string(),
                path: "/v1/health".to_string(),
                headers: Vec::new(),
                body: Vec::new(),
            },
            &ctx(),
        );
        assert_eq!(health.status, 200);
        assert!(health.body.contains("\"status\":\"ok\""), "{}", health.body);
        assert!(
            health.body.contains("\"engine_revision\":"),
            "{}",
            health.body
        );

        let wrong = app.handle(
            &Request {
                method: "DELETE".to_string(),
                path: "/v1/classify".to_string(),
                headers: Vec::new(),
                body: Vec::new(),
            },
            &ctx(),
        );
        assert_eq!(wrong.status, 405);
        let missing = app.handle(
            &Request {
                method: "GET".to_string(),
                path: "/nope".to_string(),
                headers: Vec::new(),
                body: Vec::new(),
            },
            &ctx(),
        );
        assert_eq!(missing.status, 404);
    }
}
