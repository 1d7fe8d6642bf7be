//! Fault-injection suite for `gp-serve`: every overload and abuse mode
//! the server claims to survive, exercised over real sockets against a
//! running server. The crate rustdoc's mechanism table names these
//! tests; renaming one here means updating `crates/serve/src/lib.rs`.

#![expect(
    clippy::disallowed_methods,
    reason = "raw client threads on purpose: they play the network's side of the socket, outside the server's worker pool"
)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use gp_core::{GraphPrompterModel, InferenceConfig, ModelConfig};
use gp_datasets::CitationConfig;
use gp_serve::{
    ClassifyApp, Handler, Request, Response, ServeContext, Server, ServerConfig, SessionHost,
};
use gp_tensor::WorkerPool;

// ---------------------------------------------------------------------------
// Plumbing: raw-socket clients and a gate-blocked stub handler.

/// Send raw bytes, read the whole response (connection-close framing).
fn raw_roundtrip(addr: SocketAddr, bytes: &[u8]) -> Option<String> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(20))).ok()?;
    s.write_all(bytes).ok()?;
    let mut out = String::new();
    s.read_to_string(&mut out).ok()?;
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

fn get(addr: SocketAddr, path: &str) -> Option<String> {
    raw_roundtrip(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
    )
}

fn post_json(addr: SocketAddr, path: &str, body: &str) -> Option<String> {
    raw_roundtrip(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

/// Connect, stall for `delay_ms`, then send. Deadlines are anchored at
/// admission (`admitted_at` is stamped in the accept thread), so the
/// stall burns the request's budget before the body even arrives —
/// the deterministic way to exercise an already-expired deadline.
fn post_json_stale(addr: SocketAddr, path: &str, body: &str, delay_ms: u64) -> Option<String> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(20))).ok()?;
    std::thread::sleep(Duration::from_millis(delay_ms));
    let req = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).ok()?;
    let mut out = String::new();
    s.read_to_string(&mut out).ok()?;
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

fn status_of(response: &str) -> u16 {
    response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// A handler that blocks every request on a shared gate until released,
/// counting how many requests have entered. Lets tests pin workers in
/// "busy" deterministically.
struct GatedHandler {
    entered: AtomicUsize,
    gate: Mutex<bool>,
    released: Condvar,
}

impl GatedHandler {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            entered: AtomicUsize::new(0),
            gate: Mutex::new(false),
            released: Condvar::new(),
        })
    }

    fn release(&self) {
        *self.gate.lock().expect("gate") = true;
        self.released.notify_all();
    }

    fn wait_entered(&self, n: usize, timeout: Duration) {
        let start = Instant::now();
        while self.entered.load(Ordering::SeqCst) < n {
            assert!(
                start.elapsed() < timeout,
                "only {} of {n} requests entered the handler",
                self.entered.load(Ordering::SeqCst)
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Handler for GatedHandler {
    fn handle(&self, _req: &Request, _ctx: &ServeContext) -> Response {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let mut open = self.gate.lock().expect("gate");
        while !*open {
            open = self.released.wait(open).expect("gate wait");
        }
        Response::json(200, "{\"ok\":true}")
    }
}

/// A classify app over a tiny synthetic dataset with a budget-2 pool.
fn tiny_app() -> ClassifyApp {
    let dataset = CitationConfig::new("overload-test", 160, 6, 9).generate();
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
    let pool = Arc::new(WorkerPool::with_budget(2));
    ClassifyApp::new(
        SessionHost::new(
            &model,
            dataset,
            infer,
            pool,
            8,
            gp_tensor::Backend::Reference,
        )
        .expect("host"),
    )
}

/// Same host, cross-request batching on.
fn tiny_app_batched(max_batch: usize, window_ms: u64) -> ClassifyApp {
    tiny_app().with_batching(max_batch, window_ms)
}

/// Body of a raw HTTP response (headers stripped — `Content-Length`
/// varies with the timing digits, so comparisons must skip it).
fn body_of(response: &str) -> &str {
    response.split("\r\n\r\n").nth(1).unwrap_or(response)
}

/// The deterministic replay surface of a classify body — everything
/// before the wall-clock tail (`per_query_micros`, `batch_size`).
fn sans_timing(body: &str) -> &str {
    body.split("\"per_query_micros\"").next().unwrap_or(body)
}

fn quick_config(workers: usize, queue_capacity: usize) -> ServerConfig {
    ServerConfig {
        workers,
        queue_capacity,
        read_timeout_ms: 400,
        write_timeout_ms: 400,
        default_deadline_ms: 60_000,
        ..ServerConfig::default()
    }
}

// ---------------------------------------------------------------------------
// The suite.

#[test]
fn saturated_queue_sheds_immediately_with_503() {
    let gated = GatedHandler::new();
    let h = Server::start(quick_config(2, 2), Arc::clone(&gated)).expect("start");
    let addr = h.addr();

    let (tx, rx) = mpsc::channel::<(u16, bool, Instant)>();
    let spawn_client = |tx: mpsc::Sender<(u16, bool, Instant)>| {
        std::thread::spawn(move || {
            let resp = get(addr, "/work").unwrap_or_default();
            let _ = tx.send((
                status_of(&resp),
                resp.contains("Retry-After:"),
                Instant::now(),
            ));
        })
    };

    // Pin both workers inside the handler, then flood.
    let mut clients = vec![spawn_client(tx.clone()), spawn_client(tx.clone())];
    gated.wait_entered(2, Duration::from_secs(10));
    for _ in 0..8 {
        clients.push(spawn_client(tx.clone()));
    }
    drop(tx);

    // While the workers are pinned, sheds MUST come back: they are
    // written by the accept thread and never wait for a worker. With
    // both workers pinned and the 2-slot queue filled by the flood,
    // exactly 6 of the 8 flood requests shed — wait for every one
    // before opening the gate, so each 503's client-side finish
    // timestamp is provably pre-release (received-before-release
    // orders it; sampling `released_at` first would race with client
    // threads that have their bytes but not yet their timestamp).
    let mut results = Vec::new();
    let mut sheds = 0;
    while sheds < 6 {
        let r = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("all 6 sheds must arrive while the workers are pinned");
        if r.0 == 503 {
            sheds += 1;
        }
        results.push(r);
    }
    let released_at = Instant::now();
    gated.release();
    for r in rx.iter() {
        if r.0 == 503 {
            sheds += 1;
        }
        results.push(r);
    }
    for c in clients {
        c.join().expect("client thread");
    }
    h.shutdown();

    assert_eq!(results.len(), 10);
    let served = results.iter().filter(|r| r.0 == 200).count();
    assert_eq!(served + sheds, 10, "{results:?}");
    assert!(sheds >= 1, "queue of 2 + 2 workers cannot absorb 10");
    assert!(served >= 2, "pinned requests must still be answered");
    for (status, retry_after, finished) in &results {
        if *status == 503 {
            assert!(retry_after, "503 must carry Retry-After");
            assert!(
                *finished <= released_at,
                "shed responses must not wait for a worker slot"
            );
        }
    }
    assert_eq!(
        gated.entered.load(Ordering::SeqCst),
        served,
        "every non-shed request reached the handler exactly once"
    );
}

#[test]
fn panicking_request_gets_500_and_server_survives() {
    let handler = Arc::new(|req: &Request, _ctx: &ServeContext| -> Response {
        if req.path == "/boom" {
            panic!("injected handler panic");
        }
        Response::json(200, "{\"ok\":true}")
    });
    let h = Server::start(quick_config(2, 4), handler).expect("start");
    let addr = h.addr();

    // Alternate panicking and healthy requests across both workers:
    // each panic is contained to its request and poisons nothing.
    for round in 0..3 {
        let boom = get(addr, "/boom").expect("response for /boom");
        assert_eq!(status_of(&boom), 500, "round {round}: {boom}");
        assert!(boom.contains("isolated"), "{boom}");
        let fine = get(addr, "/fine").expect("response for /fine");
        assert_eq!(status_of(&fine), 200, "round {round}: {fine}");
    }
    h.shutdown();
}

#[test]
fn slow_and_malformed_clients_are_bounded() {
    let handler = Arc::new(|_req: &Request, _ctx: &ServeContext| -> Response {
        Response::json(200, "{\"ok\":true}")
    });
    let h = Server::start(quick_config(2, 4), handler).expect("start");
    let addr = h.addr();

    // Malformed request line → 400.
    let resp = raw_roundtrip(addr, b"NONSENSE\r\n\r\n").expect("reply");
    assert_eq!(status_of(&resp), 400, "{resp}");

    // Chunked transfer (unsupported by design) → 400.
    let resp = raw_roundtrip(
        addr,
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
    )
    .expect("reply");
    assert_eq!(status_of(&resp), 400, "{resp}");

    // Truncated body: claims 100 bytes, sends 3, then stalls → 408
    // within the read deadline, not a hung worker.
    let started = Instant::now();
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\nabc")
        .expect("send");
    s.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("cfg");
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    assert_eq!(status_of(&out), 408, "{out}");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "truncated body must be bounded by the read deadline"
    );

    // Declared oversized body → 413 without reading it.
    let resp =
        raw_roundtrip(addr, b"POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n").expect("reply");
    assert_eq!(status_of(&resp), 413, "{resp}");

    // Oversized headers → 431.
    let mut big = b"GET / HTTP/1.1\r\nX-Junk: ".to_vec();
    big.extend(std::iter::repeat_n(b'a', 16 * 1024));
    let resp = raw_roundtrip(addr, &big).expect("reply");
    assert_eq!(status_of(&resp), 431, "{resp}");

    // Slow-loris: a header byte every 150ms → overall deadline trips.
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("cfg");
    let loris = std::thread::spawn(move || {
        for b in b"GET / HTTP/1.1\r\nX-Slow: yes\r\n".iter() {
            if s.write_all(&[*b]).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(150));
        }
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        out
    });
    let out = loris.join().expect("loris thread");
    assert!(
        out.is_empty() || status_of(&out) == 408,
        "slow-loris must be cut off (got {out:?})"
    );

    // The server is still healthy for a legitimate client.
    let resp = get(addr, "/fine").expect("reply");
    assert_eq!(status_of(&resp), 200, "{resp}");
    h.shutdown();
}

#[test]
fn deadline_returns_504_with_partial_stage_timing() {
    let app = Arc::new(tiny_app());
    let h = Server::start(quick_config(2, 8), Arc::clone(&app)).expect("start");
    let addr = h.addr();

    // 1ms of budget (0 is rejected by validation now), burned in
    // admission by a client that stalls 30ms before sending: the
    // deadline is already gone at the first stage boundary.
    let resp = post_json_stale(
        addr,
        "/v1/classify",
        r#"{"ways": 3, "queries": 6, "seed": 4, "deadline_ms": 1}"#,
        30,
    )
    .expect("reply");
    assert_eq!(status_of(&resp), 504, "{resp}");
    assert!(resp.contains("\"stage\":\"candidate_embed\""), "{resp}");
    assert!(resp.contains("\"completed_queries\":0"), "{resp}");
    assert!(resp.contains("\"total_queries\":6"), "{resp}");
    assert!(resp.contains("\"stage_micros\":{"), "{resp}");

    // Same request, generous deadline → full answer on the same engine.
    let resp = post_json(
        addr,
        "/v1/classify",
        r#"{"ways": 3, "queries": 6, "seed": 4}"#,
    )
    .expect("reply");
    assert_eq!(status_of(&resp), 200, "{resp}");
    assert!(resp.contains("\"predictions\":["), "{resp}");
    h.shutdown();
}

#[test]
fn deadline_exhaustion_leaks_no_pool_threads() {
    let app = Arc::new(tiny_app());
    let budget = {
        let stats = app.host().pool().stats();
        stats.budget
    };
    let h = Server::start(quick_config(4, 8), Arc::clone(&app)).expect("start");
    let addr = h.addr();

    // Hammer with already-expired deadlines (budget burned in
    // admission, see `post_json_stale`) interleaved with real work
    // across 4 server workers sharing the budget-2 engine pool.
    for round in 0..6 {
        let resp = post_json_stale(
            addr,
            "/v1/classify",
            r#"{"ways": 3, "queries": 6, "seed": 1, "deadline_ms": 1}"#,
            30,
        )
        .expect("reply");
        assert_eq!(status_of(&resp), 504, "round {round}: {resp}");
    }
    let resp = post_json(
        addr,
        "/v1/classify",
        r#"{"ways": 3, "queries": 6, "seed": 1}"#,
    )
    .expect("reply");
    assert_eq!(status_of(&resp), 200, "{resp}");
    h.shutdown();

    let stats = app.host().pool().stats();
    assert!(
        stats.peak_active <= stats.budget,
        "timed-out requests leaked pool concurrency: peak {} > budget {}",
        stats.peak_active,
        stats.budget
    );
    assert_eq!(stats.budget, budget, "budget must never change");
}

#[test]
fn graceful_drain_completes_admitted_requests() {
    let gated = GatedHandler::new();
    let h = Server::start(quick_config(1, 4), Arc::clone(&gated)).expect("start");
    let addr = h.addr();

    // One in-flight (pinned in the handler) and one queued behind it.
    let (tx, rx) = mpsc::channel::<u16>();
    let mut clients = Vec::new();
    for _ in 0..2 {
        let tx = tx.clone();
        clients.push(std::thread::spawn(move || {
            let resp = get(addr, "/work").unwrap_or_default();
            let _ = tx.send(status_of(&resp));
        }));
    }
    drop(tx);
    gated.wait_entered(1, Duration::from_secs(10));
    std::thread::sleep(Duration::from_millis(100)); // let #2 reach the queue

    // Kill-mid-request: shutdown begins while both are outstanding.
    h.begin_shutdown();
    std::thread::sleep(Duration::from_millis(100)); // accept loop exits

    // New connections are refused once the listener is gone (a racing
    // connect may still land in the dying backlog; it must not be
    // answered with a 200 either way).
    match get(addr, "/late") {
        None => {}
        Some(resp) => assert_ne!(
            status_of(&resp),
            200,
            "drain must not admit new work: {resp}"
        ),
    }

    gated.release();
    let statuses: Vec<u16> = rx.iter().collect();
    for c in clients {
        c.join().expect("client");
    }
    h.shutdown();

    assert_eq!(
        statuses,
        vec![200, 200],
        "both admitted requests must complete through the drain"
    );
    assert_eq!(gated.entered.load(Ordering::SeqCst), 2);
}

#[test]
fn health_and_metrics_endpoints_are_well_formed() {
    gp_obs::set_enabled(true);
    let app = Arc::new(tiny_app());
    let h = Server::start(quick_config(2, 8), Arc::clone(&app)).expect("start");
    let addr = h.addr();

    let health = get(addr, "/v1/health").expect("health");
    assert_eq!(status_of(&health), 200, "{health}");
    for key in [
        "\"status\":\"ok\"",
        "\"queue_depth\":",
        "\"sessions\":",
        "\"engine_revision\":",
    ] {
        assert!(health.contains(key), "missing {key} in {health}");
    }

    // Generate some traffic, then the metrics snapshot must mention the
    // serve-layer instruments.
    let _ = post_json(
        addr,
        "/v1/classify",
        r#"{"ways": 3, "queries": 4, "seed": 2}"#,
    );
    let metrics = get(addr, "/v1/metrics").expect("metrics");
    assert_eq!(status_of(&metrics), 200);
    assert!(metrics.contains("serve.requests_total"), "{metrics}");

    let missing = get(addr, "/v1/nope").expect("404");
    assert_eq!(status_of(&missing), 404, "{missing}");
    h.shutdown();
}

#[test]
fn request_validation_is_hardened() {
    let app = Arc::new(tiny_app());
    let h = Server::start(quick_config(2, 8), Arc::clone(&app)).expect("start");
    let addr = h.addr();

    // Out-of-range and wrong-typed fields → 400 whose body names the
    // offending field; nothing falls back to a silent default.
    for (body, field) in [
        (r#"{"ways": 0}"#, "ways"),
        (r#"{"ways": "three"}"#, "ways"),
        (r#"{"queries": 0}"#, "queries"),
        (r#"{"queries": 100000}"#, "queries"),
        (r#"{"deadline_ms": 0}"#, "deadline_ms"),
        (r#"{"deadline_ms": 99999999999999}"#, "deadline_ms"),
        (r#"{"deadline_ms": "soon"}"#, "deadline_ms"),
        (r#"{"seed": "x"}"#, "seed"),
        (r#"{"session": 7}"#, "session"),
    ] {
        let resp = post_json(addr, "/v1/classify", body).expect("reply");
        assert_eq!(status_of(&resp), 400, "{body} → {resp}");
        assert!(
            resp.contains(&format!("\"field\":\"{field}\"")),
            "{body} → {resp}"
        );
    }

    // A legitimate request on the same server still runs.
    let resp = post_json(addr, "/v1/classify", r#"{"ways": 3, "queries": 4}"#).expect("reply");
    assert_eq!(status_of(&resp), 200, "{resp}");
    h.shutdown();
}

#[test]
fn keep_alive_connection_serves_many_requests() {
    let app = Arc::new(tiny_app());
    let h = Server::start(quick_config(2, 8), Arc::clone(&app)).expect("start");
    let addr = h.addr();

    let body = r#"{"ways": 3, "queries": 4, "seed": 9}"#;
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("cfg");
    let mut replies = Vec::new();
    for _ in 0..3 {
        s.write_all(
            format!(
                "POST /v1/classify HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("send");
        let (status, reply) = gp_serve::http::read_response(&mut s).expect("framed response");
        assert_eq!(status, 200, "{reply}");
        replies.push(reply);
    }
    // Replays over one reused connection stay bit-identical.
    assert_eq!(sans_timing(&replies[0]), sans_timing(&replies[1]));
    assert_eq!(sans_timing(&replies[0]), sans_timing(&replies[2]));

    // Then go idle: the server must close the connection at its read
    // deadline instead of letting a quiet client park a worker.
    let idled = Instant::now();
    let mut rest = String::new();
    s.read_to_string(&mut rest).expect("eof on idle keep-alive");
    assert!(rest.is_empty(), "{rest}");
    assert!(
        idled.elapsed() < Duration::from_secs(10),
        "idle keep-alive hold must be bounded by the read deadline"
    );
    h.shutdown();
}

#[test]
fn concurrent_requests_fuse_and_match_solo_results() {
    // Solo baseline server (batching off) and a fused server whose
    // 2-member batches dispatch the moment the second member joins (the
    // 5s window is a ceiling the full-batch path never waits out).
    let solo = Server::start(quick_config(2, 8), Arc::new(tiny_app())).expect("start solo");
    let fused =
        Server::start(quick_config(2, 8), Arc::new(tiny_app_batched(2, 5_000))).expect("start");
    let solo_addr = solo.addr();
    let fused_addr = fused.addr();

    let bodies = [
        r#"{"ways": 3, "queries": 4, "seed": 5}"#,
        r#"{"ways": 4, "queries": 7, "seed": 6}"#,
    ];
    let baselines: Vec<String> = bodies
        .iter()
        .map(|b| {
            let resp = post_json(solo_addr, "/v1/classify", b).expect("solo reply");
            assert_eq!(status_of(&resp), 200, "{resp}");
            body_of(&resp).to_string()
        })
        .collect();

    let clients: Vec<_> = bodies
        .iter()
        .map(|&b| {
            std::thread::spawn(move || post_json(fused_addr, "/v1/classify", b).unwrap_or_default())
        })
        .collect();
    let fused_replies: Vec<String> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    solo.shutdown();
    fused.shutdown();

    for (baseline, reply) in baselines.iter().zip(&fused_replies) {
        assert_eq!(status_of(reply), 200, "{reply}");
        assert_eq!(
            sans_timing(baseline),
            sans_timing(body_of(reply)),
            "a fused member must answer bit-identically to its solo run"
        );
        assert!(
            body_of(reply).contains("\"batch_size\":2"),
            "both members were in flight, so the pass must have fused them: {reply}"
        );
    }
}

#[test]
fn mid_collection_expiry_504s_one_member_not_the_batch() {
    // max_batch 3 with only two members: the group never fills, so the
    // leader holds until the earliest member deadline (A's 60ms), by
    // which point A has expired mid-collection while B is still good.
    let app = Arc::new(tiny_app_batched(3, 400));
    let h = Server::start(quick_config(2, 8), Arc::clone(&app)).expect("start");
    let addr = h.addr();

    let a = std::thread::spawn(move || {
        post_json(
            addr,
            "/v1/classify",
            r#"{"ways": 3, "queries": 4, "seed": 5, "deadline_ms": 60}"#,
        )
        .unwrap_or_default()
    });
    std::thread::sleep(Duration::from_millis(20));
    let b = std::thread::spawn(move || {
        post_json(
            addr,
            "/v1/classify",
            r#"{"ways": 3, "queries": 4, "seed": 6}"#,
        )
        .unwrap_or_default()
    });
    let resp_a = a.join().expect("client a");
    let resp_b = b.join().expect("client b");
    h.shutdown();

    // A ran out while waiting for batch-mates: 504 blaming the
    // collection stage, zero queries run.
    assert_eq!(status_of(&resp_a), 504, "{resp_a}");
    assert!(resp_a.contains("\"stage\":\"batch_collect\""), "{resp_a}");
    assert!(resp_a.contains("\"completed_queries\":0"), "{resp_a}");
    // B was not poisoned by A's expiry: it completed normally.
    assert_eq!(status_of(&resp_b), 200, "{resp_b}");
    assert!(body_of(&resp_b).contains("\"predictions\":["), "{resp_b}");
}

/// A handler whose service time is named by the request path
/// (`/sleep/<millis>`): pure sleep, no CPU, so the bounded-queue
/// arithmetic is exact even on a single-core runner.
struct PathSleepHandler;

impl Handler for PathSleepHandler {
    fn handle(&self, req: &Request, _ctx: &ServeContext) -> Response {
        let ms: u64 = req
            .path
            .rsplit('/')
            .next()
            .and_then(|m| m.parse().ok())
            .unwrap_or(10);
        std::thread::sleep(Duration::from_millis(ms.min(200)));
        Response::json(200, "{\"ok\":true}")
    }
}

#[test]
fn overload_keeps_admitted_p99_within_twice_uncontended() {
    // The acceptance bound itself. workers=2, queue=1: an admitted
    // request waits at most one service time (for the first of two
    // in-flight requests to finish), so admitted latency ≤ 2× service
    // while everything past the single queue slot sheds with a 503.
    // Service times cycle through four values so the two workers
    // cannot convoy into lockstep, which would push every queue wait
    // to the full-service worst case.
    const SLEEPS_MS: [u64; 4] = [24, 32, 40, 48];
    let h = Server::start(quick_config(2, 1), Arc::new(PathSleepHandler)).expect("start");
    let addr = h.addr();

    // Uncontended p99: one closed-loop client over the same mix.
    let mut base = Vec::new();
    for rep in 0..8 {
        let ms = SLEEPS_MS[rep % SLEEPS_MS.len()];
        let t = Instant::now();
        let resp = get(addr, &format!("/sleep/{ms}")).expect("uncontended reply");
        assert_eq!(status_of(&resp), 200, "{resp}");
        base.push(t.elapsed());
    }
    base.sort();
    let uncontended_p99 = *base.last().expect("nonempty");

    // 2× saturation: capacity is 2 workers / ~36ms mean service ≈ 55
    // rps; eight closed-loop clients re-offer instantly after a shed,
    // holding offered load well past that for the whole window.
    let (tx, rx) = mpsc::channel::<(u16, Duration)>();
    let clients: Vec<_> = (0..8)
        .map(|c| {
            let tx = tx.clone();
            std::thread::spawn(move || {
                let stop_at = Instant::now() + Duration::from_millis(1500);
                let mut i = c;
                while Instant::now() < stop_at {
                    let ms = SLEEPS_MS[i % SLEEPS_MS.len()];
                    i += 1;
                    let t = Instant::now();
                    if let Some(resp) = get(addr, &format!("/sleep/{ms}")) {
                        let _ = tx.send((status_of(&resp), t.elapsed()));
                    }
                }
            })
        })
        .collect();
    drop(tx);
    let results: Vec<(u16, Duration)> = rx.iter().collect();
    for c in clients {
        c.join().expect("client thread");
    }
    h.shutdown();

    let mut admitted: Vec<Duration> = results
        .iter()
        .filter(|(s, _)| *s == 200)
        .map(|(_, d)| *d)
        .collect();
    let shed = results.iter().filter(|(s, _)| *s == 503).count();
    assert!(shed > 0, "2x overload over a queue of 1 must shed");
    assert!(
        admitted.len() >= 20,
        "need a meaningful admitted sample, got {}",
        admitted.len()
    );
    admitted.sort();
    let p99 = admitted[(admitted.len() - 1) * 99 / 100];
    assert!(
        p99 <= uncontended_p99 * 2,
        "admitted p99 {p99:?} exceeds 2x uncontended p99 {uncontended_p99:?} \
         ({} admitted, {shed} shed)",
        admitted.len()
    );
}
