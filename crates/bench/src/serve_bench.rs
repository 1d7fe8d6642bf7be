//! The committed serving benchmark behind `BENCH_serve.json`.
//!
//! Drives a real in-process `gp-serve` server over loopback TCP through
//! three phases:
//!
//! 1. **uncontended** — one closed-loop client, measuring baseline
//!    classify latency (p50/p99);
//! 2. **saturation** — a closed-loop phase with enough clients to keep
//!    the admission queue non-empty, measuring the QPS the workers
//!    actually clear (empirical — deriving it from single-client
//!    latency undercounts, since connect/accept overhead serializes
//!    with service in a closed loop);
//! 3. **overload** — an open-loop arrival process offering **2×** the
//!    measured saturation rate, recording the shed rate, the latency
//!    of the requests that were admitted, and the queue-depth
//!    trajectory sampled from `/v1/health`;
//! 4. **batched** — `max_batch` keep-alive clients fire aligned rounds
//!    of classify requests at a batching-enabled server (its own
//!    instance, sized so every round can fuse), recording per-request
//!    latency and the fused batch size each response reports. Clients
//!    hold one connection for the whole phase (`Connection:
//!    keep-alive`) and frame responses by `Content-Length` via
//!    [`gp_serve::http::read_response`].
//!
//! The contract the artifact documents (and `gp-serve`'s tests enforce
//! mechanism-by-mechanism): under 2× overload the server sheds the
//! excess with fast 503s instead of queueing without bound, and the
//! p99 of *admitted* requests stays within ~2× the uncontended p99
//! because the bounded queue caps how much waiting a request can
//! accumulate (`admitted_p99_ratio` in the JSON). The batched phase
//! documents that concurrent same-session requests actually fuse
//! (`mean_batch_size` ≈ `max_batch`); the per-query cost win of fusion
//! itself is pinned down by the batched rows of `BENCH_inference.json`,
//! measured without HTTP noise.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gp_core::{GraphPrompterModel, InferenceConfig, ModelConfig};
use gp_datasets::CitationConfig;
use gp_serve::{ClassifyApp, Server, ServerConfig, ServerHandle, SessionHost};
use gp_tensor::WorkerPool;

/// Latency/outcome summary for one load phase.
#[derive(Clone, Debug)]
pub struct PhaseStats {
    /// Requests offered (connections attempted).
    pub offered: usize,
    /// 200s — classified episodes.
    pub ok: usize,
    /// 503s — shed by admission control.
    pub shed: usize,
    /// Anything else (errors, resets, timeouts).
    pub other: usize,
    /// Median latency of the `ok` requests, µs.
    pub p50_micros: u64,
    /// 99th-percentile latency of the `ok` requests, µs.
    pub p99_micros: u64,
    /// Completed (`ok`) requests per second over the phase wall time.
    pub qps: f64,
}

/// The full benchmark result; `to_json` renders the committed artifact.
#[derive(Clone, Debug)]
pub struct ServeBenchReport {
    /// Server worker threads.
    pub workers: usize,
    /// Admission queue capacity.
    pub queue_capacity: usize,
    /// Engine worker-pool thread budget shared by all sessions.
    pub pool_budget: usize,
    /// Ways/queries of the benchmarked classify request.
    pub ways: usize,
    pub queries: usize,
    /// Closed-loop single-client baseline.
    pub uncontended: PhaseStats,
    /// Measured saturation throughput (closed loop, enough clients to
    /// keep the queue non-empty), requests/second.
    pub saturation_qps: f64,
    /// Open-loop phase offered at `2 × saturation_qps`.
    pub overload: PhaseStats,
    /// Queue depth sampled from `/v1/health` every ~50ms during the
    /// overload phase.
    pub queue_depth_trajectory: Vec<u64>,
    /// Cross-request batching phase; `None` when run with
    /// `--max-batch 1` (batching disabled).
    pub batched: Option<BatchedPhase>,
}

/// Stats for the keep-alive batched phase.
#[derive(Clone, Debug)]
pub struct BatchedPhase {
    /// Coalescer member cap the phase's server ran with.
    pub max_batch: usize,
    /// Aligned request rounds each client fired.
    pub rounds: usize,
    /// Latency/outcome summary over every request of every round.
    pub stats: PhaseStats,
    /// Mean of the `batch_size` field the 200 responses reported —
    /// ≈ `max_batch` when coalescing is actually happening.
    pub mean_batch_size: f64,
}

impl ServeBenchReport {
    /// Fraction of overload-phase requests shed with a 503.
    pub fn shed_rate(&self) -> f64 {
        if self.overload.offered == 0 {
            0.0
        } else {
            self.overload.shed as f64 / self.overload.offered as f64
        }
    }

    /// p99 of admitted overload requests over the uncontended p99 —
    /// the "bounded queue keeps admitted latency bounded" headline.
    pub fn admitted_p99_ratio(&self) -> f64 {
        self.overload.p99_micros as f64 / self.uncontended.p99_micros.max(1) as f64
    }

    /// Render the committed `BENCH_serve.json` artifact.
    pub fn to_json(&self) -> String {
        fn phase(p: &PhaseStats) -> String {
            format!(
                "{{\"offered\": {}, \"ok\": {}, \"shed\": {}, \"other\": {}, \
                 \"p50_micros\": {}, \"p99_micros\": {}, \"qps\": {:.1}}}",
                p.offered, p.ok, p.shed, p.other, p.p50_micros, p.p99_micros, p.qps
            )
        }
        let trajectory = self
            .queue_depth_trajectory
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let batched = match &self.batched {
            Some(b) => format!(
                "{{\"max_batch\": {}, \"rounds\": {}, \"stats\": {}, \"mean_batch_size\": {:.2}}}",
                b.max_batch,
                b.rounds,
                phase(&b.stats),
                b.mean_batch_size
            ),
            None => "null".into(),
        };
        format!(
            "{{\n  \"bench\": \"serve\",\n  \"workers\": {},\n  \"queue_capacity\": {},\n  \
             \"pool_budget\": {},\n  \"ways\": {},\n  \"queries\": {},\n  \
             \"uncontended\": {},\n  \"saturation_qps\": {:.1},\n  \"overload_2x\": {},\n  \
             \"shed_rate_2x\": {:.3},\n  \"admitted_p99_ratio\": {:.2},\n  \
             \"queue_depth_trajectory\": [{}],\n  \"batched\": {}\n}}\n",
            self.workers,
            self.queue_capacity,
            self.pool_budget,
            self.ways,
            self.queries,
            phase(&self.uncontended),
            self.saturation_qps,
            phase(&self.overload),
            self.shed_rate(),
            self.admitted_p99_ratio(),
            trajectory,
            batched
        )
    }
}

const WAYS: usize = 4;
const QUERIES: usize = 32;

/// One classify request. The seed varies per call so each episode
/// samples a fresh task — a fixed seed would let the engine's embed
/// cache absorb nearly all the work after warmup and the bench would
/// measure cache hits, not classification.
fn classify_once(addr: SocketAddr, seed: u64) -> (u16, u64) {
    let body = format!("{{\"ways\": {WAYS}, \"queries\": {QUERIES}, \"seed\": {seed}}}");
    #[expect(
        clippy::disallowed_methods,
        reason = "client-side request latency is the measurement"
    )]
    let started = Instant::now();
    let status = request_status(addr, &body);
    (status, started.elapsed().as_micros() as u64)
}

/// POST the classify body; 0 on any transport failure.
fn request_status(addr: SocketAddr, body: &str) -> u16 {
    let Ok(mut s) = TcpStream::connect(addr) else {
        return 0;
    };
    if s.set_read_timeout(Some(Duration::from_secs(30))).is_err() {
        return 0;
    }
    let req = format!(
        "POST /v1/classify HTTP/1.1\r\nHost: b\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    if s.write_all(req.as_bytes()).is_err() {
        return 0;
    }
    let mut out = String::new();
    if s.read_to_string(&mut out).is_err() {
        return 0;
    }
    out.split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0)
}

/// Read `queue_depth` off `/v1/health`. The probe rides the same
/// admission queue as everything else, so a shed probe is not a failed
/// sample — it is the strongest one: the queue was full when it
/// arrived. Reporting only successful probes would bias the trajectory
/// toward empty.
fn sample_queue_depth(addr: SocketAddr, capacity: usize) -> Option<u64> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    s.write_all(b"GET /v1/health HTTP/1.1\r\nHost: b\r\n\r\n")
        .ok()?;
    let mut out = String::new();
    s.read_to_string(&mut out).ok()?;
    if out.starts_with("HTTP/1.1 503") {
        return Some(capacity as u64);
    }
    let tail = out.split("\"queue_depth\":").nth(1)?;
    let digits: String = tail.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((pct / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn phase_stats(results: &[(u16, u64)], wall: Duration) -> PhaseStats {
    let mut ok_lat: Vec<u64> = results
        .iter()
        .filter(|(s, _)| *s == 200)
        .map(|(_, l)| *l)
        .collect();
    ok_lat.sort_unstable();
    let shed = results.iter().filter(|(s, _)| *s == 503).count();
    let ok = ok_lat.len();
    PhaseStats {
        offered: results.len(),
        ok,
        shed,
        other: results.len() - ok - shed,
        p50_micros: percentile(&ok_lat, 50.0),
        p99_micros: percentile(&ok_lat, 99.0),
        qps: ok as f64 / wall.as_secs_f64().max(1e-9),
    }
}

struct BenchServer {
    handle: ServerHandle,
    pool_budget: usize,
}

fn start_server(
    workers: usize,
    queue_capacity: usize,
    batching: Option<(usize, u64)>,
) -> Result<BenchServer, String> {
    // Sized so one classify costs a few milliseconds of real GNN work:
    // accept-poll and client-scheduling noise (tens to hundreds of µs)
    // must not dominate what the latency percentiles measure.
    let dataset = CitationConfig::new("serve-bench", 300, 6, 9).generate();
    let model = GraphPrompterModel::new(ModelConfig {
        embed_dim: 32,
        hidden_dim: 32,
        seed: 13,
        ..ModelConfig::default()
    });
    let infer = InferenceConfig {
        candidates_per_class: 6,
        ..InferenceConfig::default()
    };
    let pool_budget = 2;
    let pool = Arc::new(WorkerPool::with_budget(pool_budget));
    let host = SessionHost::new(
        &model,
        dataset,
        infer,
        pool,
        4,
        gp_tensor::Backend::Reference,
    )?;
    let config = ServerConfig {
        workers,
        queue_capacity,
        ..ServerConfig::default()
    };
    let mut app = ClassifyApp::new(host);
    if let Some((max_batch, window_ms)) = batching {
        app = app.with_batching(max_batch, window_ms);
    }
    let handle =
        Server::start(config, Arc::new(app)).map_err(|e| format!("starting server: {e}"))?;
    Ok(BenchServer {
        handle,
        pool_budget,
    })
}

/// One keep-alive classify exchange on an already-open connection:
/// write the request with `Connection: keep-alive`, frame the response
/// by `Content-Length`, and pull the fused `batch_size` out of the
/// body. Returns `(status, latency_micros, batch_size)`.
fn classify_keepalive(stream: &mut TcpStream, seed: u64) -> std::io::Result<(u16, u64, u64)> {
    let body = format!("{{\"ways\": {WAYS}, \"queries\": {QUERIES}, \"seed\": {seed}}}");
    let req = format!(
        "POST /v1/classify HTTP/1.1\r\nHost: b\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    #[expect(
        clippy::disallowed_methods,
        reason = "client-side request latency is the measurement"
    )]
    let started = Instant::now();
    stream.write_all(req.as_bytes())?;
    let (status, resp_body) = gp_serve::http::read_response(stream)?;
    let micros = started.elapsed().as_micros() as u64;
    let batch_size = resp_body
        .split("\"batch_size\":")
        .nth(1)
        .map(|tail| {
            tail.chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
        })
        .and_then(|d| d.parse().ok())
        .unwrap_or(0);
    Ok((status, micros, batch_size))
}

/// The batched phase: its own server (sized so a full round can fuse:
/// one worker and one coalescer slot per client), `max_batch` clients
/// on persistent connections firing barrier-aligned rounds.
fn batched_phase(max_batch: usize, rounds: usize) -> Result<BatchedPhase, String> {
    let server = start_server(max_batch, max_batch, Some((max_batch, 25)))?;
    let addr = server.handle.addr();

    let barrier = Arc::new(std::sync::Barrier::new(max_batch));
    #[expect(
        clippy::disallowed_methods,
        reason = "the phase's wall time is the measurement"
    )]
    let phase_start = Instant::now();
    #[expect(
        clippy::disallowed_methods,
        reason = "load-generator client threads, outside the engine's compute budget"
    )]
    let clients: Vec<_> = (0..max_batch)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || -> Vec<(u16, u64, u64)> {
                // A client that loses its connection keeps hitting the
                // barrier (recording nothing) — the others must never
                // deadlock waiting for a dead peer.
                let mut stream = TcpStream::connect(addr)
                    .ok()
                    .filter(|s| s.set_read_timeout(Some(Duration::from_secs(30))).is_ok());
                let mut out = Vec::with_capacity(rounds);
                for r in 0..rounds {
                    barrier.wait();
                    let Some(s) = stream.as_mut() else { continue };
                    let seed = 50_000 + (r * max_batch + c) as u64;
                    match classify_keepalive(s, seed) {
                        Ok(sample) => out.push(sample),
                        Err(_) => stream = None,
                    }
                }
                out
            })
        })
        .collect();
    let mut samples: Vec<(u16, u64, u64)> = Vec::with_capacity(max_batch * rounds);
    for c in clients {
        samples.extend(c.join().unwrap_or_default());
    }
    let wall = phase_start.elapsed();
    server.handle.shutdown();

    if samples.len() != max_batch * rounds {
        return Err(format!(
            "batched phase dropped requests: {} of {} answered",
            samples.len(),
            max_batch * rounds
        ));
    }
    let results: Vec<(u16, u64)> = samples.iter().map(|&(s, l, _)| (s, l)).collect();
    let fused: Vec<u64> = samples
        .iter()
        .filter(|(s, _, _)| *s == 200)
        .map(|&(_, _, b)| b)
        .collect();
    let mean_batch_size = if fused.is_empty() {
        0.0
    } else {
        fused.iter().sum::<u64>() as f64 / fused.len() as f64
    };
    Ok(BatchedPhase {
        max_batch,
        rounds,
        stats: phase_stats(&results, wall),
        mean_batch_size,
    })
}

/// Run the benchmark. `smoke` shrinks every phase to a CI-sized sanity
/// pass (a handful of requests; the numbers are real but noisy).
/// `max_batch > 1` adds the batched phase with that coalescer cap;
/// `max_batch ≤ 1` skips it (`"batched": null` in the artifact).
#[expect(
    clippy::disallowed_methods,
    reason = "a load generator: phase wall times are the measurement, and the result channels are drained in this fn while the phase runs"
)]
#[expect(
    clippy::let_underscore_must_use,
    reason = "sends race the phase's end and joins reap finished load-generator threads; a lost sample shows up as a missing result, never a wrong one"
)]
pub fn run(smoke: bool, max_batch: usize) -> Result<ServeBenchReport, String> {
    // One server worker per physical core this box actually has (CI
    // containers here expose a single CPU; more workers would only
    // time-slice the same core and smear the latency tail).
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2);
    // Queue sized to the latency SLO, not to "as big as fits": a
    // request admitted behind a full queue waits ~(capacity / workers)
    // service times, so capacity ≤ workers keeps worst-case admitted
    // latency near 2× the uncontended p99 — the excess is shed instead
    // of parked. This is the degradation contract the overload phase
    // demonstrates.
    let queue_capacity = 1;
    let (warmup, baseline_reps, capacity_reps, overload_secs, max_overload) = if smoke {
        (2usize, 5usize, 8usize, 1.0f64, 60usize)
    } else {
        (10, 120, 100, 4.0, 1200)
    };

    let server = start_server(workers, queue_capacity, None)?;
    let addr = server.handle.addr();

    // Phase 1: closed-loop baseline (includes engine cache warmup).
    for i in 0..warmup {
        let (status, _) = classify_once(addr, 1_000 + i as u64);
        if status != 200 {
            server.handle.shutdown();
            return Err(format!("warmup request failed with status {status}"));
        }
    }
    let t0 = Instant::now();
    let baseline: Vec<(u16, u64)> = (0..baseline_reps)
        .map(|i| classify_once(addr, 2_000 + i as u64))
        .collect();
    let uncontended = phase_stats(&baseline, t0.elapsed());
    if uncontended.ok == 0 {
        server.handle.shutdown();
        return Err("no baseline request succeeded".into());
    }

    // Phase 2: saturation = what the workers actually clear when the
    // queue never runs dry. Deriving capacity from single-client
    // latency undershoots (accept-poll and connect overhead serialize
    // with service there), so hammer with twice as many closed-loop
    // clients as workers and count the 200s — a client that gets shed
    // retries immediately, so the workers never idle and ok/wall is
    // the true clearing rate.
    let cap_clients = workers * 2;
    let tc = Instant::now();
    #[expect(
        clippy::disallowed_methods,
        reason = "load-generator client threads, outside the engine's compute budget"
    )]
    let cap_threads: Vec<_> = (0..cap_clients)
        .map(|t| {
            std::thread::spawn(move || {
                (0..capacity_reps)
                    .filter(|r| {
                        let seed = 10_000 + (t * capacity_reps + r) as u64;
                        classify_once(addr, seed).0 == 200
                    })
                    .count()
            })
        })
        .collect();
    let mut capacity_ok = 0usize;
    for t in cap_threads {
        capacity_ok += t.join().unwrap_or(0);
    }
    let capacity_wall = tc.elapsed();
    if capacity_ok == 0 {
        server.handle.shutdown();
        return Err("no capacity-phase request succeeded".into());
    }
    let saturation_qps = capacity_ok as f64 / capacity_wall.as_secs_f64().max(1e-9);

    // Phase 3: open-loop overload at 2× saturation. Arrivals follow a
    // fixed-rate schedule and never wait for earlier responses (that is
    // what "open loop" means); a reusable client pool claims arrival
    // slots through a ticket counter so the phase does not degenerate
    // into a thread-spawn storm whose scheduling jitter would pollute
    // the latency numbers. Queue depth is sampled concurrently.
    let offered_qps = 2.0 * saturation_qps;
    let interval_secs = 1.0 / offered_qps.max(1e-9);
    let planned = ((overload_secs * offered_qps) as usize).clamp(8, max_overload);
    // Enough pooled clients that slow (admitted) responses never stall
    // the arrival schedule: in-flight ≈ rate × latency stays far below
    // this for millisecond-scale requests.
    let client_pool = 8.min(planned);

    let (tx, rx) = mpsc::channel::<(u16, u64)>();
    let (depth_tx, depth_rx) = mpsc::channel::<u64>();
    let sampler_done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    #[expect(
        clippy::disallowed_methods,
        reason = "a queue-depth probe thread, outside the engine's compute budget"
    )]
    let sampler = {
        let done = Arc::clone(&sampler_done);
        std::thread::spawn(move || {
            while !done.load(std::sync::atomic::Ordering::SeqCst) {
                if let Some(d) = sample_queue_depth(addr, queue_capacity) {
                    let _ = depth_tx.send(d);
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        })
    };

    let t1 = Instant::now();
    let ticket = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    #[expect(
        clippy::disallowed_methods,
        reason = "load-generator client threads, outside the engine's compute budget"
    )]
    let clients: Vec<_> = (0..client_pool)
        .map(|_| {
            let tx = tx.clone();
            let ticket = Arc::clone(&ticket);
            std::thread::spawn(move || loop {
                let i = ticket.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                if i >= planned {
                    break;
                }
                let slot = Duration::from_secs_f64(interval_secs * i as f64);
                if let Some(wait) = slot.checked_sub(t1.elapsed()) {
                    std::thread::sleep(wait);
                }
                let _ = tx.send(classify_once(addr, 100_000 + i as u64));
            })
        })
        .collect();
    drop(tx);
    let mut overload_results = Vec::with_capacity(planned);
    for r in rx.iter() {
        overload_results.push(r);
    }
    let overload_wall = t1.elapsed();
    for c in clients {
        let _ = c.join();
    }
    sampler_done.store(true, std::sync::atomic::Ordering::SeqCst);
    let _ = sampler.join();
    let queue_depth_trajectory: Vec<u64> = depth_rx.try_iter().collect();

    server.handle.shutdown();

    // Phase 4: cross-request batching on its own, batching-enabled
    // server instance (the main phases stay comparable with older
    // artifacts). Rounds stay under the keep-alive budget so each
    // client's connection survives the whole phase.
    let batched = if max_batch > 1 {
        let rounds = if smoke { 5 } else { 30 };
        Some(batched_phase(max_batch, rounds)?)
    } else {
        None
    };

    Ok(ServeBenchReport {
        workers,
        queue_capacity,
        pool_budget: server.pool_budget,
        ways: WAYS,
        queries: QUERIES,
        uncontended,
        saturation_qps,
        overload: phase_stats(&overload_results, overload_wall),
        queue_depth_trajectory,
        batched,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_expected_ranks() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 50.0), 51);
        assert_eq!(percentile(&xs, 99.0), 99);
        assert_eq!(percentile(&xs, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn smoke_bench_produces_sane_artifact() {
        let report = run(true, 2).expect("smoke bench runs");
        assert!(report.uncontended.ok > 0);
        assert!(report.saturation_qps > 0.0);
        assert_eq!(
            report.overload.offered,
            report.overload.ok + report.overload.shed + report.overload.other
        );
        let batched = report.batched.as_ref().expect("batched phase ran");
        assert_eq!(batched.stats.ok, batched.stats.offered, "no batched drops");
        assert!(
            batched.mean_batch_size >= 1.0,
            "fused responses must report a batch size"
        );
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"serve\""), "{json}");
        assert!(json.contains("\"queue_depth_trajectory\""), "{json}");
        assert!(json.contains("\"mean_batch_size\""), "{json}");
    }
}
