//! The server runtime: one accept thread, a bounded admission queue,
//! and a fixed worker pool, assembled so that every overload mode has
//! exactly one designed outcome:
//!
//! * queue full → the **accept thread** writes `503 + Retry-After`
//!   immediately (shedding is the cheap path; it never waits on a
//!   worker) and [`crate::metrics::SHED_TOTAL`] ticks;
//! * handler panic → contained by `catch_unwind`, answered with 500;
//!   nothing is poisoned because every lock in the path recovers
//!   ([`crate::queue`], `gp-core`'s engine/pool);
//! * slow or hostile client → the read/write timeouts in
//!   [`crate::http`] bound how long a worker can be held;
//! * shutdown → accept stops, the listener closes, queued connections
//!   drain to completion, workers join. Zero admitted requests are
//!   dropped ([`ServerHandle::shutdown`]).
//!
//! Connections are one-request by default; a client sending
//! `Connection: keep-alive` may reuse the connection for up to
//! [`ServerConfig::keepalive_requests`] sequential requests. Each one
//! gets its own read deadline, an idle peer is closed silently at the
//! read timeout, and a drain ends reuse at the next response — so
//! keep-alive never weakens the slow-client or shutdown guarantees.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http::{read_request, write_response_with, Limits, Request, Response};
use crate::metrics::{
    DEADLINE_EXCEEDED_TOTAL, INFLIGHT, JOIN_FAILURES_TOTAL, PANICS_TOTAL, QUEUE_DEPTH,
    QUEUE_WAIT_MICROS, REQUESTS_TOTAL, REQUEST_MICROS, SHED_TOTAL, WRITE_ERRORS_TOTAL,
};
use crate::queue::{BoundedQueue, PushError};

/// Tunables for one server instance. Defaults are sized for the
/// integration tests and the repository benchmark's `serve_closed`
/// workload (`benchmark/`); `gp serve`
/// exposes the interesting ones as flags.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` (0 = ephemeral port).
    pub addr: String,
    /// Admission queue capacity — the backpressure knob. Beyond this
    /// many waiting connections, new arrivals are shed with 503.
    pub queue_capacity: usize,
    /// Worker threads reading/handling/answering requests.
    pub workers: usize,
    pub max_header_bytes: usize,
    pub max_body_bytes: usize,
    pub read_timeout_ms: u64,
    pub write_timeout_ms: u64,
    /// Deadline applied to classify requests that don't send their own
    /// `deadline_ms`. Counted from *admission*, so queue wait spends it.
    pub default_deadline_ms: u64,
    /// Value for the `Retry-After` header on shed responses.
    pub retry_after_secs: u64,
    /// Server-side cap on the `ways` a classify request may ask for;
    /// clamped to the crate hard limit [`crate::app::MAX_WAYS`].
    pub max_ways: u64,
    /// Server-side cap on `queries`; clamped to
    /// [`crate::app::MAX_QUERIES`].
    pub max_queries: u64,
    /// Largest `deadline_ms` a request may declare. Bounding it keeps
    /// deadline arithmetic overflow-free and stops a client from
    /// parking an effectively-undeadlined request on a worker.
    pub max_deadline_ms: u64,
    /// Requests served per connection when the client opts into
    /// `Connection: keep-alive`. 1 disables reuse entirely.
    pub keepalive_requests: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            queue_capacity: 64,
            workers: 4,
            max_header_bytes: 8 * 1024,
            max_body_bytes: 256 * 1024,
            read_timeout_ms: 2000,
            write_timeout_ms: 2000,
            default_deadline_ms: 30_000,
            retry_after_secs: 1,
            max_ways: crate::app::MAX_WAYS as u64,
            max_queries: crate::app::MAX_QUERIES as u64,
            max_deadline_ms: 3_600_000,
            keepalive_requests: 32,
        }
    }
}

impl ServerConfig {
    pub(crate) fn limits(&self) -> Limits {
        Limits {
            max_header_bytes: self.max_header_bytes,
            max_body_bytes: self.max_body_bytes,
            read_timeout: Duration::from_millis(self.read_timeout_ms),
            write_timeout: Duration::from_millis(self.write_timeout_ms),
        }
    }
}

/// Per-request context handed to the [`Handler`] alongside the parsed
/// request.
pub struct ServeContext {
    /// When the accept thread admitted the connection. Deadlines count
    /// from here so time spent queued is not free.
    pub admitted_at: Instant,
    /// Queue depth observed when the worker picked this request up.
    pub queue_depth: usize,
    /// Deadline to apply when the request doesn't carry one.
    pub default_deadline_ms: u64,
    /// Effective `ways` cap ([`ServerConfig::max_ways`], already clamped
    /// to the crate hard limit).
    pub max_ways: u64,
    /// Effective `queries` cap, likewise clamped.
    pub max_queries: u64,
    /// Largest `deadline_ms` a request may declare.
    pub max_deadline_ms: u64,
}

/// Application layer: maps one request to one response. Must be
/// panic-tolerant in aggregate — a panic here is contained per-request
/// by the worker and answered with a 500.
pub trait Handler: Send + Sync + 'static {
    fn handle(&self, req: &Request, ctx: &ServeContext) -> Response;
}

impl<F> Handler for F
where
    F: Fn(&Request, &ServeContext) -> Response + Send + Sync + 'static,
{
    fn handle(&self, req: &Request, ctx: &ServeContext) -> Response {
        self(req, ctx)
    }
}

/// A connection sitting in the admission queue. The request bytes have
/// NOT been read yet — admission control runs before any parsing so a
/// flood of garbage costs one queue slot each, not a parse each.
struct Conn {
    stream: TcpStream,
    admitted_at: Instant,
}

/// Running server. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown`].
pub struct Server;

pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the accept thread and `config.workers` workers, and
    /// return immediately. A `queue_capacity` above
    /// [`crate::app::MAX_QUEUE_CAPACITY`] is an `InvalidInput` error.
    pub fn start<H: Handler>(
        config: ServerConfig,
        handler: Arc<H>,
    ) -> std::io::Result<ServerHandle> {
        if config.queue_capacity > crate::app::MAX_QUEUE_CAPACITY {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "queue_capacity {} exceeds the limit of {}",
                    config.queue_capacity,
                    crate::app::MAX_QUEUE_CAPACITY
                ),
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let stop = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(BoundedQueue::<Conn>::new(config.queue_capacity));
        let limits = config.limits();

        let workers = (0..config.workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                let handler = Arc::clone(&handler);
                let cfg = config.clone();
                let stop = Arc::clone(&stop);
                #[expect(
                    clippy::disallowed_methods,
                    reason = "connection workers block on sockets; engine compute still fans out through the pool"
                )]
                std::thread::Builder::new()
                    .name(format!("gp-serve-worker-{i}"))
                    .spawn(move || worker_loop(&queue, handler.as_ref(), &cfg, &stop))
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        let accept_thread = {
            let stop = Arc::clone(&stop);
            let queue = Arc::clone(&queue);
            let cfg = config.clone();
            #[expect(
                clippy::disallowed_methods,
                reason = "the accept loop blocks on the listener; it does no engine compute"
            )]
            std::thread::Builder::new()
                .name("gp-serve-accept".to_string())
                .spawn(move || accept_loop(listener, &stop, &queue, &cfg, &limits))?
        };

        Ok(ServerHandle {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            workers,
        })
    }
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signal drain without blocking: the accept loop stops admitting,
    /// closes the listener, then closes the queue so workers exit once
    /// it is empty. Admitted requests keep running.
    pub fn begin_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Graceful drain: [`Self::begin_shutdown`] + join everything.
    /// Returns only after every admitted request has been answered.
    ///
    /// A failed join means a thread panicked somewhere outside the
    /// per-request `catch_unwind` — counted into
    /// `serve.join_failures_total` and reported in the returned
    /// [`DrainStats`] so the binary's drain log line can surface it
    /// instead of the error dying in a `let _ =`.
    pub fn shutdown(mut self) -> DrainStats {
        self.begin_shutdown();
        let mut stats = DrainStats::default();
        if let Some(t) = self.accept_thread.take() {
            if t.join().is_err() {
                JOIN_FAILURES_TOTAL.inc();
                stats.join_failures += 1;
            }
        }
        for w in self.workers.drain(..) {
            if w.join().is_err() {
                JOIN_FAILURES_TOTAL.inc();
                stats.join_failures += 1;
            }
        }
        stats
    }
}

/// What a graceful drain observed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainStats {
    /// Worker/accept threads whose `join()` returned `Err` (panicked
    /// outside request isolation). Zero on every healthy drain.
    pub join_failures: usize,
}

#[expect(
    clippy::disallowed_methods,
    reason = "admission timestamps start the request deadline; they never touch a response body"
)]
fn accept_loop(
    listener: TcpListener,
    stop: &AtomicBool,
    queue: &BoundedQueue<Conn>,
    cfg: &ServerConfig,
    limits: &Limits,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Accepted sockets may inherit the listener's
                // non-blocking flag on some platforms; the read path
                // needs plain blocking + SO_RCVTIMEO semantics.
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                // Responses are latency-sensitive and written whole;
                // Nagle only adds delayed-ACK stalls on keep-alive
                // connections. Best-effort: a socket we cannot
                // configure still gets served.
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "TCP_NODELAY is a latency tweak, not a correctness need; serving proceeds either way"
                )]
                let _ = stream.set_nodelay(true);
                let conn = Conn {
                    stream,
                    admitted_at: Instant::now(),
                };
                match queue.try_push(conn) {
                    Ok(()) => QUEUE_DEPTH.offset(1),
                    Err(e) => {
                        let (conn, resp) = match e {
                            PushError::Full(c) => (
                                c,
                                Response::error(503, "admission queue full; retry later")
                                    .with_retry_after(cfg.retry_after_secs),
                            ),
                            PushError::Closed(c) => (c, Response::error(503, "server is draining")),
                        };
                        SHED_TOTAL.inc();
                        // Inline shed from the accept thread: the ~100
                        // byte response fits any fresh socket buffer,
                        // so this cannot stall admission beyond the
                        // write timeout even against a dead peer. The
                        // request bytes were never read — drain them
                        // first or closing would RST the 503 away.
                        let mut stream = conn.stream;
                        crate::http::drain_pending(&stream);
                        if write_response_with(&mut stream, &resp, limits, false).is_err() {
                            WRITE_ERRORS_TOTAL.inc();
                        }
                    }
                }
            }
            // 1ms poll: bounds both the stop-flag latency and the
            // accept delay a sparse connection can see (a coarser
            // sleep here shows up directly as client-visible jitter).
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    // Listener drops here: the OS refuses new connections from this
    // point. Then close the queue — workers drain what was admitted
    // and exit; nothing admitted is ever dropped.
    drop(listener);
    queue.close();
}

#[expect(
    clippy::disallowed_methods,
    reason = "admission timestamps start the request deadline and the per-request trace; they never touch a response body"
)]
fn worker_loop<H: Handler + ?Sized>(
    queue: &BoundedQueue<Conn>,
    handler: &H,
    cfg: &ServerConfig,
    stop: &AtomicBool,
) {
    let limits = cfg.limits();
    let max_requests = cfg.keepalive_requests.max(1);
    while let Some(conn) = queue.pop() {
        QUEUE_DEPTH.offset(-1);
        QUEUE_WAIT_MICROS.record(conn.admitted_at.elapsed().as_micros() as u64);
        let mut stream = conn.stream;
        // First request's deadline counts from admission (queue wait is
        // not free); each keep-alive successor counts from its own read
        // start, since it never waited in the queue.
        let mut admitted_at = conn.admitted_at;

        for served in 0..max_requests {
            INFLIGHT.offset(1);
            let started = Instant::now();
            let mut client_keep_alive = false;
            let resp = match read_request(&mut stream, &limits) {
                Err(e) => {
                    // An idle keep-alive peer that goes quiet or hangs
                    // up between requests is a normal close, not an
                    // error worth answering.
                    if served > 0
                        && matches!(
                            e,
                            crate::http::ReadError::TimedOut | crate::http::ReadError::Disconnected
                        )
                    {
                        INFLIGHT.offset(-1);
                        break;
                    }
                    // The request was not fully read (caps/timeouts cut
                    // it short); drain what's buffered so the error
                    // response survives the close instead of being RST
                    // away.
                    crate::http::drain_pending(&stream);
                    Response::error(e.status(), &e.message())
                }
                Ok(req) => {
                    client_keep_alive = req.wants_keep_alive();
                    let ctx = ServeContext {
                        admitted_at,
                        queue_depth: queue.len(),
                        default_deadline_ms: cfg.default_deadline_ms,
                        max_ways: cfg.max_ways.min(crate::app::MAX_WAYS as u64),
                        max_queries: cfg.max_queries.min(crate::app::MAX_QUERIES as u64),
                        max_deadline_ms: cfg.max_deadline_ms,
                    };
                    // Contain handler panics to the request that caused
                    // them: answer 500 and keep the worker alive. All
                    // locks on the path recover from poisoning, so one
                    // bad request cannot wedge the next.
                    match catch_unwind(AssertUnwindSafe(|| handler.handle(&req, &ctx))) {
                        Ok(resp) => resp,
                        Err(_) => {
                            PANICS_TOTAL.inc();
                            Response::error(
                                500,
                                "internal error: handler panicked; request isolated",
                            )
                        }
                    }
                }
            };
            if resp.status == 504 {
                DEADLINE_EXCEEDED_TOTAL.inc();
            }
            // Reuse only when the client opted in, there is budget left
            // on this connection, and the server is not draining (a
            // drain must not wait out an idle keep-alive hold).
            let keep =
                client_keep_alive && served + 1 < max_requests && !stop.load(Ordering::SeqCst);
            let wrote = write_response_with(&mut stream, &resp, &limits, keep);
            if wrote.is_err() {
                WRITE_ERRORS_TOTAL.inc();
            }
            REQUEST_MICROS.record(started.elapsed().as_micros() as u64);
            REQUESTS_TOTAL.inc();
            INFLIGHT.offset(-1);
            if !keep || wrote.is_err() {
                break;
            }
            admitted_at = Instant::now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
            .expect("send");
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read");
        out
    }

    fn tiny_config() -> ServerConfig {
        ServerConfig {
            queue_capacity: 4,
            workers: 2,
            read_timeout_ms: 300,
            write_timeout_ms: 300,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn serves_requests_and_drains_on_shutdown() {
        let handler = Arc::new(|req: &Request, _ctx: &ServeContext| {
            Response::json(200, format!("{{\"path\":\"{}\"}}", req.path))
        });
        let h = Server::start(tiny_config(), handler).expect("start");
        let addr = h.addr();
        for _ in 0..3 {
            let got = get(addr, "/v1/health");
            assert!(got.starts_with("HTTP/1.1 200 OK\r\n"), "{got}");
            assert!(got.ends_with("{\"path\":\"/v1/health\"}"), "{got}");
        }
        h.shutdown();
        assert!(
            TcpStream::connect(addr).is_err() || get_soft(addr).is_none(),
            "listener must refuse connections after drain"
        );
    }

    /// Connect + send after shutdown; `None` when the server is gone
    /// (connect refused or reset before a status line).
    fn get_soft(addr: SocketAddr) -> Option<String> {
        let mut s = TcpStream::connect(addr).ok()?;
        s.write_all(b"GET / HTTP/1.1\r\n\r\n").ok()?;
        let mut out = String::new();
        s.read_to_string(&mut out).ok()?;
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }

    #[test]
    fn keep_alive_reuses_one_connection_for_many_requests() {
        let handler = Arc::new(|req: &Request, _ctx: &ServeContext| {
            Response::json(200, format!("{{\"path\":\"{}\"}}", req.path))
        });
        let h = Server::start(tiny_config(), handler).expect("start");
        let addr = h.addr();
        let mut s = TcpStream::connect(addr).expect("connect");
        for i in 0..3 {
            s.write_all(
                format!("GET /r{i} HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n")
                    .as_bytes(),
            )
            .expect("send");
            let (status, body) = crate::http::read_response(&mut s).expect("framed response");
            assert_eq!(status, 200);
            assert_eq!(body, format!("{{\"path\":\"/r{i}\"}}"));
        }
        drop(s);
        h.shutdown();
    }

    #[test]
    fn keepalive_budget_closes_connection_at_the_cap() {
        let handler =
            Arc::new(|_req: &Request, _ctx: &ServeContext| Response::json(200, "{\"ok\":true}"));
        let cfg = ServerConfig {
            keepalive_requests: 2,
            ..tiny_config()
        };
        let h = Server::start(cfg, handler).expect("start");
        let addr = h.addr();
        let mut s = TcpStream::connect(addr).expect("connect");
        for _ in 0..2 {
            s.write_all(b"GET / HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n")
                .expect("send");
            let (status, _) = crate::http::read_response(&mut s).expect("framed response");
            assert_eq!(status, 200);
        }
        // Budget spent: the server must have closed its side, so the
        // next read sees EOF rather than hanging.
        let mut rest = String::new();
        s.read_to_string(&mut rest).expect("eof after budget");
        assert!(rest.is_empty(), "{rest}");
        h.shutdown();
    }

    #[test]
    fn handler_panic_becomes_500_and_server_survives() {
        let handler = Arc::new(|req: &Request, _ctx: &ServeContext| -> Response {
            if req.path == "/boom" {
                panic!("injected handler panic");
            }
            Response::json(200, "{\"ok\":true}")
        });
        let h = Server::start(tiny_config(), handler).expect("start");
        let addr = h.addr();
        let got = get(addr, "/boom");
        assert!(got.starts_with("HTTP/1.1 500 "), "{got}");
        // Same worker pool keeps serving afterwards.
        let got = get(addr, "/fine");
        assert!(got.starts_with("HTTP/1.1 200 OK"), "{got}");
        h.shutdown();
    }
}
