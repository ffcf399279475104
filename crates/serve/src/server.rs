//! The daemon: a TCP listener, a worker pool, and one resident
//! [`Maintainer`] behind a mutex.
//!
//! Every connection is a JSONL session served by an `mcds-pool` worker;
//! requests across all connections funnel into the shared state under a
//! single lock, so the engine only ever sees a serial event history.
//! Churn events do not touch the engine on arrival — they queue, and a
//! `churn` request with `"admit":true` drains the queue as one *tick* in
//! the canonical admission order (see `admission_key`).  Two servers
//! fed the same batches in any per-batch arrival order therefore hold
//! bit-identical state after each tick — the DESIGN.md §8 determinism
//! contract extended over the wire.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use mcds_maintain::{MaintainConfig, Maintainer, NodeId, TopologyEvent};
use mcds_pool::ThreadPool;

use crate::proto::{
    self, ProtoError, QueryRequest, Request, SolveRequest, TickOutcome, MAX_LINE_BYTES,
};

/// Server tunables.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Unit-disk communication radius of the resident topology.
    pub radius: f64,
    /// Domination multiplicity maintained under churn (`1..=3`).
    pub m: usize,
    /// Worker pool width.  One handler per connection, so this bounds the
    /// number of concurrently served clients; with 1 the accept loop
    /// serves connections inline, one at a time.
    pub threads: usize,
    /// Keep buffered span/log trace events for a later flush.  A daemon
    /// enables the obs subscriber so the metrics endpoints have data;
    /// when nothing will ever flush the trace (no `--trace` file), the
    /// accept loop discards buffered events on idle so memory stays
    /// bounded over days of uptime.
    pub retain_trace: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            radius: 1.0,
            m: 1,
            threads: mcds_pool::default_parallelism(),
            retain_trace: false,
        }
    }
}

/// Mutable server state: the engine plus the churn admission queue.
struct State {
    engine: Maintainer,
    pending: Vec<TopologyEvent>,
    tick: u64,
}

/// State shared between the accept loop and connection handlers.
struct Shared {
    state: Mutex<State>,
    shutdown: AtomicBool,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        // A poisoned lock means a handler panicked mid-request; the state
        // is still structurally sound (the engine verifies after every
        // event), so keep serving instead of wedging the daemon.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The canonical admission order of one tick: leaves, then moves, then
/// joins; ties broken by node id, then by position bits.  Any total
/// order would do for determinism — this one drains departures first so
/// a move of a node that also left the same tick is rejected rather
/// than order-dependent.
fn admission_key(e: &TopologyEvent) -> (u8, NodeId, u64, u64) {
    match *e {
        TopologyEvent::Leave { node } => (0, node, 0, 0),
        TopologyEvent::Move { node, to } => (1, node, to.x.to_bits(), to.y.to_bits()),
        TopologyEvent::Join { pos } => (2, 0, pos.x.to_bits(), pos.y.to_bits()),
    }
}

/// Drains the pending queue as one tick: sort canonically, validate each
/// event against the *current* engine state, apply the valid ones.
fn admit(state: &mut State) -> TickOutcome {
    let mut batch = std::mem::take(&mut state.pending);
    batch.sort_by_key(admission_key);
    let mut admitted = 0;
    let mut rejected = 0;
    for event in batch {
        let valid = match &event {
            TopologyEvent::Join { pos } => pos.is_finite(),
            TopologyEvent::Leave { node } => state.engine.is_alive(*node),
            TopologyEvent::Move { node, to } => state.engine.is_alive(*node) && to.is_finite(),
        };
        if valid {
            state.engine.apply(event);
            admitted += 1;
        } else {
            rejected += 1;
        }
    }
    state.tick += 1;
    mcds_obs::counter!("serve.ticks");
    mcds_obs::counter!("serve.churn_admitted", admitted as u64);
    mcds_obs::counter!("serve.churn_rejected", rejected as u64);
    TickOutcome {
        tick: state.tick,
        admitted,
        rejected,
        population: state.engine.population(),
        backbone: state.engine.backbone().len(),
    }
}

/// A bound JSONL server holding one resident maintained backbone.
///
/// ```no_run
/// use mcds_serve::{ServeConfig, Server};
///
/// let points = vec![]; // usually a generated or loaded instance
/// let server = Server::bind("127.0.0.1:0", ServeConfig::default(), points)?;
/// println!("listening on {}", server.local_addr()?);
/// server.run()?; // blocks until a client sends {"op":"shutdown"}
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct Server {
    listener: TcpListener,
    cfg: ServeConfig,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("cfg", &self.cfg)
            .field("addr", &self.listener.local_addr())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and seeds the
    /// resident engine with `points` (stable ids `0..points.len()`).
    pub fn bind(
        addr: &str,
        cfg: ServeConfig,
        points: Vec<mcds_geom::Point>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let engine = Maintainer::with_population(
            MaintainConfig {
                radius: cfg.radius,
                m: cfg.m,
                ..MaintainConfig::default()
            },
            points,
        );
        Ok(Server {
            listener,
            cfg,
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    engine,
                    pending: Vec::new(),
                    tick: 0,
                }),
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address (read the ephemeral port from here).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves connections until a `shutdown` request arrives, then waits
    /// for in-flight handlers to drain and returns.
    ///
    /// # Errors
    ///
    /// An accept error that does not pass by itself (a reset or aborted
    /// client, or memory, descriptors or buffers exhausted for now, back
    /// off for 2 ms and retry) stops the daemon, and is returned once the
    /// handlers have drained.
    pub fn run(self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let pool = ThreadPool::new(self.cfg.threads);
        let cfg = self.cfg;
        let shared = &self.shared;
        let mut accept_error = None;
        pool.scope(|scope| {
            while !shared.shutdown.load(Ordering::SeqCst) {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        mcds_obs::counter!("serve.connections");
                        let shared = Arc::clone(shared);
                        scope.spawn(move || handle_connection(stream, &shared));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if !cfg.retain_trace {
                            // Nothing will flush the trace buffer; drop
                            // accumulated span/log events (the metric
                            // registry is untouched) so a long-lived
                            // daemon's memory stays bounded.
                            mcds_obs::trace::discard_events();
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) if transient_accept_error(&e) => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) => {
                        accept_error = Some(e);
                        shared.shutdown.store(true, Ordering::SeqCst);
                    }
                }
            }
        });
        match accept_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Whether an accept error passes by itself, so the accept loop backs off
/// and retries instead of stopping the daemon: a client that reset before
/// it was accepted, or memory, descriptors or socket buffers exhausted
/// for the moment (`ENFILE`, `EMFILE` and `ENOBUFS`, by their Linux
/// numbers).
fn transient_accept_error(e: &std::io::Error) -> bool {
    use std::io::ErrorKind::{ConnectionAborted, ConnectionReset, OutOfMemory};
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    const ENOBUFS: i32 = 105;
    matches!(e.kind(), ConnectionAborted | ConnectionReset | OutOfMemory)
        || matches!(e.raw_os_error(), Some(ENFILE | EMFILE | ENOBUFS))
}

/// Reads one newline-terminated line into `acc`, polling the shutdown
/// flag on read timeouts and enforcing the [`MAX_LINE_BYTES`] cap as
/// bytes arrive (not after).  Returns `Ok(None)` on EOF or shutdown.
fn read_line_limited(
    reader: &mut BufReader<TcpStream>,
    acc: &mut Vec<u8>,
    shutdown: &AtomicBool,
) -> Result<Option<String>, LineError> {
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(None);
                }
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(LineError::Io),
        };
        if chunk.is_empty() {
            // EOF; a final unterminated line still counts as a request.
            return if acc.is_empty() {
                Ok(None)
            } else {
                Ok(Some(take_line(acc)))
            };
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let upto = newline.map_or(chunk.len(), |i| i + 1);
        acc.extend_from_slice(&chunk[..upto]);
        reader.consume(upto);
        if acc.len() > MAX_LINE_BYTES {
            return Err(LineError::TooLong);
        }
        if newline.is_some() {
            return Ok(Some(take_line(acc)));
        }
    }
}

fn take_line(acc: &mut Vec<u8>) -> String {
    let mut bytes = std::mem::take(acc);
    if bytes.last() == Some(&b'\n') {
        bytes.pop();
    }
    if bytes.last() == Some(&b'\r') {
        bytes.pop();
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

enum LineError {
    TooLong,
    /// Transport failure; the connection is simply dropped, so the
    /// underlying error is not carried.
    Io,
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    // One small response per request: Nagle's algorithm would hold each
    // one hostage to the client's delayed ACK (~40 ms per round trip),
    // so send immediately.  Short read timeouts let idle connections
    // notice a shutdown requested elsewhere.  Failures here mean the
    // socket is already dead, so just drop it.
    if stream.set_nodelay(true).is_err()
        || stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .is_err()
    {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut acc = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let line = match read_line_limited(&mut reader, &mut acc, &shared.shutdown) {
            Ok(Some(line)) => line,
            Ok(None) => return,
            Err(LineError::TooLong) => {
                // Framing is unrecoverable past an oversized line: report
                // and close.
                let msg = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                let _ = writeln!(writer, "{}", proto::render_error(&msg));
                return;
            }
            Err(LineError::Io) => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        if is_http_request_line(&line) {
            // HTTP/1.1 shim: one request, one response, no keep-alive.
            // Scrapers (curl, Prometheus) share the JSONL port — JSONL
            // request lines start with `{`, so the grammars never clash.
            mcds_obs::counter!("serve.http_requests");
            drain_http_headers(&mut reader, &mut acc, &shared.shutdown);
            let response = http_response(&line);
            let _ = writer
                .write_all(response.as_bytes())
                .and_then(|()| writer.flush());
            return;
        }
        mcds_obs::counter!("serve.requests");
        let t0 = std::time::Instant::now();
        let (response, close) = respond(&line, shared);
        mcds_obs::observe_duration("serve.request_ns", t0.elapsed());
        if writeln!(writer, "{response}")
            .and_then(|()| writer.flush())
            .is_err()
        {
            return;
        }
        if close {
            return;
        }
    }
}

/// Whether a received line is an HTTP request line (`GET /x HTTP/1.1`)
/// rather than a JSONL request: an all-uppercase method token followed
/// by a target and an `HTTP/1.` version.
fn is_http_request_line(line: &str) -> bool {
    let Some((method, rest)) = line.split_once(' ') else {
        return false;
    };
    (1..=16).contains(&method.len())
        && method.bytes().all(|b| b.is_ascii_uppercase())
        && rest.contains("HTTP/1.")
}

/// Reads header lines until the empty line that ends an HTTP request
/// head (or EOF/shutdown/error), with the same per-line byte cap as the
/// JSONL protocol and a hard cap on header count — the shim never
/// buffers an unbounded request.
fn drain_http_headers(reader: &mut BufReader<TcpStream>, acc: &mut Vec<u8>, shutdown: &AtomicBool) {
    for _ in 0..64 {
        match read_line_limited(reader, acc, shutdown) {
            Ok(Some(line)) if !line.is_empty() => continue,
            _ => return,
        }
    }
}

/// The shim's entire routing table: `GET /metrics` serves the Prometheus
/// text exposition; anything else is 404/405.  Responses always carry
/// `Content-Length` and `Connection: close`.
fn http_response(request_line: &str) -> String {
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    let (status, extra, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "Allow: GET\r\n",
            "only GET is supported; the JSONL protocol shares this port\n".to_string(),
        )
    } else if target == "/metrics" || target.starts_with("/metrics?") {
        ("200 OK", "", mcds_obs::metrics_text())
    } else {
        ("404 Not Found", "", "try GET /metrics\n".to_string())
    };
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n{extra}Connection: close\r\n\r\n{body}",
        body.len()
    )
}

/// Dispatches one request line; the bool asks the caller to close the
/// connection afterwards.
fn respond(line: &str, shared: &Shared) -> (String, bool) {
    match Request::parse(line) {
        Err(ProtoError(msg)) => {
            mcds_obs::counter!("serve.bad_requests");
            (proto::render_error(&msg), false)
        }
        Ok(Request::Solve(req)) => (handle_solve(shared, &req), false),
        Ok(Request::Churn { events, admit: run }) => {
            let mut state = shared.lock();
            let queued = events.len();
            state.pending.extend(events);
            let outcome = run.then(|| admit(&mut state));
            let pending = state.pending.len();
            (proto::render_churn(queued, pending, outcome), false)
        }
        Ok(Request::Query(q)) => (handle_query(shared, q), false),
        Ok(Request::Metrics) => (proto::render_metrics(), false),
        Ok(Request::Shutdown) => {
            shared.shutdown.store(true, Ordering::SeqCst);
            (proto::render_shutdown(), true)
        }
    }
}

/// Solves the resident topology from scratch, exactly the way the batch
/// CLI does (same solver configuration, same renderer), mapping compact
/// solver indices back to stable node ids.  The graph is the engine's
/// resident rows relabelled over the live nodes in id order, the graph a
/// fresh build of the live points gives.
fn handle_solve(shared: &Shared, req: &SolveRequest) -> String {
    let _span = mcds_obs::span("serve.solve");
    let state = shared.lock();
    if state.engine.population() == 0 {
        return proto::render_error("no nodes alive");
    }
    let (ids, graph) = state.engine.topology().graph();
    let g = &graph;
    let solution = mcds_cds::Solver::new(req.alg)
        .verify(true)
        .prune(req.prune)
        .m(req.m)
        .biconnect(req.biconnect)
        .weight_scheme(req.weights)
        .solve(g);
    let cds = match solution {
        Ok(s) => s.into_cds(),
        Err(e) => return proto::render_error(&format!("{}: {e}", req.alg.name())),
    };
    let weight_total = req.weights.total(g, cds.nodes());
    let dominators: Vec<usize> = cds.dominators().iter().map(|&v| ids[v]).collect();
    let connectors: Vec<usize> = cds.connectors().iter().map(|&v| ids[v]).collect();
    proto::render_solve(req, g.num_nodes(), weight_total, &dominators, &connectors)
}

fn handle_query(shared: &Shared, q: QueryRequest) -> String {
    let state = shared.lock();
    let engine = &state.engine;
    match q {
        QueryRequest::Stats => {
            // The giant of the engine's last snapshot: every event takes
            // one, so it is current.
            proto::render_stats(
                state.tick,
                engine.population(),
                engine.giant(),
                engine.dominators().len(),
                engine.connectors().len(),
            )
        }
        QueryRequest::DominatorOf(node) => {
            let Some(neighbors) = engine.topology().neighbors(node) else {
                return proto::render_dominator_of(node, false, &[]);
            };
            // A dominator dominates itself and its neighbours.
            let mut dominators: Vec<NodeId> = neighbors
                .chain([node])
                .filter(|v| engine.dominators().binary_search(v).is_ok())
                .collect();
            dominators.sort_unstable();
            proto::render_dominator_of(node, true, &dominators)
        }
        QueryRequest::Member(node) => {
            let alive = engine.is_alive(node);
            let role = if !alive {
                "client"
            } else if engine.dominators().binary_search(&node).is_ok() {
                "dominator"
            } else if engine.connectors().binary_search(&node).is_ok() {
                "connector"
            } else {
                "client"
            };
            proto::render_member(node, alive, role)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_geom::Point;

    fn line(n: usize) -> Vec<Point> {
        (0..n).map(|i| Point::new(i as f64 * 0.8, 0.0)).collect()
    }

    #[test]
    fn accept_errors_back_off_only_when_transient() {
        use std::io::{Error, ErrorKind};
        for kind in [
            ErrorKind::ConnectionAborted,
            ErrorKind::ConnectionReset,
            ErrorKind::OutOfMemory,
        ] {
            assert!(transient_accept_error(&Error::from(kind)), "{kind:?}");
        }
        // ENFILE, EMFILE and ENOBUFS.
        for errno in [23, 24, 105] {
            let e = Error::from_raw_os_error(errno);
            assert!(transient_accept_error(&e), "errno {errno}: {e}");
        }
        // EBADF: the listener itself is broken.
        let fatal = Error::from_raw_os_error(9);
        assert!(!transient_accept_error(&fatal), "{fatal}");
        assert!(!transient_accept_error(&Error::from(
            ErrorKind::PermissionDenied
        )));
    }

    #[test]
    fn admission_order_is_canonical_and_validating() {
        let engine = Maintainer::with_population(MaintainConfig::default(), line(6));
        let mut state = State {
            engine,
            pending: vec![
                TopologyEvent::Join {
                    pos: Point::new(5.0, 0.1),
                },
                TopologyEvent::Move {
                    node: 2,
                    to: Point::new(1.6, 0.1),
                },
                TopologyEvent::Leave { node: 4 },
                // Node 4 leaves this same tick; its move must be rejected
                // (leaves drain first), not applied or panicking.
                TopologyEvent::Move {
                    node: 4,
                    to: Point::new(3.0, 0.0),
                },
                TopologyEvent::Leave { node: 99 }, // dead: rejected
            ],
            tick: 0,
        };
        let out = admit(&mut state);
        assert_eq!(out.tick, 1);
        assert_eq!(out.admitted, 3); // leave 4, move 2, join
        assert_eq!(out.rejected, 2);
        assert_eq!(out.population, 6); // 6 - 1 + 1
        assert!(state.pending.is_empty());
        assert!(!state.engine.is_alive(4));
        assert!(state.engine.is_alive(6)); // the join got the next id
    }

    #[test]
    fn http_request_lines_are_distinguished_from_jsonl() {
        assert!(is_http_request_line("GET /metrics HTTP/1.1"));
        assert!(is_http_request_line("HEAD / HTTP/1.0"));
        assert!(is_http_request_line("POST /metrics HTTP/1.1"));
        assert!(!is_http_request_line("{\"op\":\"metrics\"}"));
        assert!(!is_http_request_line("get /metrics HTTP/1.1"));
        assert!(!is_http_request_line("GET"));
        assert!(!is_http_request_line("GARBAGE but no version"));
        assert!(!is_http_request_line(""));
    }

    #[test]
    fn http_routing_table_covers_200_404_405() {
        let ok = http_response("GET /metrics HTTP/1.1");
        assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
        assert!(ok.contains("Content-Length: "));
        assert!(ok.contains("Connection: close\r\n"));
        let not_found = http_response("GET /other HTTP/1.1");
        assert!(not_found.starts_with("HTTP/1.1 404 Not Found\r\n"));
        let bad_method = http_response("POST /metrics HTTP/1.1");
        assert!(bad_method.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"));
        assert!(bad_method.contains("Allow: GET\r\n"));
        // Content-Length matches the body byte count exactly.
        let (head, body) = ok.split_once("\r\n\r\n").unwrap();
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(len, body.len());
    }

    /// `dominator-of` as the daemon answered it before it read the
    /// resident rows: a scan of every dominator for the closed disk
    /// `dist² ≤ r² + EPS`, plus the node itself.
    fn geometric_dominator_of(engine: &Maintainer, node: NodeId) -> String {
        let Some(pos) = engine.position(node) else {
            return proto::render_dominator_of(node, false, &[]);
        };
        let r = engine.config().radius;
        let r_sq = r * r + mcds_geom::EPS;
        let dominators: Vec<NodeId> = engine
            .dominators()
            .iter()
            .copied()
            .filter(|&d| d == node || engine.position(d).is_some_and(|q| pos.dist_sq(q) <= r_sq))
            .collect();
        proto::render_dominator_of(node, true, &dominators)
    }

    #[test]
    fn dominator_of_matches_the_geometric_scan_under_churn() {
        use mcds_maintain::{ChurnConfig, ChurnGen};
        use mcds_rng::{rngs::StdRng, Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(20);
        let points: Vec<Point> = (0..60)
            .map(|_| Point::new(rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0)))
            .collect();
        let shared = Shared {
            state: Mutex::new(State {
                engine: Maintainer::with_population(MaintainConfig::default(), points),
                pending: Vec::new(),
                tick: 0,
            }),
            shutdown: AtomicBool::new(false),
        };
        let mut churn = ChurnGen::new(ChurnConfig {
            region: mcds_geom::Aabb::square(4.0),
            p_join: 0.2,
            p_leave: 0.2,
            ..ChurnConfig::default()
        });
        let mut live_checked = 0;
        for event in 0..150 {
            let expected: Vec<(NodeId, String)> = {
                let mut state = shared.lock();
                let alive = state.engine.alive();
                state.engine.apply(churn.next_event(&mut rng, &alive));
                if event % 10 != 9 {
                    continue;
                }
                live_checked += state.engine.population();
                // Every id up to one past the largest live one, dead ids
                // included.
                let ids = state.engine.alive().last().map_or(0, |&(id, _)| id + 2);
                (0..ids)
                    .map(|id| (id, geometric_dominator_of(&state.engine, id)))
                    .collect()
            };
            for (id, want) in expected {
                let got = handle_query(&shared, QueryRequest::DominatorOf(id));
                assert_eq!(got, want, "event {event}, node {id}");
            }
        }
        assert!(
            live_checked >= 600,
            "only {live_checked} live answers checked"
        );
    }

    #[test]
    fn admission_is_interleaving_invariant() {
        let events = vec![
            TopologyEvent::Leave { node: 1 },
            TopologyEvent::Join {
                pos: Point::new(2.1, 0.4),
            },
            TopologyEvent::Move {
                node: 3,
                to: Point::new(2.5, 0.2),
            },
            TopologyEvent::Join {
                pos: Point::new(0.3, 0.3),
            },
        ];
        let run = |order: Vec<TopologyEvent>| {
            let mut state = State {
                engine: Maintainer::with_population(MaintainConfig::default(), line(5)),
                pending: order,
                tick: 0,
            };
            admit(&mut state);
            (state.engine.alive(), state.engine.backbone())
        };
        let mut reversed = events.clone();
        reversed.reverse();
        assert_eq!(run(events), run(reversed));
    }
}
