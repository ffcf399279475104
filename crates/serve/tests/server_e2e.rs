//! End-to-end tests: a live server on an ephemeral port, hostile-string
//! protocol fuzz, framing limits, and the interleaving-invariance
//! determinism contract.

use std::thread;

use mcds_check::gen::{self, Gen};
use mcds_geom::Point;
use mcds_obs::json::Value;
use mcds_rng::rngs::StdRng;
use mcds_rng::SeedableRng;
use mcds_serve::proto::{render_error, Request, MAX_LINE_BYTES, MAX_PENDING_EVENTS};
use mcds_serve::{Client, ServeConfig, Server};

/// A connected little line topology: node i at (0.8 i, 0).
fn line_points(n: usize) -> Vec<Point> {
    (0..n).map(|i| Point::new(i as f64 * 0.8, 0.0)).collect()
}

/// Binds a server on an ephemeral port, runs it on a background thread,
/// and returns `(addr, join handle)`.
fn spawn_server(cfg: ServeConfig, points: Vec<Point>) -> (String, thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", cfg, points).expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn test_config() -> ServeConfig {
    ServeConfig {
        threads: 4,
        ..ServeConfig::default()
    }
}

#[test]
fn hostile_strings_round_trip_through_the_json_layer() {
    let strings = gen::strings(0..=40);
    let mut rng = StdRng::seed_from_u64(20_080_617);
    for _ in 0..500 {
        let s = strings.generate(&mut rng);
        let doc = Value::Obj(vec![
            ("s".into(), Value::Str(s.clone())),
            (
                "xs".into(),
                Value::Arr(vec![Value::Str(s.clone()), Value::Null]),
            ),
        ]);
        let rendered = doc.render();
        let reparsed = Value::parse(&rendered)
            .unwrap_or_else(|e| panic!("render of {s:?} unparseable: {e}\n{rendered}"));
        assert_eq!(reparsed, doc, "round trip mangled {s:?}");
        // The server's error path embeds arbitrary client text; it must
        // stay a single parseable line.
        let err = render_error(&s);
        assert!(!err.contains('\n'), "error response split lines on {s:?}");
        let back = Value::parse(&err).expect("error response parses");
        assert_eq!(back.get("error").and_then(Value::as_str), Some(s.as_str()));
    }
}

#[test]
fn hostile_strings_never_crash_request_parsing() {
    let strings = gen::strings(0..=60);
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..500 {
        let s = strings.generate(&mut rng);
        // Any outcome is fine except a panic.
        let _ = Request::parse(&s);
        let _ = Request::parse(&format!("{{\"op\":{}}}", Value::Str(s.clone()).render()));
        let _ = Request::parse(&format!(
            "{{\"op\":\"query\",\"what\":{}}}",
            Value::Str(s).render()
        ));
    }
}

#[test]
fn full_session_over_tcp() {
    let (addr, handle) = spawn_server(test_config(), line_points(8));
    let mut c = Client::connect(&addr).expect("connect");

    // Solve matches what the proto renderer says for this topology.
    let solve = c.request(r#"{"op":"solve","alg":"greedy"}"#).unwrap();
    assert!(solve.starts_with(r#"{"ok":true,"op":"solve","alg":"greedy","n":8,"#));
    let parsed = Value::parse(&solve).expect("solve response parses");
    assert_eq!(parsed.get("ok").and_then(Value::as_bool), Some(true));
    let size = parsed.get("size").and_then(Value::as_u64).unwrap();
    assert!((6..=8).contains(&size), "P8 backbone size {size}");

    // Weighted solve reports a larger total under degree weights.
    let weighted = c
        .request(r#"{"op":"solve","alg":"greedy","weights":"degree"}"#)
        .unwrap();
    let wp = Value::parse(&weighted).unwrap();
    assert_eq!(wp.get("weights").and_then(Value::as_str), Some("degree"));
    assert!(wp.get("weight_total").and_then(Value::as_u64).unwrap() > size);

    // Malformed JSON is an error *response*, not a dropped connection.
    let bad = c.request(r#"{"op":"solve","#).unwrap();
    assert!(bad.starts_with(r#"{"ok":false"#));
    let also_bad = c.request(r#"{"op":"fly"}"#).unwrap();
    assert!(also_bad.contains("unknown op"));

    // Churn: queue without admitting, then tick.
    let queued = c
        .request(
            r#"{"op":"churn","events":[{"kind":"leave","node":7},{"kind":"leave","node":99}]}"#,
        )
        .unwrap();
    assert_eq!(queued, r#"{"ok":true,"op":"churn","queued":2,"pending":2}"#);
    let ticked = c.request(r#"{"op":"churn","admit":true}"#).unwrap();
    let tp = Value::parse(&ticked).unwrap();
    assert_eq!(tp.get("tick").and_then(Value::as_u64), Some(1));
    assert_eq!(tp.get("admitted").and_then(Value::as_u64), Some(1));
    assert_eq!(tp.get("rejected").and_then(Value::as_u64), Some(1)); // node 99 is dead
    assert_eq!(tp.get("population").and_then(Value::as_u64), Some(7));

    // Queries see the post-tick state.
    let stats = c.request(r#"{"op":"query","what":"stats"}"#).unwrap();
    let sp = Value::parse(&stats).unwrap();
    assert_eq!(sp.get("population").and_then(Value::as_u64), Some(7));
    assert_eq!(sp.get("giant").and_then(Value::as_u64), Some(7));
    let member = c
        .request(r#"{"op":"query","what":"member","node":7}"#)
        .unwrap();
    assert!(member.contains(r#""alive":false"#));
    let dom = c
        .request(r#"{"op":"query","what":"dominator-of","node":0}"#)
        .unwrap();
    let dp = Value::parse(&dom).unwrap();
    assert!(
        !dp.get("dominators")
            .and_then(Value::as_arr)
            .unwrap()
            .is_empty(),
        "node 0 must be dominated: {dom}"
    );

    // Metrics is a well-formed dump with the serve counters present.
    let metrics = c.request(r#"{"op":"metrics"}"#).unwrap();
    let mp = Value::parse(&metrics).expect("metrics parses");
    assert!(mp.get("counters").is_some());

    // Shutdown acknowledges, then the server exits.
    let bye = c.request(r#"{"op":"shutdown"}"#).unwrap();
    assert_eq!(bye, r#"{"ok":true,"op":"shutdown"}"#);
    handle.join().expect("server thread");
}

/// One raw HTTP exchange: write the request head, read to close.
fn http_exchange(addr: &str, raw: &str) -> String {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).expect("http connect");
    s.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    s.write_all(raw.as_bytes()).expect("http write");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("http read to close");
    out
}

#[test]
fn http_metrics_shim_coexists_with_jsonl() {
    // The exposition needs live counters, so run with the subscriber on
    // (serialized against other obs-toggling tests).
    mcds_obs::test_support::with_enabled(true, || {
        let (addr, handle) = spawn_server(test_config(), line_points(6));
        let mut c = Client::connect(&addr).expect("connect");
        let before = c.request(r#"{"op":"query","what":"stats"}"#).unwrap();

        // A curl-style GET on the same port returns the Prometheus text
        // exposition with honest framing headers.
        let ok = http_exchange(
            &addr,
            "GET /metrics HTTP/1.1\r\nHost: t\r\nUser-Agent: curl/8.0\r\nAccept: */*\r\n\r\n",
        );
        assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
        assert!(ok.contains("Connection: close\r\n"));
        let (head, body) = ok.split_once("\r\n\r\n").expect("header/body split");
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("Content-Length header")
            .parse()
            .unwrap();
        assert_eq!(len, body.len(), "Content-Length must match the body");
        assert!(
            body.contains("# TYPE mcds_serve_connections_total counter"),
            "{body}"
        );
        assert!(body.contains("# TYPE mcds_serve_request_ns histogram"));
        assert!(body.contains("mcds_serve_request_ns_bucket{le=\"+Inf\"}"));

        // Routing misses: 404 on unknown paths, 405 on non-GET.
        let not_found = http_exchange(&addr, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(not_found.starts_with("HTTP/1.1 404 Not Found\r\n"));
        let bad_method = http_exchange(&addr, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(bad_method.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"));

        // The JSONL session is untouched by interleaved HTTP scrapes:
        // same connection, byte-identical answer.
        let after = c.request(r#"{"op":"query","what":"stats"}"#).unwrap();
        assert_eq!(before, after);
        c.request(r#"{"op":"shutdown"}"#).unwrap();
        handle.join().expect("server thread");
    });
}

#[test]
fn oversized_lines_are_rejected_and_close_the_connection() {
    let cfg = ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    };
    let (addr, handle) = spawn_server(cfg, line_points(4));
    let mut c = Client::connect(&addr).expect("connect");
    // The longest accepted line: `MAX_LINE_BYTES` bytes, newline included.
    let stats = r#"{"op":"query","what":"stats"}"#;
    let longest = format!("{stats}{}", " ".repeat(MAX_LINE_BYTES - 1 - stats.len()));
    assert!(c
        .request(&longest)
        .expect("longest line answered")
        .starts_with(r#"{"ok":true"#));
    // One byte more.  The newline is the byte over the cap, so the server
    // has read the whole line when it rejects it, and the close is clean.
    let (head, tail) = (r#"{"op":"solve","alg":""#, r#""}"#);
    let fill = "x".repeat(MAX_LINE_BYTES - head.len() - tail.len());
    let huge = format!("{head}{fill}{tail}");
    assert_eq!(huge.len() + 1, MAX_LINE_BYTES + 1);
    let resp = c.request(&huge).expect("error response before close");
    assert!(
        resp.contains(&format!("exceeds {MAX_LINE_BYTES} bytes")),
        "{resp}"
    );
    // Framing is broken, so the server must have closed the connection.
    assert!(c.request(r#"{"op":"metrics"}"#).is_err());

    // A fresh connection still works and can shut the server down.
    let mut c2 = Client::connect(&addr).expect("reconnect");
    assert!(c2
        .request(r#"{"op":"query","what":"stats"}"#)
        .unwrap()
        .starts_with(r#"{"ok":true"#));
    c2.request(r#"{"op":"shutdown"}"#).unwrap();
    handle.join().expect("server thread");
}

/// A client that queues churn and never admits it fills the queue to
/// `MAX_PENDING_EVENTS`; its next request is refused and queues nothing,
/// while a second client's reads and solves are still answered.
#[test]
fn a_full_churn_queue_refuses_requests_and_serves_other_clients() {
    let (addr, handle) = spawn_server(test_config(), line_points(8));
    let churn = |count: usize| {
        let events = vec![r#"{"kind":"leave","node":99}"#; count].join(",");
        format!(r#"{{"op":"churn","events":[{events}]}}"#)
    };
    let queued = |queued: usize, pending: usize| {
        format!(r#"{{"ok":true,"op":"churn","queued":{queued},"pending":{pending}}}"#)
    };
    let mut filler = Client::connect(&addr).unwrap();
    let full = MAX_PENDING_EVENTS;
    assert_eq!(
        filler.request(&churn(full - 1)).unwrap(),
        queued(full - 1, full - 1)
    );
    assert_eq!(filler.request(&churn(1)).unwrap(), queued(1, full));
    let refused = filler.request(&churn(1)).unwrap();
    assert!(
        refused.starts_with(r#"{"ok":false"#) && refused.contains(&format!("{full}-event cap")),
        "{refused}"
    );
    assert_eq!(filler.request(&churn(0)).unwrap(), queued(0, full));

    let mut other = Client::connect(&addr).unwrap();
    let stats = other.request(r#"{"op":"query","what":"stats"}"#).unwrap();
    assert!(stats.starts_with(r#"{"ok":true,"op":"query""#), "{stats}");
    let solve = other.request(r#"{"op":"solve","alg":"greedy"}"#).unwrap();
    assert!(solve.starts_with(r#"{"ok":true,"op":"solve""#), "{solve}");

    // Admitting drains the queue (node 99 is dead, so every event is
    // rejected), and churn is accepted again.
    let ticked = filler.request(r#"{"op":"churn","admit":true}"#).unwrap();
    let tp = Value::parse(&ticked).unwrap();
    assert_eq!(
        tp.get("rejected").and_then(Value::as_u64),
        Some(full as u64)
    );
    assert_eq!(filler.request(&churn(1)).unwrap(), queued(1, 1));
    other.request(r#"{"op":"shutdown"}"#).unwrap();
    handle.join().expect("server thread");
}

/// The determinism contract over the wire: two servers fed the same
/// churn batches with different client interleavings answer every
/// post-tick request byte-identically.
#[test]
fn churn_admission_is_interleaving_invariant_across_clients() {
    let batch_a =
        r#"{"op":"churn","events":[{"kind":"leave","node":2},{"kind":"join","x":3.3,"y":0.4}]}"#;
    let batch_b = r#"{"op":"churn","events":[{"kind":"move","node":5,"x":4.4,"y":0.2},{"kind":"join","x":0.4,"y":0.6}]}"#;
    let tick = r#"{"op":"churn","admit":true}"#;
    let probes = [
        r#"{"op":"query","what":"stats"}"#.to_string(),
        r#"{"op":"solve","alg":"greedy","prune":true}"#.to_string(),
        r#"{"op":"solve","alg":"waf","weights":"random","weight_seed":3}"#.to_string(),
    ]
    .into_iter()
    .chain((0..10).map(|v| format!(r#"{{"op":"query","what":"member","node":{v}}}"#)))
    .chain((0..10).map(|v| format!(r#"{{"op":"query","what":"dominator-of","node":{v}}}"#)));

    let run = |first: &str, second: &str| -> Vec<String> {
        let (addr, handle) = spawn_server(test_config(), line_points(8));
        // Two concurrent clients enqueue one batch each; submission
        // order across connections is the variable under test.
        let mut c1 = Client::connect(&addr).unwrap();
        let mut c2 = Client::connect(&addr).unwrap();
        c1.request(first).unwrap();
        c2.request(second).unwrap();
        c1.request(tick).unwrap();
        let answers: Vec<String> = probes.clone().map(|p| c2.request(&p).unwrap()).collect();
        c1.request(r#"{"op":"shutdown"}"#).unwrap();
        handle.join().unwrap();
        answers
    };

    assert_eq!(
        run(batch_a, batch_b),
        run(batch_b, batch_a),
        "post-tick responses must not depend on batch arrival order"
    );
}
