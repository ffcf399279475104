//! The wire protocol: request parsing and response rendering.
//!
//! One JSON object per line in each direction.  Requests carry an `"op"`
//! field selecting the verb; unknown fields are rejected so client typos
//! fail loudly instead of silently defaulting.  Responses always lead
//! with `"ok"` and render fields in a fixed order, so equal answers are
//! byte-equal — the property `scripts/verify.sh` exploits to diff the
//! daemon's solve answer against the batch CLI's `solve --json` output.
//!
//! ```text
//! > {"op":"solve","alg":"greedy","prune":true}
//! < {"ok":true,"op":"solve","alg":"greedy","n":60,"size":11,"weights":"unit","weight_total":11,"dominators":[...],"connectors":[...]}
//! > {"op":"churn","events":[{"kind":"leave","node":3}],"admit":true}
//! < {"ok":true,"op":"churn","queued":1,"tick":1,"admitted":1,"rejected":0,"population":59,"backbone":14}
//! > {"op":"query","what":"stats"}
//! < {"ok":true,"op":"query","what":"stats","tick":1,"population":59,"giant":59,"dominators":8,"connectors":6,"backbone":14}
//! > {"op":"metrics"}
//! < {"ok":true,"op":"metrics","counters":{...},"gauges":{...},"hists":{...}}
//! > {"op":"shutdown"}
//! < {"ok":true,"op":"shutdown"}
//! ```

use std::fmt;

use mcds_cds::{Algorithm, Solver, WeightScheme};
use mcds_geom::Point;
use mcds_maintain::TopologyEvent;
use mcds_obs::json::Value;
use mcds_obs::trace::json_escape;

/// Cap on request line length (bytes, newline included); longer lines
/// are rejected and the connection closed, since framing can no longer
/// be trusted.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Cap on churn events queued for the next admission tick; a `churn`
/// request that would push the queue past it is refused whole, so a
/// client that never admits cannot grow the daemon without bound.
pub const MAX_PENDING_EVENTS: usize = 4096;

/// A parsed, validated request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Solve the resident topology from scratch with this solver, whose
    /// verification is on.
    Solve(Solver),
    /// Submit churn events; with `admit`, also run an admission tick.
    Churn {
        /// Events to enqueue (validated at admission, not here).
        events: Vec<TopologyEvent>,
        /// Whether to drain the whole pending queue as one tick.
        admit: bool,
    },
    /// Read-only questions about the maintained backbone.
    Query(QueryRequest),
    /// Dump the `mcds-obs` metric registry.
    Metrics,
    /// Stop the server after acknowledging.
    Shutdown,
}

/// The `query` verbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryRequest {
    /// Backbone shape and population summary.
    Stats,
    /// The backbone members currently dominating `node`.
    DominatorOf(usize),
    /// Whether `node` is in the backbone, and in which role.
    Member(usize),
}

/// A rejected request line; the message is sent back to the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ProtoError {}

fn perr(msg: impl Into<String>) -> ProtoError {
    ProtoError(msg.into())
}

impl Request {
    /// Parses one request line.
    pub fn parse(line: &str) -> Result<Request, ProtoError> {
        let doc = Value::parse(line).map_err(|e| perr(format!("bad JSON: {e}")))?;
        let Value::Obj(fields) = &doc else {
            return Err(perr("request must be a JSON object"));
        };
        let op = doc
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| perr("request needs a string \"op\" field"))?;
        let allowed: &[&str] = match op {
            "solve" => &[
                "op",
                "alg",
                "m",
                "biconnect",
                "prune",
                "weights",
                "weight_seed",
            ],
            "churn" => &["op", "events", "admit"],
            "query" => &["op", "what", "node"],
            "metrics" | "shutdown" => &["op"],
            other => return Err(perr(format!("unknown op \"{}\"", json_escape(other)))),
        };
        for (key, _) in fields {
            if !allowed.contains(&key.as_str()) {
                return Err(perr(format!(
                    "unknown field \"{}\" for op \"{op}\"",
                    json_escape(key)
                )));
            }
        }
        match op {
            "solve" => Ok(Request::Solve(parse_solve(&doc)?)),
            "churn" => {
                let events = match doc.get("events") {
                    None => Vec::new(),
                    Some(v) => {
                        let items = v
                            .as_arr()
                            .ok_or_else(|| perr("\"events\" must be an array"))?;
                        items.iter().map(parse_event).collect::<Result<_, _>>()?
                    }
                };
                let admit = parse_bool(&doc, "admit")?;
                Ok(Request::Churn { events, admit })
            }
            "query" => {
                let what = doc
                    .get("what")
                    .and_then(Value::as_str)
                    .ok_or_else(|| perr("query needs a string \"what\" field"))?;
                let node = || {
                    doc.get("node")
                        .and_then(Value::as_usize)
                        .ok_or_else(|| perr(format!("query \"{what}\" needs a \"node\" id")))
                };
                match what {
                    "stats" => Ok(Request::Query(QueryRequest::Stats)),
                    "dominator-of" => Ok(Request::Query(QueryRequest::DominatorOf(node()?))),
                    "member" => Ok(Request::Query(QueryRequest::Member(node()?))),
                    other => Err(perr(format!(
                        "unknown query \"{}\" (valid: stats, dominator-of, member)",
                        json_escape(other)
                    ))),
                }
            }
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            _ => unreachable!("filtered above"),
        }
    }
}

fn parse_bool(doc: &Value, key: &str) -> Result<bool, ProtoError> {
    match doc.get(key) {
        None => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| perr(format!("\"{key}\" must be a boolean"))),
    }
}

/// Builds the [`Solver`] a `solve` request asks for; every field is
/// optional (`greedy`, `m = 1`, no augmentation, no prune, unit weights).
fn parse_solve(doc: &Value) -> Result<Solver, ProtoError> {
    let alg = match doc.get("alg") {
        None => Algorithm::GreedyConnect,
        Some(v) => {
            let name = v.as_str().ok_or_else(|| perr("\"alg\" must be a string"))?;
            name.parse().map_err(|e| perr(format!("{e}")))?
        }
    };
    let m = match doc.get("m") {
        None => 1,
        Some(v) => v
            .as_usize()
            .filter(|m| (1..=3).contains(m))
            .ok_or_else(|| perr("\"m\" must be 1, 2, or 3"))?,
    };
    let biconnect = parse_bool(doc, "biconnect")?;
    let prune = parse_bool(doc, "prune")?;
    let seed = match doc.get("weight_seed") {
        None => 1,
        Some(v) => v
            .as_u64()
            .ok_or_else(|| perr("\"weight_seed\" must be a non-negative integer"))?,
    };
    let weights = match doc.get("weights") {
        None => WeightScheme::Unit,
        Some(v) => {
            let name = v
                .as_str()
                .ok_or_else(|| perr("\"weights\" must be a string"))?;
            WeightScheme::parse(name, seed).map_err(|e| perr(format!("{e}")))?
        }
    };
    Ok(Solver::new(alg)
        .verify(true)
        .prune(prune)
        .m(m)
        .biconnect(biconnect)
        .weight_scheme(weights))
}

fn parse_event(v: &Value) -> Result<TopologyEvent, ProtoError> {
    let kind = v
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| perr("event needs a string \"kind\" field"))?;
    let coord = |key: &str| {
        v.get(key)
            .and_then(Value::as_f64)
            .filter(|x| x.is_finite())
            .ok_or_else(|| perr(format!("event \"{kind}\" needs a finite \"{key}\"")))
    };
    let node = || {
        v.get("node")
            .and_then(Value::as_usize)
            .ok_or_else(|| perr(format!("event \"{kind}\" needs a \"node\" id")))
    };
    match kind {
        "join" => Ok(TopologyEvent::Join {
            pos: Point::new(coord("x")?, coord("y")?),
        }),
        "leave" => Ok(TopologyEvent::Leave { node: node()? }),
        "move" => Ok(TopologyEvent::Move {
            node: node()?,
            to: Point::new(coord("x")?, coord("y")?),
        }),
        other => Err(perr(format!(
            "unknown event kind \"{}\" (valid: join, leave, move)",
            json_escape(other)
        ))),
    }
}

/// Renders one topology event the way `parse_event` reads it (used by
/// clients and the load generator).
pub fn render_event(event: &TopologyEvent) -> String {
    match event {
        TopologyEvent::Join { pos } => Value::Obj(vec![
            ("kind".into(), Value::Str("join".into())),
            ("x".into(), Value::Num(pos.x)),
            ("y".into(), Value::Num(pos.y)),
        ]),
        TopologyEvent::Leave { node } => Value::Obj(vec![
            ("kind".into(), Value::Str("leave".into())),
            ("node".into(), Value::Num(*node as f64)),
        ]),
        TopologyEvent::Move { node, to } => Value::Obj(vec![
            ("kind".into(), Value::Str("move".into())),
            ("node".into(), Value::Num(*node as f64)),
            ("x".into(), Value::Num(to.x)),
            ("y".into(), Value::Num(to.y)),
        ]),
    }
    .render()
}

/// Renders an error response.
pub fn render_error(msg: &str) -> String {
    format!("{{\"ok\":false,\"error\":\"{}\"}}", json_escape(msg))
}

/// Renders a node id list as a JSON array.
fn render_ids(ids: &[usize]) -> String {
    let mut out = String::from("[");
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&id.to_string());
    }
    out.push(']');
    out
}

/// Renders the answer of `solver`.  Shared verbatim by the daemon and
/// by `mcds-cli solve --json`, which is what makes the two answers
/// byte-identical by construction.
pub fn render_solve(
    solver: &Solver,
    n: usize,
    weight_total: u64,
    dominators: &[usize],
    connectors: &[usize],
) -> String {
    format!(
        "{{\"ok\":true,\"op\":\"solve\",\"alg\":\"{}\",\"n\":{n},\"size\":{},\
         \"weights\":\"{}\",\"weight_total\":{weight_total},\
         \"dominators\":{},\"connectors\":{}}}",
        solver.algorithm().name(),
        dominators.len() + connectors.len(),
        solver.weights().name(),
        render_ids(dominators),
        render_ids(connectors),
    )
}

/// Outcome of one admission tick, rendered into churn responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickOutcome {
    /// Tick number after admission.
    pub tick: u64,
    /// Events applied this tick.
    pub admitted: usize,
    /// Events dropped by validation (dead node, non-finite position).
    pub rejected: usize,
    /// Live nodes after the tick.
    pub population: usize,
    /// Backbone size after the tick.
    pub backbone: usize,
}

/// Renders a churn response; `queued` counts this request's events and
/// `pending` the queue depth left behind (absent when a tick ran).
pub fn render_churn(queued: usize, pending: usize, tick: Option<TickOutcome>) -> String {
    match tick {
        None => {
            format!("{{\"ok\":true,\"op\":\"churn\",\"queued\":{queued},\"pending\":{pending}}}")
        }
        Some(t) => format!(
            "{{\"ok\":true,\"op\":\"churn\",\"queued\":{queued},\"tick\":{},\"admitted\":{},\
             \"rejected\":{},\"population\":{},\"backbone\":{}}}",
            t.tick, t.admitted, t.rejected, t.population, t.backbone
        ),
    }
}

/// Renders a `query stats` response.
#[allow(clippy::too_many_arguments)]
pub fn render_stats(
    tick: u64,
    population: usize,
    giant: usize,
    dominators: usize,
    connectors: usize,
) -> String {
    format!(
        "{{\"ok\":true,\"op\":\"query\",\"what\":\"stats\",\"tick\":{tick},\
         \"population\":{population},\"giant\":{giant},\"dominators\":{dominators},\
         \"connectors\":{connectors},\"backbone\":{}}}",
        dominators + connectors
    )
}

/// Renders a `query dominator-of` response.
pub fn render_dominator_of(node: usize, alive: bool, dominators: &[usize]) -> String {
    format!(
        "{{\"ok\":true,\"op\":\"query\",\"what\":\"dominator-of\",\"node\":{node},\
         \"alive\":{alive},\"dominators\":{}}}",
        render_ids(dominators)
    )
}

/// Renders a `query member` response; `role` is `dominator`, `connector`
/// or `client`.
pub fn render_member(node: usize, alive: bool, role: &str) -> String {
    format!(
        "{{\"ok\":true,\"op\":\"query\",\"what\":\"member\",\"node\":{node},\
         \"alive\":{alive},\"member\":{},\"role\":\"{role}\"}}",
        role != "client" && alive
    )
}

/// Renders the metrics dump around the `mcds-obs` registry snapshot.
pub fn render_metrics() -> String {
    format!(
        "{{\"ok\":true,\"op\":\"metrics\",{}}}",
        mcds_obs::trace::metrics_json()
    )
}

/// Renders the shutdown acknowledgement.
pub fn render_shutdown() -> String {
    "{\"ok\":true,\"op\":\"shutdown\"}".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        assert_eq!(
            Request::parse(r#"{"op":"solve"}"#).unwrap(),
            Request::Solve(Solver::new(Algorithm::GreedyConnect).verify(true))
        );
        let r = Request::parse(
            r#"{"op":"solve","alg":"waf","m":2,"biconnect":true,"prune":true,"weights":"random","weight_seed":9}"#,
        )
        .unwrap();
        assert_eq!(
            r,
            Request::Solve(
                Solver::new(Algorithm::WafTree)
                    .verify(true)
                    .prune(true)
                    .m(2)
                    .biconnect(true)
                    .weight_scheme(WeightScheme::Random(9))
            )
        );
        let r = Request::parse(
            r#"{"op":"churn","events":[{"kind":"join","x":0.5,"y":1.5},{"kind":"leave","node":2},{"kind":"move","node":1,"x":0,"y":0}],"admit":true}"#,
        )
        .unwrap();
        match r {
            Request::Churn { events, admit } => {
                assert_eq!(events.len(), 3);
                assert!(admit);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            Request::parse(r#"{"op":"query","what":"stats"}"#).unwrap(),
            Request::Query(QueryRequest::Stats)
        );
        assert_eq!(
            Request::parse(r#"{"op":"query","what":"dominator-of","node":4}"#).unwrap(),
            Request::Query(QueryRequest::DominatorOf(4))
        );
        assert_eq!(
            Request::parse(r#"{"op":"query","what":"member","node":0}"#).unwrap(),
            Request::Query(QueryRequest::Member(0))
        );
        assert_eq!(
            Request::parse(r#"{"op":"metrics"}"#).unwrap(),
            Request::Metrics
        );
        assert_eq!(
            Request::parse(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn rejects_bad_requests_with_messages() {
        for (line, needle) in [
            ("", "bad JSON"),
            ("[1]", "must be a JSON object"),
            (r#"{"op":"fly"}"#, "unknown op"),
            (r#"{"op":"solve","alg":"bogus"}"#, "bogus"),
            (r#"{"op":"solve","m":9}"#, "\"m\" must be"),
            (r#"{"op":"solve","turbo":true}"#, "unknown field"),
            (
                r#"{"op":"solve","weights":"lucky"}"#,
                "unknown weight scheme",
            ),
            (
                r#"{"op":"churn","events":[{"kind":"warp"}]}"#,
                "unknown event kind",
            ),
            (
                r#"{"op":"churn","events":[{"kind":"leave"}]}"#,
                "needs a \"node\"",
            ),
            (
                r#"{"op":"churn","events":[{"kind":"join","x":1}]}"#,
                "needs a finite \"y\"",
            ),
            (r#"{"op":"query","what":"age"}"#, "unknown query"),
            (r#"{"op":"query","what":"member"}"#, "needs a \"node\""),
            (r#"{"op":"shutdown","force":true}"#, "unknown field"),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.0.contains(needle), "{line}: {}", err.0);
        }
    }

    #[test]
    fn event_rendering_round_trips() {
        let events = [
            TopologyEvent::Join {
                pos: Point::new(1.25, -0.5),
            },
            TopologyEvent::Leave { node: 17 },
            TopologyEvent::Move {
                node: 3,
                to: Point::new(0.0, 2.0),
            },
        ];
        for e in events {
            let line = format!(r#"{{"op":"churn","events":[{}]}}"#, render_event(&e));
            match Request::parse(&line).unwrap() {
                Request::Churn { events, .. } => assert_eq!(events, vec![e]),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn responses_are_fixed_order_json() {
        let solver = Solver::new(Algorithm::GreedyConnect);
        let solve = render_solve(&solver, 5, 3, &[0, 2], &[1]);
        assert_eq!(
            solve,
            r#"{"ok":true,"op":"solve","alg":"greedy","n":5,"size":3,"weights":"unit","weight_total":3,"dominators":[0,2],"connectors":[1]}"#
        );
        assert!(Value::parse(&solve).is_ok());
        for line in [
            render_error("boom \"quoted\""),
            render_churn(2, 5, None),
            render_churn(
                0,
                0,
                Some(TickOutcome {
                    tick: 3,
                    admitted: 4,
                    rejected: 1,
                    population: 50,
                    backbone: 12,
                }),
            ),
            render_stats(1, 50, 49, 8, 4),
            render_dominator_of(3, true, &[1, 2]),
            render_member(1, true, "dominator"),
            render_shutdown(),
        ] {
            assert!(Value::parse(&line).is_ok(), "unparseable response {line}");
        }
        assert_eq!(
            render_member(9, false, "client"),
            r#"{"ok":true,"op":"query","what":"member","node":9,"alive":false,"member":false,"role":"client"}"#
        );
    }
}
