//! The line-delimited frame protocol: requests, responses, and the
//! error-frame taxonomy.
//!
//! Every frame is one line of JSON. Requests are objects carrying an
//! `"op"` string and a client-chosen `"id"` (echoed back verbatim in
//! the matching response, so clients can pipeline). Responses carry
//! `"ok": true` plus op-specific fields, or `"ok": false` plus a
//! structured `"error": {"code", "message"}` object. Malformed input —
//! bytes that are not JSON, JSON that is not a valid frame, frames
//! that are too large — is always answered with an error frame on the
//! same connection; the connection stays open.

use dynsum_cfl::QueryResult;
use dynsum_core::EngineKind;

use crate::json::{parse, Json, MAX_JSON_DEPTH};

/// Hard cap on a single frame's length in bytes. Anything longer is
/// answered with an [`ErrorCode::Oversized`] error frame without being
/// parsed (the transport need not even buffer past the cap).
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Upper bound on `vars` per `batch` frame.
pub const MAX_BATCH_VARS: usize = 4096;

/// The protocol's stable error codes. The wire string (see
/// [`ErrorCode::code`]) is part of the protocol: tests and clients
/// match on it, so variants are append-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame was not valid JSON.
    Parse,
    /// The frame was JSON but not a valid request (missing/ill-typed
    /// fields, unknown field values, limits exceeded).
    BadFrame,
    /// The `op` string names no known operation.
    UnknownOp,
    /// An operation that needs a negotiated session arrived before
    /// `hello`.
    NeedHello,
    /// `hello` carried an invalid engine/config negotiation (including
    /// any attempt to disable deterministic reuse, which the shared
    /// sessions require).
    BadConfig,
    /// `hello` named a workload the daemon does not serve.
    UnknownWorkload,
    /// A query named a variable that does not exist in the workload.
    UnknownVar,
    /// `invalidate_method` named a method that does not exist.
    UnknownMethod,
    /// A `query`/`batch` reused a request id that is still in flight.
    DuplicateId,
    /// The client's edge allowance is spent; the query was rejected
    /// without running (answers are never silently degraded).
    BudgetExhausted,
    /// The frame exceeded [`MAX_FRAME_BYTES`].
    Oversized,
    /// `save_snapshot` failed: no snapshot directory is configured or
    /// the write failed.
    SnapshotIo,
    /// The daemon is shutting down and accepts no new work.
    ShuttingDown,
}

impl ErrorCode {
    /// The stable wire string.
    pub fn code(self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse",
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::UnknownOp => "unknown-op",
            ErrorCode::NeedHello => "need-hello",
            ErrorCode::BadConfig => "bad-config",
            ErrorCode::UnknownWorkload => "unknown-workload",
            ErrorCode::UnknownVar => "unknown-var",
            ErrorCode::UnknownMethod => "unknown-method",
            ErrorCode::DuplicateId => "duplicate-id",
            ErrorCode::BudgetExhausted => "budget-exhausted",
            ErrorCode::Oversized => "oversized",
            ErrorCode::SnapshotIo => "snapshot-io",
            ErrorCode::ShuttingDown => "shutting-down",
        }
    }
}

/// A structured protocol error: code plus human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// The stable error code.
    pub code: ErrorCode,
    /// Details for humans; not matched by clients.
    pub message: String,
}

impl ProtoError {
    /// Builds an error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ProtoError {
            code,
            message: message.into(),
        }
    }
}

/// A variable reference in a `query`/`batch` frame: either the raw
/// `VarId` index (a number) or the variable's name (a string, resolved
/// via `Pag::find_var`).
#[derive(Debug, Clone, PartialEq)]
pub enum VarRef {
    /// Raw index into the workload's variable arena.
    Raw(u32),
    /// `Class.method#var`-style name.
    Named(String),
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Session negotiation; must be the first operation on a
    /// connection.
    Hello {
        /// Echoed request id.
        id: u64,
        /// Client display name (for health reports).
        name: String,
        /// Workload to analyze (daemon's default when absent).
        workload: Option<String>,
        /// Engine to query with (DYNSUM when absent).
        engine: EngineKind,
        /// `EngineConfig` overrides, already validated key-wise.
        config: Vec<(String, Json)>,
        /// Requested per-client edge allowance (capped by the daemon).
        budget: Option<u64>,
        /// Default per-query deadline in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// One points-to query.
    Query {
        /// Echoed request id.
        id: u64,
        /// The queried variable.
        var: VarRef,
        /// Per-query deadline override.
        deadline_ms: Option<u64>,
    },
    /// A batch of points-to queries answered by one response frame.
    Batch {
        /// Echoed request id.
        id: u64,
        /// The queried variables, in response order.
        vars: Vec<VarRef>,
        /// Per-query deadline override applied to each query.
        deadline_ms: Option<u64>,
    },
    /// Cancels an in-flight `query`/`batch` by its request id.
    Cancel {
        /// Echoed request id.
        id: u64,
        /// The request id to cancel.
        target: u64,
    },
    /// Evicts one method's summaries from the shared session.
    InvalidateMethod {
        /// Echoed request id.
        id: u64,
        /// Raw method id.
        method: u32,
    },
    /// Reports session health plus this client's counters.
    Health {
        /// Echoed request id.
        id: u64,
    },
    /// Persists the shared session's summary cache to the configured
    /// snapshot directory.
    SaveSnapshot {
        /// Echoed request id.
        id: u64,
    },
    /// Stops the daemon after in-flight work drains.
    Shutdown {
        /// Echoed request id.
        id: u64,
    },
}

impl Request {
    /// The request id echoed in this request's response.
    pub fn id(&self) -> u64 {
        match self {
            Request::Hello { id, .. }
            | Request::Query { id, .. }
            | Request::Batch { id, .. }
            | Request::Cancel { id, .. }
            | Request::InvalidateMethod { id, .. }
            | Request::Health { id }
            | Request::SaveSnapshot { id }
            | Request::Shutdown { id } => *id,
        }
    }
}

/// `EngineConfig` keys `hello` may override; any other key is a
/// [`ErrorCode::BadConfig`] error.
pub const CONFIG_KEYS: &[&str] = &[
    "budget",
    "max_field_depth",
    "max_ctx_depth",
    "max_refinements",
    "max_cached_summaries",
    "context_sensitive",
    "cache_summaries",
];

/// Parses an engine name as used on the wire.
pub fn parse_engine(name: &str) -> Option<EngineKind> {
    match name {
        "dynsum" => Some(EngineKind::DynSum),
        "norefine" => Some(EngineKind::NoRefine),
        "refinepts" => Some(EngineKind::RefinePts),
        "stasum" => Some(EngineKind::StaSum),
        _ => None,
    }
}

/// The wire name of an engine.
pub fn engine_name(kind: EngineKind) -> &'static str {
    match kind {
        EngineKind::DynSum => "dynsum",
        EngineKind::NoRefine => "norefine",
        EngineKind::RefinePts => "refinepts",
        EngineKind::StaSum => "stasum",
    }
}

/// Parses one raw frame line into a [`Request`].
///
/// On failure the result carries the request id when one could still be
/// extracted (so the error frame can echo it) — `None` otherwise.
pub fn parse_request(line: &str) -> Result<Request, (Option<u64>, ProtoError)> {
    if line.len() > MAX_FRAME_BYTES {
        return Err((
            None,
            ProtoError::new(
                ErrorCode::Oversized,
                format!("frame of {} bytes exceeds {MAX_FRAME_BYTES}", line.len()),
            ),
        ));
    }
    let value =
        parse(line).map_err(|e| (None, ProtoError::new(ErrorCode::Parse, e.to_string())))?;
    let id = value.get("id").and_then(Json::as_u64);
    parse_request_value(&value).map_err(|e| (id, e))
}

fn parse_request_value(value: &Json) -> Result<Request, ProtoError> {
    let obj = value
        .as_obj()
        .ok_or_else(|| ProtoError::new(ErrorCode::BadFrame, "frame must be a JSON object"))?;
    let op = value
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::new(ErrorCode::BadFrame, "missing string field `op`"))?;
    let id = value
        .get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| ProtoError::new(ErrorCode::BadFrame, "missing integer field `id`"))?;
    let known = |allowed: &[&str]| -> Result<(), ProtoError> {
        for (k, _) in obj {
            if k != "op" && k != "id" && !allowed.contains(&k.as_str()) {
                return Err(ProtoError::new(
                    ErrorCode::BadFrame,
                    format!("unknown field `{k}` for op `{op}`"),
                ));
            }
        }
        Ok(())
    };
    match op {
        "hello" => {
            known(&[
                "name",
                "workload",
                "engine",
                "config",
                "budget",
                "deadline_ms",
            ])?;
            let name = match value.get("name") {
                None => "anonymous".to_owned(),
                Some(v) => v
                    .as_str()
                    .ok_or_else(|| ProtoError::new(ErrorCode::BadFrame, "`name` must be a string"))?
                    .to_owned(),
            };
            let workload = match value.get("workload") {
                None => None,
                Some(v) => Some(
                    v.as_str()
                        .ok_or_else(|| {
                            ProtoError::new(ErrorCode::BadFrame, "`workload` must be a string")
                        })?
                        .to_owned(),
                ),
            };
            let engine = match value.get("engine") {
                None => EngineKind::DynSum,
                Some(v) => {
                    let name = v.as_str().ok_or_else(|| {
                        ProtoError::new(ErrorCode::BadConfig, "`engine` must be a string")
                    })?;
                    parse_engine(name).ok_or_else(|| {
                        ProtoError::new(ErrorCode::BadConfig, format!("unknown engine `{name}`"))
                    })?
                }
            };
            let config = match value.get("config") {
                None => Vec::new(),
                Some(v) => {
                    let fields = v.as_obj().ok_or_else(|| {
                        ProtoError::new(ErrorCode::BadConfig, "`config` must be an object")
                    })?;
                    for (k, _) in fields {
                        if !CONFIG_KEYS.contains(&k.as_str()) {
                            return Err(ProtoError::new(
                                ErrorCode::BadConfig,
                                format!("unknown config key `{k}`"),
                            ));
                        }
                    }
                    fields.to_vec()
                }
            };
            let budget = opt_u64(value, "budget")?;
            let deadline_ms = opt_u64(value, "deadline_ms")?;
            Ok(Request::Hello {
                id,
                name,
                workload,
                engine,
                config,
                budget,
                deadline_ms,
            })
        }
        "query" => {
            known(&["var", "deadline_ms"])?;
            let var = var_ref(
                value
                    .get("var")
                    .ok_or_else(|| ProtoError::new(ErrorCode::BadFrame, "missing field `var`"))?,
            )?;
            let deadline_ms = opt_u64(value, "deadline_ms")?;
            Ok(Request::Query {
                id,
                var,
                deadline_ms,
            })
        }
        "batch" => {
            known(&["vars", "deadline_ms"])?;
            let items = value
                .get("vars")
                .and_then(Json::as_arr)
                .ok_or_else(|| ProtoError::new(ErrorCode::BadFrame, "`vars` must be an array"))?;
            if items.is_empty() {
                return Err(ProtoError::new(ErrorCode::BadFrame, "`vars` is empty"));
            }
            if items.len() > MAX_BATCH_VARS {
                return Err(ProtoError::new(
                    ErrorCode::BadFrame,
                    format!("batch of {} vars exceeds {MAX_BATCH_VARS}", items.len()),
                ));
            }
            let vars = items.iter().map(var_ref).collect::<Result<Vec<_>, _>>()?;
            let deadline_ms = opt_u64(value, "deadline_ms")?;
            Ok(Request::Batch {
                id,
                vars,
                deadline_ms,
            })
        }
        "cancel" => {
            known(&["target"])?;
            let target = value.get("target").and_then(Json::as_u64).ok_or_else(|| {
                ProtoError::new(ErrorCode::BadFrame, "`target` must be a request id")
            })?;
            Ok(Request::Cancel { id, target })
        }
        "invalidate_method" => {
            known(&["method"])?;
            let method = value.get("method").and_then(Json::as_u64).ok_or_else(|| {
                ProtoError::new(ErrorCode::BadFrame, "`method` must be a raw method id")
            })?;
            let method = u32::try_from(method)
                .map_err(|_| ProtoError::new(ErrorCode::UnknownMethod, "method id out of range"))?;
            Ok(Request::InvalidateMethod { id, method })
        }
        "health" => {
            known(&[])?;
            Ok(Request::Health { id })
        }
        "save_snapshot" => {
            known(&[])?;
            Ok(Request::SaveSnapshot { id })
        }
        "shutdown" => {
            known(&[])?;
            Ok(Request::Shutdown { id })
        }
        other => Err(ProtoError::new(
            ErrorCode::UnknownOp,
            format!("unknown op `{other}`"),
        )),
    }
}

fn opt_u64(value: &Json, key: &str) -> Result<Option<u64>, ProtoError> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            ProtoError::new(
                ErrorCode::BadFrame,
                format!("`{key}` must be a non-negative integer"),
            )
        }),
    }
}

fn var_ref(value: &Json) -> Result<VarRef, ProtoError> {
    if let Some(n) = value.as_u64() {
        let raw = u32::try_from(n)
            .map_err(|_| ProtoError::new(ErrorCode::UnknownVar, "var id out of range"))?;
        return Ok(VarRef::Raw(raw));
    }
    if let Some(s) = value.as_str() {
        return Ok(VarRef::Named(s.to_owned()));
    }
    Err(ProtoError::new(
        ErrorCode::BadFrame,
        "`var` entries must be a raw id or a name",
    ))
}

/// Renders an error response frame. `id` is the offending request's id
/// when it could be recovered, `null` otherwise.
pub fn error_frame(id: Option<u64>, error: &ProtoError) -> String {
    Json::Obj(vec![
        ("id".to_owned(), id.map_or(Json::Null, Json::num)),
        ("ok".to_owned(), Json::Bool(false)),
        (
            "error".to_owned(),
            Json::Obj(vec![
                ("code".to_owned(), Json::str(error.code.code())),
                ("message".to_owned(), Json::str(&*error.message)),
            ]),
        ),
    ])
    .render()
}

/// Renders a success response frame: `{"id":…,"ok":true, …fields}`.
pub fn ok_frame(id: u64, fields: Vec<(String, Json)>) -> String {
    let mut all = vec![
        ("id".to_owned(), Json::num(id)),
        ("ok".to_owned(), Json::Bool(true)),
    ];
    all.extend(fields);
    Json::Obj(all).render()
}

/// Encodes one query result as its canonical protocol object — the
/// **byte-identity surface** the fuzzer's service regime judges against
/// a clean single-client session: outcome tag, the full `(object,
/// context)` points-to set in sorted order, and the stable result
/// fingerprint. Work counters ride along for observability but are
/// excluded from the fingerprint (they are not part of the answer).
pub fn encode_query_result(r: &QueryResult) -> Json {
    let outcome = match r.outcome.tag() {
        0 => "over-budget",
        1 => "resolved",
        2 => "cancelled",
        3 => "deadline-exceeded",
        _ => "panicked",
    };
    let pts: Vec<Json> = r
        .pts
        .iter()
        .map(|(o, c)| {
            Json::Arr(vec![
                Json::num(u64::from(o.as_raw())),
                Json::num(u64::from(c.as_raw())),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("outcome".to_owned(), Json::str(outcome)),
        ("resolved".to_owned(), Json::Bool(r.resolved)),
        ("pts".to_owned(), Json::Arr(pts)),
        (
            "fingerprint".to_owned(),
            Json::str(format!("{:016x}", r.fingerprint())),
        ),
        ("edges".to_owned(), Json::num(r.stats.edges_traversed)),
        ("cache_hits".to_owned(), Json::num(r.stats.cache_hits)),
    ])
}

/// Re-exported so transports can size read buffers against the parser's
/// own nesting bound.
pub const MAX_DEPTH: usize = MAX_JSON_DEPTH;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        let cases = [
            r#"{"op":"hello","id":1,"name":"a","engine":"dynsum"}"#,
            r#"{"op":"query","id":2,"var":7}"#,
            r#"{"op":"query","id":2,"var":"Main.main#got"}"#,
            r#"{"op":"batch","id":3,"vars":[1,2,3],"deadline_ms":50}"#,
            r#"{"op":"cancel","id":4,"target":3}"#,
            r#"{"op":"invalidate_method","id":5,"method":0}"#,
            r#"{"op":"health","id":6}"#,
            r#"{"op":"save_snapshot","id":7}"#,
            r#"{"op":"shutdown","id":8}"#,
        ];
        for c in cases {
            let req = parse_request(c).unwrap_or_else(|e| panic!("{c}: {e:?}"));
            assert!(req.id() >= 1);
        }
    }

    #[test]
    fn frame_errors_carry_codes_and_ids() {
        let (id, e) = parse_request("not json").unwrap_err();
        assert_eq!((id, e.code), (None, ErrorCode::Parse));
        let (id, e) = parse_request(r#"{"op":"frobnicate","id":9}"#).unwrap_err();
        assert_eq!((id, e.code), (Some(9), ErrorCode::UnknownOp));
        let (id, e) = parse_request(r#"{"op":"query","id":1}"#).unwrap_err();
        assert_eq!((id, e.code), (Some(1), ErrorCode::BadFrame));
        let (_, e) = parse_request(r#"{"op":"query","var":1}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadFrame);
        let (_, e) =
            parse_request(r#"{"op":"hello","id":1,"config":{"deterministic_reuse":false}}"#)
                .unwrap_err();
        assert_eq!(e.code, ErrorCode::BadConfig);
        let (_, e) = parse_request(r#"{"op":"hello","id":1,"config":{"wat":1}}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadConfig);
        let (_, e) = parse_request(r#"{"op":"query","id":1,"var":1,"bogus":2}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadFrame);
        let big = format!(
            r#"{{"op":"query","id":1,"var":"{}"}}"#,
            "x".repeat(MAX_FRAME_BYTES)
        );
        let (_, e) = parse_request(&big).unwrap_err();
        assert_eq!(e.code, ErrorCode::Oversized);
    }

    #[test]
    fn frames_render_stably() {
        let err = error_frame(Some(3), &ProtoError::new(ErrorCode::Parse, "bad"));
        assert_eq!(
            err,
            r#"{"id":3,"ok":false,"error":{"code":"parse","message":"bad"}}"#
        );
        let err = error_frame(None, &ProtoError::new(ErrorCode::Oversized, "big"));
        assert!(err.starts_with(r#"{"id":null,"ok":false"#));
        let ok = ok_frame(4, vec![("n".to_owned(), Json::num(2))]);
        assert_eq!(ok, r#"{"id":4,"ok":true,"n":2}"#);
    }

    #[test]
    fn engine_names_round_trip() {
        for kind in EngineKind::ALL {
            assert_eq!(parse_engine(engine_name(kind)), Some(kind));
        }
        assert_eq!(parse_engine("magic"), None);
    }
}
