//! Wire-protocol response builders for the serving daemon, on every
//! transport.
//!
//! Every response is a single JSON object on one line. Success carries
//! `"ok": true`; failures carry `"ok": false` and an `"error"` object with
//! a stable `code`, a human-oriented `message`, and — for `overloaded`
//! rejections — a `retry_after_ms` backoff hint. The request's `id` field,
//! when present, is echoed verbatim as the first response field.

use crate::engine::{EngineError, QueryResult};
use crate::json::Json;
use crate::request::ScenarioRequest;
use crate::server::telemetry::{format_trace_id, RequestTelemetry};

/// Stable error codes the serving tier emits.
pub mod code {
    /// The line was not valid JSON.
    pub const PARSE_ERROR: &str = "parse_error";
    /// Structurally valid JSON, semantically unusable request.
    pub const INVALID_REQUEST: &str = "invalid_request";
    /// Unknown `op` value.
    pub const UNKNOWN_OP: &str = "unknown_op";
    /// The solver could not produce a result for a valid request.
    pub const SOLVE_ERROR: &str = "solve_error";
    /// Shed by admission control; the response carries `retry_after_ms`.
    pub const OVERLOADED: &str = "overloaded";
    /// The request's deadline passed before a result was produced.
    pub const DEADLINE_EXCEEDED: &str = "deadline_exceeded";
    /// The request crashed the worker; the worker survived, it did not.
    pub const INTERNAL: &str = "internal";
    /// The server is draining and accepts no new work.
    pub const UNAVAILABLE: &str = "unavailable";
}

/// Builds a success response for one satisfied query.
pub fn ok_response(id: Option<Json>, result: &QueryResult) -> Json {
    let mut fields = vec![];
    if let Some(id) = id {
        fields.push(("id", id));
    }
    fields.push(("ok", Json::Bool(true)));
    fields.push(("outcome", Json::Str(result.outcome.label().to_string())));
    if let Some(source) = result.outcome.source() {
        fields.push(("source", Json::Str(source.to_string())));
    }
    fields.push((
        "fingerprint",
        Json::Str(ScenarioRequest::format_fingerprint(result.fingerprint)),
    ));
    fields.push(("summary", result.summary.to_json()));
    fields.push(("latency_us", Json::Num(result.latency_us as f64)));
    Json::obj(fields)
}

/// Serializes a request's phase telemetry for the wire `telemetry` block.
pub fn telemetry_block(t: &RequestTelemetry) -> Json {
    Json::obj(vec![
        ("trace_id", Json::Str(format_trace_id(t.trace_id))),
        ("queue_wait_us", Json::Num(t.queue_wait_us as f64)),
        ("cache_tier", Json::Str(t.cache_tier.to_string())),
        ("solver_path", Json::Str(t.solver_path.clone())),
        ("solve_us", Json::Num(t.solve_us as f64)),
        ("shard", Json::Num(t.shard as f64)),
    ])
}

/// Appends the `telemetry` block as the *last* field of a response, so
/// every legacy field keeps its byte position (the byte-identity tests
/// pin the prefix).
pub fn attach_telemetry(mut response: Json, t: &RequestTelemetry) -> Json {
    if let Json::Obj(fields) = &mut response {
        fields.push(("telemetry".to_string(), telemetry_block(t)));
    }
    response
}

/// Builds a failure response with a stable error code.
pub fn error_response(id: Option<Json>, code: &str, message: &str) -> Json {
    error_response_with(id, code, message, vec![])
}

/// [`error_response`] with extra fields inside the `error` object (for
/// example `retry_after_ms` on [`code::OVERLOADED`]).
pub fn error_response_with(
    id: Option<Json>,
    code: &str,
    message: &str,
    extra: Vec<(&str, Json)>,
) -> Json {
    let mut fields = vec![];
    if let Some(id) = id {
        fields.push(("id", id));
    }
    fields.push(("ok", Json::Bool(false)));
    let mut error = vec![
        ("code", Json::Str(code.to_string())),
        ("message", Json::Str(message.to_string())),
    ];
    error.extend(extra);
    fields.push(("error", Json::obj(error)));
    Json::obj(fields)
}

/// The `overloaded` rejection. Every shed response carries the
/// `retry_after_ms` hint — this constructor is the only way the serving
/// tier builds one, so the invariant holds by construction.
pub fn overloaded_response(id: Option<Json>, retry_after_ms: u64) -> Json {
    error_response_with(
        id,
        code::OVERLOADED,
        "queue full; retry after the hinted backoff",
        vec![("retry_after_ms", Json::Num(retry_after_ms as f64))],
    )
}

/// Maps an engine failure onto the wire error vocabulary.
pub fn engine_error_response(id: Option<Json>, error: &EngineError) -> Json {
    match error {
        EngineError::Invalid(m) => error_response(id, code::INVALID_REQUEST, m),
        EngineError::Solve(m) => error_response(id, code::SOLVE_ERROR, m),
        EngineError::Cancelled => error_response(
            id,
            code::DEADLINE_EXCEEDED,
            "deadline passed before the solve finished",
        ),
    }
}

/// Builds the `metrics` op response: the process-wide obs registry
/// snapshot embedded as a structured object.
pub fn metrics_response(id: Option<Json>) -> Json {
    let snapshot = vstack_obs::metrics::snapshot_json();
    let metrics =
        Json::parse(&snapshot).expect("obs metrics snapshot is valid JSON by construction");
    let mut fields = vec![];
    if let Some(id) = id {
        fields.push(("id", id));
    }
    fields.push(("ok", Json::Bool(true)));
    fields.push(("metrics", metrics));
    Json::obj(fields)
}

/// Extracts and validates the optional `deadline_ms` request field,
/// clamping it to `[1, max_deadline_ms]`.
///
/// # Errors
///
/// A message naming the field when it is present but not a positive
/// number.
pub fn parse_deadline_ms(doc: &Json, max_deadline_ms: u64) -> Result<Option<u64>, String> {
    match doc.get("deadline_ms") {
        None => Ok(None),
        Some(v) => match v.as_f64() {
            Some(n) if n.is_finite() && n >= 1.0 => {
                Ok(Some((n as u64).clamp(1, max_deadline_ms.max(1))))
            }
            _ => Err("\"deadline_ms\" must be a positive number of milliseconds".to_string()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overloaded_always_carries_retry_after_ms() {
        let r = overloaded_response(Some(Json::Num(7.0)), 42);
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        let err = r.get("error").unwrap();
        assert_eq!(
            err.get("code").and_then(Json::as_str),
            Some(code::OVERLOADED)
        );
        assert_eq!(err.get("retry_after_ms").and_then(Json::as_f64), Some(42.0));
    }

    #[test]
    fn deadline_parse_clamps_and_rejects() {
        let doc = Json::parse(r#"{"deadline_ms": 5000}"#).unwrap();
        assert_eq!(parse_deadline_ms(&doc, 1000).unwrap(), Some(1000));
        let doc = Json::parse(r#"{"deadline_ms": -3}"#).unwrap();
        assert!(parse_deadline_ms(&doc, 1000).is_err());
        let doc = Json::parse(r#"{"op":"solve"}"#).unwrap();
        assert_eq!(parse_deadline_ms(&doc, 1000).unwrap(), None);
    }
}
