//! The JSONL event-line and flight-dump schemas, with validators, and
//! the checksum every sealed document carries.
//!
//! # Event-line schema (`a2a-obs/events/v1`)
//!
//! Every line a [`crate::JsonlSink`] writes is one JSON object. Event
//! lines carry:
//!
//! | member   | type    | notes                                          |
//! |----------|---------|------------------------------------------------|
//! | `t_ms`   | number  | ms since the process's first observability call |
//! | `level`  | string  | `error`/`warn`/`info`/`debug`/`trace`          |
//! | `event`  | string  | dot-separated name, e.g. `kernel.run`          |
//! | `worker` | number  | optional; pool-thread id                       |
//! | `fields` | object  | string → number \| string \| bool              |
//!
//! Lines without a `level` member are auxiliary documents (registry
//! snapshots, summaries) and are validated only as JSON.
//!
//! # Checksums
//!
//! Every sealed document carries a `checksum` member: the FNV-1a 64-bit
//! hash (as 16 lowercase hex digits) of the document serialized
//! *without* its `checksum` member. Producers add it with [`seal`];
//! readers recompute and compare with [`verify_checksum`], so a torn or
//! hand-edited document fails loudly instead of feeding corrupt data
//! into a run. The same hash seals the flight-dump header and the
//! `a2a-run` store documents (checkpoints, job manifests and results,
//! campaign archives).

use crate::json::{parse, Json};
use crate::Level;

/// Schema identifier of a flight-recorder dump's sealed header line
/// (see [`crate::flight`] for the stream layout).
pub const FLIGHT_SCHEMA: &str = "a2a-obs/flight/v1";

/// FNV-1a 64-bit hash — the workspace's checksum primitive (no crypto
/// needed: the adversary is a torn write, not an attacker).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01B3);
    }
    hash
}

/// The checksum of `doc`: FNV-1a 64 over the document serialized with
/// its top-level `checksum` member (if any) removed, as 16 lowercase
/// hex digits.
#[must_use]
pub fn document_checksum(doc: &Json) -> String {
    let body = match doc.as_obj() {
        Some(entries) => Json::Obj(
            entries.iter().filter(|(k, _)| k != "checksum").cloned().collect(),
        ),
        None => doc.clone(),
    };
    format!("{:016x}", fnv1a64(body.to_string().as_bytes()))
}

/// Adds (or replaces) the `checksum` member of `doc` so that
/// [`verify_checksum`] accepts it.
#[must_use]
pub fn seal(doc: Json) -> Json {
    let sum = document_checksum(&doc);
    doc.with("checksum", sum)
}

/// Verifies the `checksum` member of `doc` against the recomputed
/// value.
///
/// # Errors
///
/// A message naming the problem: missing/non-string member, or a
/// mismatch (both digests included).
pub fn verify_checksum(doc: &Json) -> Result<(), String> {
    let claimed = doc
        .get("checksum")
        .ok_or("missing `checksum`")?
        .as_str()
        .ok_or("`checksum` must be a string")?;
    let actual = document_checksum(doc);
    if claimed == actual {
        Ok(())
    } else {
        Err(format!("checksum mismatch: document says {claimed}, content hashes to {actual}"))
    }
}

/// Validates one JSONL line: any valid JSON object is accepted, and
/// objects carrying a `level` member must satisfy the event schema.
///
/// # Errors
///
/// A message naming the first violated constraint.
pub fn validate_event_line(line: &str) -> Result<(), String> {
    let doc = parse(line)?;
    if doc.as_obj().is_none() {
        return Err("line is not a JSON object".to_string());
    }
    let Some(level) = doc.get("level") else {
        return Ok(()); // auxiliary document (snapshot, summary)
    };
    let level = level.as_str().ok_or("`level` must be a string")?;
    if Level::parse(level).is_none_or(|l| l == Level::Off) {
        return Err(format!("unknown level `{level}`"));
    }
    doc.get("t_ms").and_then(Json::as_f64).ok_or("event missing numeric `t_ms`")?;
    let name = doc.get("event").and_then(Json::as_str).ok_or("event missing string `event`")?;
    if name.is_empty() {
        return Err("`event` must be non-empty".to_string());
    }
    if let Some(worker) = doc.get("worker") {
        worker.as_f64().ok_or("`worker` must be a number")?;
    }
    let fields = doc.get("fields").ok_or("event missing `fields`")?;
    let entries = fields.as_obj().ok_or("`fields` must be an object")?;
    for (key, value) in entries {
        match value {
            Json::Num(_) | Json::Str(_) | Json::Bool(_) => {}
            _ => return Err(format!("field `{key}` must be a scalar")),
        }
    }
    Ok(())
}

/// What [`validate_events`] found in a JSONL stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EventsSummary {
    /// Number of validated event lines (lines with a `level` member).
    pub events: usize,
    /// `Some(problem)` when the final non-empty line was not valid JSON
    /// — the signature a crashed writer leaves (a line torn mid-write).
    /// Tolerated so one truncated tail never invalidates the thousands
    /// of good lines before it, but reported so the reader knows the
    /// stream is from an unclean shutdown.
    pub truncated_tail: Option<String>,
}

/// Validates a whole JSONL stream (one document per non-empty line).
/// Returns the number of validated event lines, tolerating (and
/// reporting) an unparseable *final* line as a truncated tail.
///
/// # Errors
///
/// The first offending line number and its problem — for any line
/// other than a torn final one.
pub fn validate_events(content: &str) -> Result<EventsSummary, String> {
    let mut summary = EventsSummary::default();
    let last_line = content.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()).last();
    for (i, line) in content.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        if let Err(e) = validate_event_line(line) {
            // Only an unparseable final line can be a torn tail; a line
            // that parses but violates the event schema is a producer
            // bug wherever it sits.
            if last_line.map(|(j, _)| j) == Some(i) && parse(line).is_err() {
                summary.truncated_tail = Some(format!("line {}: {e}", i + 1));
                break;
            }
            return Err(format!("line {}: {e}", i + 1));
        }
        if parse(line).is_ok_and(|d| d.get("level").is_some()) {
            summary.events += 1;
        }
    }
    Ok(summary)
}

/// What [`validate_flight`] found in a flight-recorder dump.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlightSummary {
    /// The dump's `reason` (why the black box was written).
    pub reason: String,
    /// Record count the sealed header declares.
    pub declared: usize,
    /// Record lines actually validated.
    pub records: usize,
    /// As [`EventsSummary::truncated_tail`]: a torn final line, only
    /// possible on a `.partial` dump a crash interrupted.
    pub truncated_tail: Option<String>,
}

/// Validates an `a2a-obs/flight/v1` dump stream: the first non-empty
/// line must be the sealed header (schema, verified checksum, reason
/// and counts), every following line must satisfy the `events/v1` line
/// schema, and — unless the stream ends in a torn final line — the
/// validated record count must equal the header's declaration. A torn
/// tail is tolerated and reported, exactly as in [`validate_events`].
///
/// # Errors
///
/// A message naming the first violated constraint.
pub fn validate_flight(content: &str) -> Result<FlightSummary, String> {
    let lines: Vec<&str> = content.lines().collect();
    let header_idx = lines
        .iter()
        .position(|l| !l.trim().is_empty())
        .ok_or("empty flight dump")?;
    let header = parse(lines[header_idx]).map_err(|e| format!("header: {e}"))?;
    let schema = header.get("schema").and_then(Json::as_str).ok_or("header missing `schema`")?;
    if schema != FLIGHT_SCHEMA {
        return Err(format!("schema `{schema}` is not `{FLIGHT_SCHEMA}`"));
    }
    verify_checksum(&header).map_err(|e| format!("header: {e}"))?;
    let reason = header
        .get("reason")
        .and_then(Json::as_str)
        .ok_or("header missing string `reason`")?
        .to_string();
    let declared = require_num(&header, "header", "records")? as usize;
    require_num(&header, "header", "threads")?;
    require_num(&header, "header", "dropped")?;

    let body = lines[header_idx + 1..].join("\n");
    let events = validate_events(&body)?;
    let summary = FlightSummary {
        reason,
        declared,
        records: events.events,
        truncated_tail: events.truncated_tail,
    };
    match summary.truncated_tail {
        None if summary.records != declared => Err(format!(
            "header declares {declared} records but the stream holds {}",
            summary.records
        )),
        Some(_) if summary.records >= declared => Err(format!(
            "torn stream holds {} records yet the header declares only {declared}",
            summary.records
        )),
        _ => Ok(summary),
    }
}

fn require_num(doc: &Json, path: &str, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("`{path}.{key}` must be a number"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, Value};

    #[test]
    fn real_event_lines_validate() {
        let mut e = Event::new(Level::Info, "ga.generation");
        e.fields.push(("best", Value::F64(123.5)));
        e.worker = Some(3);
        validate_event_line(&e.to_json().to_string()).unwrap();
    }

    #[test]
    fn auxiliary_lines_pass_and_noise_fails() {
        validate_event_line(r#"{"counters":{"a":1}}"#).unwrap();
        assert!(validate_event_line("not json").is_err());
        assert!(validate_event_line("[1,2]").is_err());
        assert!(validate_event_line(r#"{"level":"loud","t_ms":1,"event":"x","fields":{}}"#)
            .is_err());
        assert!(validate_event_line(r#"{"level":"info","event":"x","fields":{}}"#).is_err());
        assert!(
            validate_event_line(r#"{"level":"info","t_ms":1,"event":"x","fields":{"a":[1]}}"#)
                .is_err()
        );
    }

    #[test]
    fn stream_validation_counts_events() {
        let stream = format!(
            "{}\n\n{}\n",
            Event::new(Level::Debug, "a.b").to_json(),
            r#"{"snapshot":true}"#
        );
        let summary = validate_events(&stream).unwrap();
        assert_eq!(summary.events, 1);
        assert_eq!(summary.truncated_tail, None);
    }

    #[test]
    fn torn_final_line_is_tolerated_and_reported() {
        let good = Event::new(Level::Debug, "a.b").to_json().to_string();
        let torn = format!("{good}\n{good}\n{{\"level\":\"info\",\"t_ms\":12.5,\"ev");
        let summary = validate_events(&torn).unwrap();
        assert_eq!(summary.events, 2, "lines before the tear all count");
        assert!(summary.truncated_tail.is_some());

        // The same garbage anywhere but the tail is a hard error...
        let mid = format!("{good}\nnot json\n{good}\n");
        assert!(validate_events(&mid).is_err());
        // ...and a final line that parses but violates the schema is
        // a producer bug, not a tear.
        let bad_schema = format!("{good}\n{{\"level\":\"loud\",\"t_ms\":1,\"event\":\"x\",\"fields\":{{}}}}");
        assert!(validate_events(&bad_schema).is_err());
    }

    fn flight_dump(records: usize) -> String {
        let header = seal(
            Json::object()
                .with("schema", FLIGHT_SCHEMA)
                .with("reason", "test")
                .with("t_ms", 1.5)
                .with("threads", 1u64)
                .with("records", records as u64)
                .with("dropped", 0u64),
        );
        let mut out = format!("{header}\n");
        for i in 0..records {
            out.push_str(&format!(
                "{{\"t_ms\":{i}.5,\"level\":\"trace\",\"event\":\"t.r\",\
                 \"fields\":{{\"kind\":\"mark\",\"seq\":{i},\"thread\":0,\"a\":1,\"b\":2}}}}\n"
            ));
        }
        out
    }

    #[test]
    fn flight_dumps_validate() {
        let summary = validate_flight(&flight_dump(3)).unwrap();
        assert_eq!((summary.declared, summary.records), (3, 3));
        assert_eq!(summary.reason, "test");
        assert_eq!(summary.truncated_tail, None);
    }

    #[test]
    fn flight_header_gates() {
        assert!(validate_flight("").is_err());
        assert!(validate_flight("{\"schema\":\"other/v0\"}\n").is_err());
        // Unsealed header fails even with the right schema.
        let unsealed = format!(
            "{}\n",
            Json::object()
                .with("schema", FLIGHT_SCHEMA)
                .with("reason", "x")
                .with("threads", 0u64)
                .with("records", 0u64)
                .with("dropped", 0u64)
        );
        assert!(validate_flight(&unsealed).unwrap_err().contains("checksum"));
        // A record-count mismatch on an untorn stream is truncation.
        let mut short = flight_dump(3);
        short = short.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(validate_flight(&short).unwrap_err().contains("declares 3"));
    }

    #[test]
    fn flight_stream_tolerates_exactly_one_torn_final_line() {
        // The `validate_events` torn-tail discipline extends to the
        // flight stream: a crash mid-append tears at most the last line.
        let mut torn = flight_dump(3);
        torn.truncate(torn.len() - 20); // tear the final record line
        let summary = validate_flight(&torn).unwrap();
        assert_eq!(summary.records, 2, "lines before the tear count");
        assert!(summary.truncated_tail.is_some());

        // Mid-stream garbage is a hard error even in a flight dump.
        let mid = flight_dump(2).replace(
            "\"seq\":0",
            "\"seq\":0}GARBAGE{",
        );
        assert!(validate_flight(&mid).is_err());
    }

    #[test]
    fn checksums_seal_and_verify() {
        let doc = Json::object().with("schema", "x/v1").with("value", 7u64);
        assert!(verify_checksum(&doc).is_err(), "unsealed documents fail");
        let sealed = seal(doc);
        verify_checksum(&sealed).unwrap();
        // Sealing is idempotent w.r.t. the existing checksum member.
        verify_checksum(&seal(sealed.clone())).unwrap();
        let mut tampered = sealed;
        tampered.set("value", 8u64);
        assert!(verify_checksum(&tampered).is_err(), "edits invalidate the seal");
    }
}
