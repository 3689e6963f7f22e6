//! The JSONL event-line schema with its validators, the flight-dump
//! schema id (read by [`crate::flight::read_dump`]), and the checksum
//! every sealed document carries.
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
