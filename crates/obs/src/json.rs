//! A minimal JSON document model with writer and parser.
//!
//! The workspace's vendored `serde` is an inert facade (the derives
//! expand to nothing and no format crate exists), so the JSONL sink and
//! the schema validators need their own encoding. This module keeps the
//! subset the observability layer uses: objects preserve insertion
//! order, numbers are `f64` (written without a fractional part when
//! integral), and parsing is strict enough to round-trip everything the
//! writer produces.

use std::fmt;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also what non-finite floats serialise to).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; integral values print without a decimal point.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on write.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`Json::set`].
    #[must_use]
    pub fn object() -> Self {
        Self::Obj(Vec::new())
    }

    /// Inserts or replaces `key` in an object. Panics on non-objects
    /// (construction-time programming error, never data-dependent).
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        let Self::Obj(entries) = self else { panic!("Json::set on a non-object") };
        match entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value.into(),
            None => entries.push((key.to_string(), value.into())),
        }
        self
    }

    /// Builder-style [`Json::set`].
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.set(key, value);
        self
    }

    /// Object member lookup (`None` for absent keys or non-objects).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Self::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this node is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this node is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this node is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Self::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this node is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Self::Obj(v) => Some(v),
            _ => None,
        }
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Self::Num(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Self::Num(v as f64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Self::Num(f64::from(v))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Self::Num(v as f64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Self::Num(v as f64)
    }
}
impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Self::Bool(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Self::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Self::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Self::Arr(v.into_iter().map(Into::into).collect())
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

fn write_num(f: &mut fmt::Formatter<'_>, v: f64) -> fmt::Result {
    if !v.is_finite() {
        return f.write_str("null");
    }
    // Integral magnitudes inside the exactly-representable range print
    // as integers so counters stay readable and round-trip bit-exact.
    if v.fract() == 0.0 && v.abs() < 9.007_199_254_740_992e15 {
        write!(f, "{}", v as i64)
    } else {
        // `{:?}` is Rust's shortest round-trip float formatting.
        write!(f, "{v:?}")
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Null => f.write_str("null"),
            Self::Bool(b) => write!(f, "{b}"),
            Self::Num(v) => write_num(f, *v),
            Self::Str(s) => write_escaped(f, s),
            Self::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Self::Obj(entries) => {
                f.write_str("{")?;
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so an unbounded depth would let one small hostile
/// document (`[[[[…`) overflow the thread's stack and abort the
/// process; far deeper than any document the workspace writes.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document, rejecting trailing non-whitespace and
/// nesting deeper than [`MAX_DEPTH`].
///
/// # Errors
///
/// A human-readable message with the byte offset of the first problem.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser { input, bytes: input.as_bytes(), at: 0, depth: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.at));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    at: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.at < self.bytes.len()
            && matches!(self.bytes[self.at], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.at))
        }
    }

    fn eat_keyword(&mut self, kw: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(kw.as_bytes()) {
            self.at += kw.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.eat_keyword("null", Json::Null),
            Some(b't') => self.eat_keyword("true", Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.at
                    ));
                }
                self.depth += 1;
                let value = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                value
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.at)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.at += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at])
            .expect("digits and sign characters are ASCII");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.at + 1..self.at + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.at += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.at)),
                    }
                    self.at += 1;
                }
                Some(_) => {
                    // Copy the whole run of plain characters at once.
                    // The input is a `&str` and `"`/`\\` are ASCII, so
                    // both ends of the run are character boundaries.
                    let start = self.at;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.at += 1;
                    }
                    out.push_str(&self.input[start..self.at]);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.at)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.at)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_parses_nested_documents() {
        let doc = Json::object()
            .with("name", "kernel.run")
            .with("t_comm", 42u64)
            .with("ratio", 0.666)
            .with("ok", true)
            .with("tags", vec!["a", "b"])
            .with("nested", Json::object().with("x", 1u64));
        let text = doc.to_string();
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::from(3u64).to_string(), "3");
        assert_eq!(Json::from(1.5).to_string(), "1.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn escapes_round_trip() {
        let s = "line\nbreak \"quote\" back\\slash\ttab";
        let doc = Json::Str(s.to_string());
        assert_eq!(parse(&doc.to_string()).unwrap(), doc);
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(parse(r#""A""#).unwrap(), Json::Str("A".to_string()));
        assert_eq!(parse("\"π\"").unwrap(), Json::Str("π".to_string()));
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let too_deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&too_deep).unwrap_err().contains("nesting"));
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).unwrap_err().contains("nesting"));
        // Half a million unclosed brackets answer with an error instead
        // of overflowing the stack.
        assert!(parse(&"[".repeat(500_000)).unwrap_err().contains("nesting"));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 1 MiB of mixed one- and multi-byte characters with escapes
        // sprinkled in: a quadratic decoder takes tens of seconds here.
        let value: String = "plain text, π ≈ 3.14159 \"quoted\"\n".repeat(1 << 15);
        assert!(value.len() >= 1 << 20);
        let doc = Json::object().with("s", value.as_str()).to_string();
        let started = std::time::Instant::now();
        let parsed = parse(&doc).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(parsed.get("s").and_then(Json::as_str), Some(value.as_str()));
        assert!(elapsed < std::time::Duration::from_secs(2), "took {elapsed:?}");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "{\"a\":}", "tru", "1.2.3", "\"open", "{}{}"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn get_and_set_replace() {
        let mut doc = Json::object().with("a", 1u64);
        doc.set("a", 2u64);
        assert_eq!(doc.get("a").and_then(Json::as_f64), Some(2.0));
        assert_eq!(doc.get("missing"), None);
    }
}
