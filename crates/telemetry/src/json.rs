//! Hand-rolled JSON (the container has no serde): the [`Obj`] builder
//! every artifact is written with, and [`parse`], the one reader every
//! JSON document in the workspace is read back through — checkpoints,
//! manifests, scenarios and wn-serve protocol lines alike.

use std::fmt;

use crate::event::{Event, EventKind};

/// Escape a string for inclusion inside JSON quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render an `f64` as a JSON value. JSON has no NaN/infinity, so those
/// become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Incremental JSON object builder: `Obj::new().field(...).finish()`.
#[derive(Debug, Default)]
pub struct Obj {
    parts: Vec<String>,
}

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    /// Add a field whose value is already-valid JSON text.
    pub fn raw(mut self, key: &str, value: impl AsRef<str>) -> Self {
        self.parts
            .push(format!("\"{}\":{}", escape(key), value.as_ref()));
        self
    }

    pub fn str(self, key: &str, value: &str) -> Self {
        let quoted = format!("\"{}\"", escape(value));
        self.raw(key, quoted)
    }

    pub fn u64(self, key: &str, value: u64) -> Self {
        self.raw(key, value.to_string())
    }

    pub fn f64(self, key: &str, value: f64) -> Self {
        self.raw(key, num(value))
    }

    pub fn bool(self, key: &str, value: bool) -> Self {
        self.raw(key, if value { "true" } else { "false" })
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.parts.join(","))
    }
}

/// Render a sequence of already-encoded JSON values as an array.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let items: Vec<String> = items.into_iter().collect();
    format!("[{}]", items.join(","))
}

/// One event as a flat JSON object (used for JSON Lines traces).
pub fn event_to_json(e: &Event) -> String {
    let obj = Obj::new().f64("t_s", e.t_s).str("kind", e.kind.name());
    match e.kind {
        EventKind::RunEnd { skimmed } => obj.bool("skimmed", skimmed),
        EventKind::PowerOn { waited_s } => obj.f64("waited_s", waited_s),
        EventKind::Checkpoint { cause, words } => {
            obj.str("cause", cause.name()).u64("words", words)
        }
        EventKind::Restore { cost_cycles } => obj.u64("cost_cycles", cost_cycles),
        EventKind::SkimTaken { target } => obj.u64("target", target as u64),
        EventKind::LeaseGrant { cycles } => obj.u64("cycles", cycles),
        EventKind::LeaseSettled {
            cycles,
            instructions,
        } => obj.u64("cycles", cycles).u64("instructions", instructions),
        EventKind::RunStart | EventKind::Outage | EventKind::SkimSkipped => obj,
    }
    .finish()
}

/// Deepest array/object nesting [`parse`] accepts. Our deepest
/// documents, the fleet and analyze reports, nest six levels; the cap
/// keeps recursion bounded, so a line of `[` is an error, not a stack
/// overflow.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Every number, as the nearest finite `f64`.
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Members in document order; [`parse`] rejects a repeated key.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The member `key` of an object; `None` for a missing key or a
    /// value that is not an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// A non-negative integral number no larger than `u64::MAX`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// A key that occurs more than once among `members`, if any. Sorts the
/// keys, so it is O(n log n): a linear scan per member would let one
/// long line of distinct keys stall the reader.
pub fn repeated_key(members: &[(String, Value)]) -> Option<&str> {
    let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    keys.windows(2)
        .find(|pair| pair[0] == pair[1])
        .map(|pair| pair[0])
}

/// Why [`parse`] refused a document. `at` is a byte offset into it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The text is not JSON.
    Syntax { at: usize, what: &'static str },
    /// The object opening at `at` holds `key` twice.
    DuplicateKey { key: String, at: usize },
    /// The array or object opening at `at` nests deeper than
    /// [`MAX_DEPTH`].
    TooDeep { at: usize },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax { at, what } => write!(f, "{what} at byte {at}"),
            ParseError::DuplicateKey { key, at } => {
                write!(f, "duplicate key `{key}` in the object at byte {at}")
            }
            ParseError::TooDeep { at } => {
                write!(f, "nesting deeper than {MAX_DEPTH} levels at byte {at}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document: a single value, with nothing but
/// whitespace after it. Strings are fully unescaped (`\uXXXX` with
/// surrogate pairs included). Total: any input gives a value or a
/// [`ParseError`], never a panic.
///
/// # Errors
///
/// [`ParseError::Syntax`] for text that is not JSON (trailing bytes and
/// non-finite numbers included), [`ParseError::DuplicateKey`] for an
/// object that repeats a key, [`ParseError::TooDeep`] past
/// [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut r = Reader { text, pos: 0 };
    let value = r.value(0)?;
    r.skip_ws();
    if r.pos != text.len() {
        return Err(r.syntax("trailing bytes after the value"));
    }
    Ok(value)
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn syntax(&self, what: &'static str) -> ParseError {
        ParseError::Syntax { at: self.pos, what }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.syntax("expected a value")),
        }
    }

    /// Consumes the `[` or `{` at the cursor, refusing one level too
    /// many, and returns its offset.
    fn open(&mut self, depth: usize) -> Result<usize, ParseError> {
        let at = self.pos;
        if depth > MAX_DEPTH {
            return Err(ParseError::TooDeep { at });
        }
        self.pos += 1;
        self.skip_ws();
        Ok(at)
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.open(depth)?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.next() {
                Some(b',') => {}
                Some(b']') => return Ok(Value::Arr(items)),
                _ => return Err(self.syntax("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        let at = self.open(depth)?;
        let mut members = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.next() != Some(b':') {
                return Err(self.syntax("expected `:`"));
            }
            members.push((key, self.value(depth)?));
            self.skip_ws();
            match self.next() {
                Some(b',') => {}
                Some(b'}') => break,
                _ => return Err(self.syntax("expected `,` or `}`")),
            }
        }
        if let Some(key) = repeated_key(&members) {
            return Err(ParseError::DuplicateKey {
                key: key.to_string(),
                at,
            });
        }
        Ok(Value::Obj(members))
    }

    /// A JSON string, fully unescaped.
    fn string(&mut self) -> Result<String, ParseError> {
        if self.next() != Some(b'"') {
            return Err(self.syntax("expected a string"));
        }
        let mut out = String::new();
        loop {
            // Copy a run of plain text at once. The run stops only at
            // ASCII bytes, so both ends are char boundaries.
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.next() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hi = self.hex4()?;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // High surrogate: require the paired low.
                            if self.next() != Some(b'\\') || self.next() != Some(b'u') {
                                return Err(self.syntax("unpaired surrogate escape"));
                            }
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.syntax("invalid low surrogate"));
                            }
                            char::from_u32(0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
                        } else {
                            char::from_u32(hi)
                        };
                        out.push(c.ok_or_else(|| self.syntax("invalid \\u escape"))?);
                    }
                    _ => return Err(self.syntax("invalid escape")),
                },
                _ => return Err(self.syntax("unterminated string or control byte in it")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.next() {
                Some(b @ b'0'..=b'9') => b - b'0',
                Some(b @ b'a'..=b'f') => b - b'a' + 10,
                Some(b @ b'A'..=b'F') => b - b'A' + 10,
                _ => return Err(self.syntax("bad hex escape")),
            };
            v = v * 16 + u32::from(d);
        }
        Ok(v)
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.syntax("invalid literal"))
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        self.pos += 1; // sign or first digit
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .map(Value::Num)
            .ok_or(ParseError::Syntax {
                at: start,
                what: "invalid number",
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CheckpointCause;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(1.5), "1.5");
    }

    #[test]
    fn obj_builder_round_trip() {
        let doc = Obj::new()
            .str("name", "fig10")
            .u64("jobs", 4)
            .f64("wall_s", 0.5)
            .bool("telemetry", false)
            .raw("artifacts", array(vec!["\"a.csv\"".to_string()]))
            .finish();
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("name").and_then(Value::as_str), Some("fig10"));
        assert_eq!(v.get("jobs").and_then(Value::as_f64), Some(4.0));
        assert_eq!(v.get("wall_s").and_then(Value::as_f64), Some(0.5));
        assert_eq!(v.get("telemetry"), Some(&Value::Bool(false)));
        assert_eq!(
            v.get("artifacts"),
            Some(&Value::Arr(vec![Value::Str("a.csv".to_string())]))
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_keeps_document_order_and_unescapes() {
        let v =
            parse(r#" {"b": [1, -2.5e1, null, true], "a": {"s": "q\"\\\u00e9\ud83d\ude00/"}} "#)
                .unwrap();
        let members = v.as_object().unwrap();
        assert_eq!(members[0].0, "b");
        assert_eq!(members[1].0, "a");
        assert_eq!(
            v.get("b").and_then(Value::as_array).unwrap(),
            [
                Value::Num(1.0),
                Value::Num(-25.0),
                Value::Null,
                Value::Bool(true)
            ]
        );
        let s = v.get("a").and_then(|a| a.get("s")).and_then(Value::as_str);
        assert_eq!(s, Some("q\"\\é😀/"));
        // Every string the escaper writes reads back unchanged.
        let text = "tab\tnl\ncr\r\u{1}\"\\ café";
        let doc = Obj::new().str("t", text).finish();
        assert_eq!(
            parse(&doc).unwrap().get("t").and_then(Value::as_str),
            Some(text)
        );
    }

    #[test]
    fn parse_rejects_what_is_not_one_json_document() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{a:1}",
            "{\"a\":1} trailing",
            "\"\\u12\"",
            "\"\\ud800x\"",
            "\"\\x\"",
            "\"raw\nnewline\"",
            "1e999",
            "-",
            "nul",
            "tru",
        ] {
            assert!(
                matches!(parse(doc), Err(ParseError::Syntax { .. })),
                "accepted: {doc:?}"
            );
        }
        assert_eq!(
            parse(r#"{"a":{"k":1,"j":2,"k":3}}"#),
            Err(ParseError::DuplicateKey {
                key: "k".to_string(),
                at: 5
            })
        );
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&nested(MAX_DEPTH + 1)),
            Err(ParseError::TooDeep { at: MAX_DEPTH })
        );
        assert!(matches!(
            parse(&"[".repeat(1 << 20)),
            Err(ParseError::TooDeep { .. })
        ));
    }

    #[test]
    fn event_json_carries_payloads() {
        let e = Event {
            t_s: 0.125,
            kind: EventKind::Checkpoint {
                cause: CheckpointCause::Watchdog,
                words: 7,
            },
        };
        assert_eq!(
            event_to_json(&e),
            "{\"t_s\":0.125,\"kind\":\"checkpoint\",\"cause\":\"watchdog\",\"words\":7}"
        );
    }
}
