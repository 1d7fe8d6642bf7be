//! Dependency-free JSON: a recursive-descent parser for request bodies
//! and an escaper for response assembly.
//!
//! The grammar is full RFC 8259 minus two deliberate omissions that a
//! classify request never needs: `\u` escapes decode only the BMP (no
//! surrogate-pair recombination — the pair decodes to two replacement
//! chars) and numbers are parsed through `f64`, so an integer at or
//! above 2^53 may arrive rounded and [`Value::as_u64`] refuses it.
//! Nesting depth is capped at [`MAX_DEPTH`] so a crafted `[[[[…` body
//! cannot blow the worker's stack: the parser is the first thing
//! untrusted bytes reach and must fail, not recurse.

/// Maximum nesting depth accepted from a request body.
pub const MAX_DEPTH: usize = 32;

/// 2^53: every integer below it is exact in an `f64`; 2^53 + 1 is the
/// first that parses to a neighbour.
const EXACT_INT_LIMIT: f64 = (1u64 << 53) as f64;

/// A parsed JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Insertion-ordered: serve only ever looks keys up linearly and
    /// object sizes are request-sized, so no map is warranted.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value as `u64` if it is a non-negative integer below 2^53.
    /// Larger numbers may have been rounded by the `f64` parse, so they
    /// are refused rather than read as a different integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < EXACT_INT_LIMIT => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Why a body failed to parse. The offset is a byte position into the
/// input, good enough for a 400 body that tells the client where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub why: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.why)
    }
}

/// Parse one complete JSON document; trailing garbage is an error.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let bytes = input.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, why: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            why: why.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than 32 levels"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control char in string")),
                Some(_) => {
                    // Multi-byte UTF-8 passes through unchanged; the
                    // input is already a validated &str.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    if let Ok(s) = std::str::from_utf8(&self.bytes[start..self.pos]) {
                        out.push_str(s);
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("non-utf8 number"))?;
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Value::Num)
            .ok_or_else(|| self.err("malformed number"))
    }
}

/// Escape a string for embedding inside a JSON double-quoted literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_shape() {
        let v = parse(r#"{"ways": 3, "queries": 8, "seed": 42, "deadline_ms": 250.0}"#)
            .expect("valid body");
        assert_eq!(v.get("ways").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("queries").and_then(Value::as_u64), Some(8));
        assert_eq!(v.get("deadline_ms").and_then(Value::as_u64), Some(250));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parses_nested_and_literals() {
        let v = parse(r#"{"a": [1, -2.5, true, false, null, "s\ni"], "b": {"c": 1e3}}"#)
            .expect("valid");
        let arr = match v.get("a") {
            Some(Value::Arr(items)) => items,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(arr.len(), 6);
        assert_eq!(arr[1].as_f64(), Some(-2.5));
        assert_eq!(arr[2].as_bool(), Some(true));
        assert_eq!(arr[5].as_str(), Some("s\ni"));
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Value::as_f64),
            Some(1000.0)
        );
    }

    #[test]
    fn rejects_malformed_inputs() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a" 1}"#,
            r#"{"a": 1} extra"#,
            "nul",
            "1.2.3",
            "\"unterminated",
            "{\"a\": \u{1}\"x\"}",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_deep_nesting_without_overflow() {
        let deep = "[".repeat(4096) + &"]".repeat(4096);
        let err = parse(&deep).expect_err("too deep");
        assert!(err.why.contains("nesting"), "{err}");
    }

    #[test]
    fn unicode_escapes_and_passthrough() {
        let v = parse(r#""café → ok""#).expect("valid");
        assert_eq!(v.as_str(), Some("café → ok"));
    }

    #[test]
    fn as_u64_rejects_negatives_and_fractions() {
        assert_eq!(Value::Num(-1.0).as_u64(), None);
        assert_eq!(Value::Num(1.5).as_u64(), None);
        assert_eq!(Value::Num(7.0).as_u64(), Some(7));
    }

    #[test]
    fn as_u64_accepts_only_integers_an_f64_holds_exactly() {
        assert_eq!(
            parse("9007199254740991").expect("valid").as_u64(),
            Some(9_007_199_254_740_991)
        );
        assert_eq!(parse("9007199254740992").expect("valid").as_u64(), None);
        // 2^53 + 1 parses to 2^53; it must not be read as that neighbour.
        assert_eq!(parse("9007199254740993").expect("valid").as_u64(), None);
        assert_eq!(parse("18446744073709551616").expect("valid").as_u64(), None);
    }

    #[test]
    fn escape_round_trips_through_parser() {
        let raw = "line\n\"quoted\"\tand \\ control\u{1}";
        let doc = format!("\"{}\"", escape_json(raw));
        assert_eq!(parse(&doc).expect("valid").as_str(), Some(raw));
    }
}
