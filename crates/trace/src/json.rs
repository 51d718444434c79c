//! The workspace's one JSON implementation.
//!
//! The workspace builds offline, so nothing can lean on serde_json. This
//! module provides a [`Json`] value with a strict recursive-descent parser
//! (RFC 8259 grammar, nesting capped at [`MAX_DEPTH`]) and a compact encoder,
//! plus [`quote`] for the exporters that write JSON text directly. Object key
//! order is preserved (insertion order), so encoded documents are
//! deterministic.

use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser recurses
/// once per level, so without a cap a hostile body of `[`s would overflow the
/// stack of whichever thread parses it.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (surrounding whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error,
    /// including nesting deeper than [`MAX_DEPTH`].
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser { s, pos: 0, depth: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != s.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Member lookup on an object (`None` for other variants or missing key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as an `f64` number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Serializes to compact JSON text.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => push_quoted(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_quoted(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

/// Builds an object from `(key, value)` pairs, preserving order.
pub fn obj(members: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Escapes `s` for embedding inside a JSON string literal (quotes included).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_quoted(&mut out, s);
    out
}

fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    s: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        if self.s.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected {lit:?} at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.expect("null").map(|()| Json::Null),
            Some(b't') => self.expect("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.expect("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(|p| {
                let mut items = Vec::new();
                if p.peek() == Some(b']') {
                    p.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(p.value()?);
                    p.skip_ws();
                    match p.peek() {
                        Some(b',') => p.pos += 1,
                        Some(b']') => {
                            p.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", p.pos)),
                    }
                }
            }),
            Some(b'{') => self.nested(|p| {
                let mut members = Vec::new();
                if p.peek() == Some(b'}') {
                    p.pos += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(":")?;
                    members.push((key, p.value()?));
                    p.skip_ws();
                    match p.peek() {
                        Some(b',') => p.pos += 1,
                        Some(b'}') => {
                            p.pos += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", p.pos)),
                    }
                }
            }),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected byte {:?} at {}", c as char, self.pos)),
        }
    }

    /// Consumes an opening bracket and parses the container body with `body`,
    /// one level deeper.
    fn nested(
        &mut self,
        body: impl FnOnce(&mut Self) -> Result<Json, String>,
    ) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote, escape or
            // control byte; those are all ASCII, so the run ends on a char
            // boundary.
            let run = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.s[run..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = self
                                .s
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.bytes().all(|c| c.is_ascii_hexdigit()))
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogates are replaced rather than paired: no
                            // exporter emits them and inbound specs are ASCII
                            // identifiers.
                            u32::from_str_radix(hex, 16)
                                .ok()
                                .and_then(char::from_u32)
                                .unwrap_or('\u{fffd}')
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    };
                    out.push(c);
                    self.pos += 1;
                }
                Some(_) => return Err(format!("raw control byte in string at {}", self.pos)),
            }
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let bad = || format!("malformed number at byte {start}");
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => _ = self.digits(),
            _ => return Err(bad()),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !self.digits() {
                return Err(bad());
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return Err(bad());
            }
        }
        self.s[start..self.pos].parse::<f64>().map(Json::Num).map_err(|_| bad())
    }

    /// Consumes a run of digits; false when there was none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos > start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quote_escapes_specials() {
        assert_eq!(quote("plain"), "\"plain\"");
        assert_eq!(quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(quote("line\nbreak"), "\"line\\nbreak\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
        // Every special parses back to itself.
        for s in ["plain", "a\"b\\c", "line\nbreak", "\u{1}", "tab\tcr\r/\u{7}\u{1f}é"] {
            assert_eq!(Json::parse(&quote(s)), Ok(Json::Str(s.to_owned())), "{s:?}");
        }
    }

    #[test]
    fn validate_accepts_well_formed() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "0",
            "-0.5",
            "-12.5e+3",
            "1E-2",
            "\"\\u00e9\\/\"",
            r#"{"a":[1,2,{"b":"c\nd"}],"e":null}"#,
            " { \"k\" : [ 1 , 2 ] } ",
        ] {
            Json::parse(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn validate_rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "\"unterminated",
            "01x",
            "{} extra",
            "{'a':1}",
            // RFC 8259 numbers: no '+', no leading zeros, digits after '.'
            // and 'e'.
            "+1",
            "01",
            "1.",
            ".5",
            "1e",
            "-",
            "1e+",
            // A raw control byte inside a string, and a short \u escape.
            "\"a\u{1}b\"",
            "\"\\u+12a\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "{\"a\"}", "{\"a\":1,}", "tru", "1 2", "\"open"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        Json::parse(&at_cap).unwrap();
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&over).unwrap_err().contains("nesting"));
        // A megabyte of openers is an error, not a stack overflow.
        assert!(Json::parse(&"[".repeat(1 << 20)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(1 << 18)).is_err());
    }

    #[test]
    fn roundtrips_composite_documents() {
        let src = r#"{"tenant":"acme","iters":1000,"nested":{"a":[1,2.5,true,null],"s":"x\ny"}}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.get("tenant").unwrap().as_str(), Some("acme"));
        assert_eq!(v.get("iters").unwrap().as_u64(), Some(1000));
        let nested = v.get("nested").unwrap();
        assert_eq!(nested.get("a").unwrap().as_arr().unwrap().len(), 4);
        assert_eq!(nested.get("s").unwrap().as_str(), Some("x\ny"));
        // encode → parse → equal
        assert_eq!(Json::parse(&v.encode()).unwrap(), v);
    }

    #[test]
    fn integers_encode_without_exponent() {
        let v = obj([("n", Json::from(1u64 << 40))]);
        assert_eq!(v.encode(), format!("{{\"n\":{}}}", 1u64 << 40));
    }

    #[test]
    fn validates_against_repo_validator() {
        let v = obj([
            ("name", "graphite".into()),
            ("ok", true.into()),
            ("count", 42u64.into()),
            ("items", Json::Arr(vec![Json::Null, "tab\there".into()])),
        ]);
        assert_eq!(Json::parse(&v.encode()).unwrap(), v);
    }

    #[test]
    fn quoted_strings_validate() {
        let s = quote("weird \" \\ \n \t \u{7} payload");
        Json::parse(&s).unwrap();
    }
}
