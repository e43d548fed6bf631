//! A minimal JSON value, parser and writer for the wire protocol.
//!
//! The workspace vendors no serde; the protocol is flat enough to handle
//! with a small recursive-descent parser. One deliberate deviation from
//! a general-purpose JSON library: numbers keep their source text
//! ([`Json::Num`] stores the raw token), so 64-bit integers (seeds,
//! byte budgets) survive the round trip exactly instead of being forced
//! through `f64`. Floating-point payloads that must be *bit*-exact
//! (capacitance sums, trace values) do not travel as JSON numbers at all
//! — the protocol layer sends them as hex bit patterns.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source token (see module docs).
    Num(String),
    /// A string (already unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (the protocol never relies on key
    /// order, but keeping it makes responses stable and testable).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number value from anything `Display`-able as a JSON number.
    pub fn num(n: impl std::fmt::Display) -> Json {
        Json::Num(n.to_string())
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an integral number token.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value on one line (the protocol is
    /// newline-delimited, so compact output is load-bearing, not
    /// cosmetic).
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_string(s: &str, out: &mut String) {
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

/// Parses one JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// A human-readable description of the first syntax error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

/// Maximum container nesting the parser accepts. The protocol itself is
/// flat (depth 2 at most); the bound exists because recursion depth is
/// attacker-controlled — a line of `[[[[…` well under `MAX_LINE_BYTES`
/// would otherwise recurse once per byte and overflow the connection
/// thread's stack, aborting the whole process.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!(
                "unexpected `{}` at byte {}",
                char::from(c),
                self.pos
            )),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let from = p.pos;
            while matches!(p.peek(), Some(c) if c.is_ascii_digit()) {
                p.pos += 1;
            }
            p.pos > from
        };
        if !digits(self) {
            return Err(format!("bad number at byte {start}"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(format!("bad number at byte {start}"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(format!("bad number at byte {start}"));
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_owned())?;
        Ok(Json::Num(raw.to_owned()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash as one
            // slice: both are ASCII, so the run ends on a char boundary
            // and the scan stays linear in the line length.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
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
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or("truncated \\u escape")?;
                    let hex = std::str::from_utf8(hex).map_err(|_| "non-utf8 \\u escape")?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                    // Surrogate pairs are not needed by this protocol;
                    // map them to the replacement char instead of
                    // erroring so foreign clients cannot wedge a
                    // connection.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    self.pos += 4;
                }
                other => return Err(format!("bad escape {other:?} at byte {}", self.pos)),
            }
            self.pos += 1;
        }
    }

    fn descend(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.descend()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.descend()?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let text = r#"{"cmd":"eval","n":500,"sp":0.5,"neg":-1.5e-3,"ok":true,"tags":["a","b"],"none":null}"#;
        let v = parse(text).expect("parses");
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("eval"));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(500));
        assert_eq!(v.get("sp").and_then(Json::as_f64), Some(0.5));
        assert_eq!(v.get("neg").and_then(Json::as_f64), Some(-0.0015));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("tags").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("none"), Some(&Json::Null));
        // Re-serialized and re-parsed equals itself.
        assert_eq!(parse(&v.to_line()).expect("re-parses"), v);
    }

    #[test]
    fn big_integers_survive_exactly() {
        let raw = u64::MAX.to_string();
        let v = parse(&format!("{{\"seed\":{raw}}}")).expect("parses");
        assert_eq!(v.get("seed").and_then(Json::as_u64), Some(u64::MAX));
        assert!(v.to_line().contains(&raw));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = Json::Str("a\"b\\c\nd\tと".to_owned());
        let line = v.to_line();
        assert_eq!(parse(&line).expect("parses"), v);
        let u = parse(r#""A⚠""#).expect("unicode escapes");
        assert_eq!(u.as_str(), Some("A\u{26A0}"));
    }

    #[test]
    fn a_max_length_string_parses_in_linear_time() {
        // One string filling a whole request line, ASCII and two-byte
        // UTF-8 mixed. A scan that re-validates the rest of the line per
        // character needs seconds here; a linear one, milliseconds.
        let header = r#"{"cmd":"load","name":""#;
        let name = "aé".repeat((crate::server::MAX_LINE_BYTES - header.len() - 2) / 3);
        let line = format!("{header}{name}\"}}");
        assert!(line.len() <= crate::server::MAX_LINE_BYTES);
        let start = std::time::Instant::now();
        let v = parse(&line).expect("parses");
        let elapsed = start.elapsed();
        assert_eq!(v.get("name").and_then(Json::as_str), Some(name.as_str()));
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "{} byte line took {elapsed:?}",
            line.len()
        );
    }

    #[test]
    fn nesting_is_bounded_not_stack_overflowed() {
        // At the bound: parses.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok(), "depth {MAX_DEPTH} must parse");
        // One past the bound: a parse error, not a recursion blow-up.
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep)
            .expect_err("depth past the bound must error")
            .contains("nesting"));
        // The attack shape: ~100KB of unclosed opens (well under the
        // server's line limit) must fail fast instead of overflowing the
        // stack and aborting the process. Mixed and object forms too.
        for attack in [
            "[".repeat(100_000),
            "[{\"k\":".repeat(30_000),
            "{\"k\":[".repeat(30_000),
        ] {
            assert!(parse(&attack).is_err(), "deep input must be rejected");
        }
    }

    #[test]
    fn syntax_errors_are_reported_not_panicked() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "\"abc",
            "{\"a\":1}x",
            "nul",
            "[1 2]",
            "-",
            "{'a':1}",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` must not parse");
        }
    }
}
