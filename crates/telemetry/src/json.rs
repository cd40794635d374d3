//! A minimal JSON value model, parser, and writer.
//!
//! The scenario loader, the `lifeguard-sim --json` output, the `paper`
//! receipt and the tests that read artifacts back all need plain JSON; the
//! build environment cannot fetch serde, so this module provides the small
//! dependency-free subset the repo uses: full JSON parsing into a
//! [`Value`] tree (objects keep insertion order) and serialization —
//! compact with `{}`, one field per line with `{:#}`.

use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion-ordered.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer (rejects fractions and negatives).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object's fields.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. Scenarios, receipts and
/// traces nest a handful of levels; the cap keeps a hostile document from
/// overflowing the stack through `value -> array -> value`.
pub const MAX_DEPTH: usize = 128;

/// Parse a JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn nested(&mut self, inner: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = inner(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogate pairs are unsupported (unused by the
                            // scenario format); map them to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape. Both are
                    // ASCII, so they never fall inside a multi-byte scalar
                    // and `pos` stays on a char boundary of `text`.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|b| matches!(b, b'"' | b'\\'))
                        .unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

impl fmt::Display for Value {
    /// Compact serialization (no extra whitespace) with `{}`; with `{:#}`
    /// every array item and object field goes on its own line, indented two
    /// spaces per level, so two documents diff line by line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, f.alternate().then_some(0))
    }
}

impl Value {
    /// `indent` is the current nesting level in pretty mode, `None` in
    /// compact mode.
    fn write(&self, f: &mut fmt::Formatter<'_>, indent: Option<usize>) -> fmt::Result {
        let newline = |f: &mut fmt::Formatter<'_>, level: usize| match indent {
            Some(base) => write!(f, "\n{:width$}", "", width = 2 * (base + level)),
            None => Ok(()),
        };
        let inner = indent.map(|base| base + 1);
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Value::Str(s) => write_escaped(f, s),
            Value::Arr(items) if items.is_empty() => f.write_str("[]"),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    newline(f, 1)?;
                    v.write(f, inner)?;
                }
                newline(f, 0)?;
                f.write_str("]")
            }
            Value::Obj(fields) if fields.is_empty() => f.write_str("{}"),
            Value::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    newline(f, 1)?;
                    write_escaped(f, k)?;
                    f.write_str(if indent.is_some() { ": " } else { ":" })?;
                    v.write(f, inner)?;
                }
                newline(f, 0)?;
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for ch in s.chars() {
        match ch {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" -12.5e1 ").unwrap(), Value::Num(-125.0));
        assert_eq!(parse(r#""a\nbA""#).unwrap(), Value::Str("a\nbA".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": "x"}, null], "c": false}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Value::Bool(false)));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("b").and_then(Value::as_str), Some("x"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "{\"a\" 1}", "tru", "\"unterminated", "1 2"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn display_roundtrips() {
        let src = r#"{"topology":{"small":{"seed":7}},"origin":"auto","targets":["auto"],"n":3}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.to_string(), src);
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn pretty_form_is_line_per_field_and_reparses() {
        let v = parse(r#"{"a":[1,{"b":"x"}],"e":[],"o":{}}"#).unwrap();
        let pretty = format!("{v:#}");
        assert_eq!(
            pretty,
            "{\n  \"a\": [\n    1,\n    {\n      \"b\": \"x\"\n    }\n  ],\n  \"e\": [],\n  \"o\": {}\n}"
        );
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        let err = parse(&"[".repeat(2_000_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 128 at byte 128"), "{err}");
        let err = parse(&"{\"k\":".repeat(200)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        // At the cap is fine; siblings do not accumulate depth.
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
        assert!(parse(&format!("[{}]", vec!["[[]]"; 500].join(","))).is_ok());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // One from_utf8 of the whole remaining document per character made
        // this minutes in a debug build.
        let body = "aé\\n".repeat(250_000);
        let v = parse(&format!("\"{body}\"")).unwrap();
        assert_eq!(v.as_str().map(str::len), Some(250_000 * 4));
    }

    #[test]
    fn integers_serialize_without_fraction() {
        assert_eq!(Value::Num(90.0).to_string(), "90");
        assert_eq!(Value::Num(0.5).to_string(), "0.5");
    }
}
