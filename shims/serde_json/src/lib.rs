//! Offline shim of the `serde_json` API surface used by this
//! workspace (see `shims/README.md`): `to_string`, `to_string_pretty`
//! and `from_str` over the shim `serde::Value` data model. The
//! emitted JSON follows real serde's conventions for the shapes the
//! workspace serializes (objects for named structs, strings for unit
//! variants, single-entry objects for newtype variants), so instance
//! files remain forward-compatible with the real crates.

pub use serde::Value;
use serde::{Deserialize, Serialize};

/// Errors from serializing or parsing JSON.
#[derive(Clone, Debug)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error::new(e.to_string())
    }
}

/// Serialize `value` as compact JSON.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.serialize(), &mut out, None, 0);
    Ok(out)
}

/// Serialize `value` as two-space-indented JSON.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.serialize(), &mut out, Some(2), 0);
    Ok(out)
}

/// Rebuild a `T` from an already-parsed [`Value`] tree (real
/// serde_json's `from_value`; `from_str::<Value>` + `from_value` lets
/// callers inspect a document before committing to a typed shape).
pub fn from_value<T: Deserialize>(value: Value) -> Result<T, Error> {
    Ok(T::deserialize(&value)?)
}

/// Serialize `value` into the [`Value`] data model (real serde_json's
/// `to_value`).
pub fn to_value<T: Serialize>(value: &T) -> Result<Value, Error> {
    Ok(value.serialize())
}

/// Parse a value of type `T` from JSON text.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing characters after JSON value"));
    }
    Ok(T::deserialize(&value)?)
}

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(x) => {
            if x.is_finite() {
                let s = x.to_string();
                out.push_str(&s);
                // Keep floats distinguishable from ints on re-parse.
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null"); // JSON has no Inf/NaN; match serde_json
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => write_seq(out, indent, depth, items.iter(), "[", "]", write_value),
        Value::Object(fields) => write_seq(
            out,
            indent,
            depth,
            fields.iter(),
            "{",
            "}",
            |(k, v), out, ind, d| {
                write_string(k, out);
                out.push(':');
                if ind.is_some() {
                    out.push(' ');
                }
                write_value(v, out, ind, d);
            },
        ),
    }
}

fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    items: impl ExactSizeIterator<Item = T>,
    open: &str,
    close: &str,
    write_item: impl Fn(T, &mut String, Option<usize>, usize),
) {
    out.push_str(open);
    let len = items.len();
    for (i, item) in items.enumerate() {
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        write_item(item, out, indent, depth + 1);
        if i + 1 < len {
            out.push(',');
        }
    }
    if len > 0 {
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * depth));
        }
    }
    out.push_str(close);
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Array/object nesting depth at which parsing stops with an error, as
/// in real serde_json: 127 levels parse, 128 do not. The parser
/// recurses once per level, so without a cap a body of nested `[`
/// overflows the stack of whichever thread parses it.
const RECURSION_LIMIT: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error::new(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{kw}`")))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.eat_keyword("null").map(|()| Value::Null),
            Some(b't') => self.eat_keyword("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.eat_keyword("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parse one array or object level, failing past
    /// [`RECURSION_LIMIT`] open levels.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        self.depth += 1;
        if self.depth >= RECURSION_LIMIT {
            return Err(self.err("recursion limit exceeded"));
        }
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
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
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
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
                            let hi = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("invalid escape character")),
                    }
                }
                Some(_) => {
                    // Copy one UTF-8 character verbatim.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| self.err("invalid number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrip() {
        let v = Value::Object(vec![
            ("name".to_string(), Value::Str("h\"1\n".to_string())),
            (
                "xs".to_string(),
                Value::Array(vec![Value::Int(-3), Value::Float(1.5)]),
            ),
            ("flag".to_string(), Value::Bool(true)),
            ("none".to_string(), Value::Null),
        ]);
        let compact = to_string(&ValueWrap(v.clone())).unwrap();
        let back: ValueWrap = from_str(&compact).unwrap();
        assert_eq!(back.0, v);
        let pretty = to_string_pretty(&ValueWrap(v.clone())).unwrap();
        let back: ValueWrap = from_str(&pretty).unwrap();
        assert_eq!(back.0, v);
    }

    #[test]
    fn value_is_first_class() {
        // `Value` itself is Serialize + Deserialize (as in the real
        // crates), so documents can be inspected before typing.
        let v: Value = from_str(r#"{"solver": "csr", "n": 3}"#).unwrap();
        assert_eq!(v.get("solver"), Some(&Value::Str("csr".to_string())));
        let n: i64 = from_value(v.get("n").unwrap().clone()).unwrap();
        assert_eq!(n, 3);
        assert_eq!(
            to_value(&vec![1i64, 2]).unwrap().as_array().unwrap().len(),
            2
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<bool>("tru").is_err());
        assert!(from_str::<bool>("true x").is_err());
        assert!(from_str::<Vec<i64>>("[1, 2").is_err());
    }

    #[test]
    fn nesting_stops_at_the_recursion_limit() {
        let arrays = |levels: usize| format!("{}1{}", "[".repeat(levels), "]".repeat(levels));
        let objects =
            |levels: usize| format!("{}1{}", "{\"k\":".repeat(levels), "}".repeat(levels));
        let deepest = RECURSION_LIMIT - 1;
        assert!(from_str::<ValueWrap>(&arrays(deepest)).is_ok());
        assert!(from_str::<ValueWrap>(&objects(deepest)).is_ok());
        for text in [
            arrays(RECURSION_LIMIT),
            objects(RECURSION_LIMIT),
            "[".repeat(300_000),
        ] {
            let err = from_str::<ValueWrap>(&text).unwrap_err();
            assert!(err.to_string().contains("recursion limit"), "{err}");
        }
    }

    #[test]
    fn unicode_escapes() {
        let s: ValueWrap = from_str(r#""aé😀b""#).unwrap();
        assert_eq!(s.0, Value::Str("aé😀b".to_string()));
    }

    /// Serialize/Deserialize passthrough for raw `Value`s in tests.
    #[derive(Clone, Debug, PartialEq)]
    struct ValueWrap(Value);

    impl Serialize for ValueWrap {
        fn serialize(&self) -> Value {
            self.0.clone()
        }
    }

    impl Deserialize for ValueWrap {
        fn deserialize(v: &Value) -> Result<Self, serde::Error> {
            Ok(ValueWrap(v.clone()))
        }
    }
}
