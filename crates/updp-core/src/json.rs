//! First-party JSON: the one shared writer/parser of the workspace.
//!
//! The build environment has no crates.io access, so the workspace
//! owns a minimal JSON implementation, so every schema — the serving
//! ledger snapshot, the `updp-serve` wire format, the `/v1/metrics`
//! and `/v1/trace` bodies, and the benchmark's result lines — flows
//! through exactly one implementation with its own tests.
//!
//! Scope: the JSON subset the workspace schemas use — objects, arrays,
//! strings (with `\uXXXX` and surrogate-pair escapes), finite numbers,
//! booleans, and `null`. Numbers are written with Rust's
//! shortest-round-trip `Display` for `f64`, so
//! `parse(to_compact(v))` reproduces `v` bit-for-bit; non-finite
//! numbers serialize as `null` (JSON has no NaN/∞).

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; insertion order is preserved by the writer.
    Object(Vec<(String, JsonValue)>),
}

/// Borrowed accessor over an object's fields with named-key errors.
pub struct Object<'a>(&'a [(String, JsonValue)]);

impl<'a> Object<'a> {
    /// The field `key`, or an error naming the missing key.
    pub fn get(&self, key: &str) -> Result<&'a JsonValue, String> {
        self.opt(key).ok_or_else(|| format!("missing key `{key}`"))
    }

    /// The field `key` if present (and not `null`).
    pub fn opt(&self, key: &str) -> Option<&'a JsonValue> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .filter(|v| !matches!(v, JsonValue::Null))
    }

    /// The string field `key`.
    pub fn get_str(&self, key: &str) -> Result<String, String> {
        match self.get(key)? {
            JsonValue::String(s) => Ok(s.clone()),
            _ => Err(format!("key `{key}` is not a string")),
        }
    }

    /// The numeric field `key`.
    pub fn get_f64(&self, key: &str) -> Result<f64, String> {
        match self.get(key)? {
            JsonValue::Number(x) => Ok(*x),
            _ => Err(format!("key `{key}` is not a number")),
        }
    }

    /// The numeric field `key` as a non-negative integer.
    pub fn get_usize(&self, key: &str) -> Result<usize, String> {
        let x = self.get_f64(key)?;
        // `fract() == 0.0` is the exact integrality test for a JSON
        // number; inexact values must be rejected, not rounded.
        if x >= 0.0 && x.fract() == 0.0 && x <= u64::MAX as f64 {
            Ok(x as usize)
        } else {
            Err(format!("key `{key}` is not a non-negative integer"))
        }
    }

    /// The boolean field `key`.
    pub fn get_bool(&self, key: &str) -> Result<bool, String> {
        match self.get(key)? {
            JsonValue::Bool(b) => Ok(*b),
            _ => Err(format!("key `{key}` is not a boolean")),
        }
    }

    /// The array field `key`.
    pub fn get_array(&self, key: &str) -> Result<&'a [JsonValue], String> {
        self.get(key)?.as_array(key)
    }
}

impl JsonValue {
    /// Builds an object from `(key, value)` pairs (writer keeps order).
    pub fn object(fields: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds a number array from a slice of `f64`.
    pub fn numbers(xs: &[f64]) -> JsonValue {
        JsonValue::Array(xs.iter().map(|&x| JsonValue::Number(x)).collect())
    }

    /// Views this value as an object; `what` names it in the error.
    pub fn as_object(&self, what: &str) -> Result<Object<'_>, String> {
        match self {
            JsonValue::Object(fields) => Ok(Object(fields)),
            _ => Err(format!("{what} is not an object")),
        }
    }

    /// Views this value as an array; `what` names it in the error.
    pub fn as_array(&self, what: &str) -> Result<&[JsonValue], String> {
        match self {
            JsonValue::Array(items) => Ok(items),
            _ => Err(format!("{what} is not an array")),
        }
    }

    /// Views this value as a number; `what` names it in the error.
    pub fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            JsonValue::Number(x) => Ok(*x),
            _ => Err(format!("{what} is not a number")),
        }
    }

    /// Views this value as a string; `what` names it in the error.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            JsonValue::String(s) => Ok(s),
            _ => Err(format!("{what} is not a string")),
        }
    }

    /// Serializes without any whitespace (the wire format).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes pretty-printed with two-space indentation (the
    /// on-disk ledger snapshot format).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(x) => {
                if x.is_finite() {
                    out.push_str(&x.to_string());
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::String(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                write_seq(out, indent, depth, b'[', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1)
                })
            }
            JsonValue::Object(fields) => {
                write_seq(out, indent, depth, b'{', fields.len(), |out, i| {
                    write_escaped(out, &fields[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    fields[i].1.write(out, indent, depth + 1);
                })
            }
        }
    }

    /// Parses a complete JSON document (rejects trailing garbage).
    pub fn parse(input: &str) -> Result<JsonValue, String> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

impl From<f64> for JsonValue {
    fn from(x: f64) -> Self {
        JsonValue::Number(x)
    }
}

impl From<usize> for JsonValue {
    fn from(x: usize) -> Self {
        JsonValue::Number(x as f64)
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::String(s.into())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::String(s)
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: u8,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    let close = if open == b'[' { ']' } else { '}' };
    out.push(open as char);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * (depth + 1)));
        }
        item(out, i);
        if i + 1 < len {
            out.push(',');
        }
    }
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parser recursion limit; documents cannot realistically need more.
const MAX_DEPTH: usize = 128;

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && (b[*pos] as char).is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected `{}` at byte {} (found `{}`)",
            c as char,
            pos,
            b.get(*pos).map(|&x| x as char).unwrap_or('∅')
        ))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH}"));
    }
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos, depth),
        Some(b'[') => parse_array(b, pos, depth),
        Some(b'"') => Ok(JsonValue::String(parse_string(b, pos)?)),
        Some(b't') => parse_literal(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(b, pos, "null", JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        other => Err(format!(
            "unexpected `{}` at byte {}",
            other.map(|&x| x as char).unwrap_or('∅'),
            pos
        )),
    }
}

fn parse_literal(
    b: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos} (expected `{word}`)"))
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        let value = parse_value(b, pos, depth + 1)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(b, pos, depth + 1)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        *pos += 1;
                        out.push(parse_unicode_escape(b, pos)?);
                        continue;
                    }
                    other => {
                        return Err(format!(
                            "unsupported escape `\\{}` at byte {}",
                            other.map(|&x| x as char).unwrap_or('∅'),
                            pos
                        ))
                    }
                }
                *pos += 1;
            }
            _ => {
                // Multi-byte UTF-8 passes through unchanged.
                let start = *pos;
                while *pos < b.len() && b[*pos] != b'"' && b[*pos] != b'\\' {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
    Err("unterminated string".into())
}

/// Parses the 4 hex digits after `\u` (and a following low-surrogate
/// escape when the first unit is a high surrogate). `pos` sits on the
/// first hex digit on entry and one past the consumed escape on exit.
fn parse_unicode_escape(b: &[u8], pos: &mut usize) -> Result<char, String> {
    let unit = parse_hex4(b, pos)?;
    if (0xD800..0xDC00).contains(&unit) {
        // High surrogate: a `\uXXXX` low surrogate must follow.
        if b.get(*pos) == Some(&b'\\') && b.get(*pos + 1) == Some(&b'u') {
            *pos += 2;
            let low = parse_hex4(b, pos)?;
            if (0xDC00..0xE000).contains(&low) {
                let c = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                return char::from_u32(c).ok_or_else(|| format!("bad surrogate pair at {pos}"));
            }
        }
        return Err(format!("unpaired high surrogate before byte {pos}"));
    }
    char::from_u32(unit).ok_or_else(|| format!("unpaired surrogate `\\u{unit:04x}`"))
}

fn parse_hex4(b: &[u8], pos: &mut usize) -> Result<u32, String> {
    let slice = b
        .get(*pos..*pos + 4)
        .ok_or_else(|| format!("truncated \\u escape at byte {pos}"))?;
    let text = std::str::from_utf8(slice).map_err(|e| e.to_string())?;
    let unit =
        u32::from_str_radix(text, 16).map_err(|_| format!("bad \\u escape `{text}` at {pos}"))?;
    *pos += 4;
    Ok(unit)
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(JsonValue::Number)
        .map_err(|e| format!("bad number `{text}`: {e}"))
}

#[cfg(test)]
// Exact `==` on f64 is deliberate in tests: they pin bit-identical
// outputs (DESIGN.md §5), so an epsilon tolerance would weaken them.
#[allow(clippy::float_cmp)]
mod tests {
    use super::JsonValue as J;

    #[test]
    fn round_trips_all_value_kinds() {
        let v = J::object(vec![
            ("null", J::Null),
            ("yes", J::Bool(true)),
            ("no", J::Bool(false)),
            ("n", J::Number(-17.25)),
            ("s", J::from("héllo \"quoted\" \\ \n\ttab")),
            ("a", J::Array(vec![J::Number(1.0), J::Null, J::from("x")])),
            ("o", J::object(vec![("inner", J::numbers(&[0.1, 0.2]))])),
        ]);
        for text in [v.to_compact(), v.to_pretty()] {
            assert_eq!(J::parse(&text).unwrap(), v, "through {text}");
        }
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for x in [
            0.1 + 0.2,
            f64::MIN_POSITIVE,
            f64::MAX,
            -0.0,
            1e300,
            123_456_789.123_456_79,
        ] {
            let text = J::Number(x).to_compact();
            match J::parse(&text).unwrap() {
                J::Number(y) => assert_eq!(y.to_bits(), x.to_bits(), "through {text}"),
                other => panic!("parsed {other:?}"),
            }
        }
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(J::Number(f64::NAN).to_compact(), "null");
        assert_eq!(J::Number(f64::INFINITY).to_compact(), "null");
    }

    #[test]
    fn parses_standard_escapes_and_unicode() {
        assert_eq!(
            J::parse(r#""a\/bé€😀\b\f""#).unwrap(),
            J::from("a/bé€😀\u{0008}\u{000C}")
        );
        assert!(J::parse(r#""\ud83d""#).is_err(), "unpaired high surrogate");
        assert!(J::parse(r#""\q""#).is_err(), "unknown escape");
        assert!(J::parse(r#""\u12"#).is_err(), "truncated \\u");
    }

    #[test]
    fn control_chars_escape_on_write() {
        let text = J::from("a\u{0001}b").to_compact();
        assert_eq!(text, "\"a\\u0001b\"");
        assert_eq!(J::parse(&text).unwrap(), J::from("a\u{0001}b"));
    }

    #[test]
    fn pretty_format_is_stable() {
        let v = J::object(vec![
            ("a", J::Number(1.0)),
            ("b", J::Array(vec![J::Bool(true)])),
            ("empty", J::Array(vec![])),
        ]);
        assert_eq!(
            v.to_pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    true\n  ],\n  \"empty\": []\n}"
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1} extra",
            "nul",
            "truee",
            "--1",
            "\"unterminated",
        ] {
            assert!(J::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(J::parse(&deep).is_err());
    }

    #[test]
    fn object_accessors_name_the_key_in_errors() {
        let v = J::parse(r#"{"n": 3, "s": "x", "b": true, "a": [1], "f": 1.5}"#).unwrap();
        let obj = v.as_object("top").unwrap();
        assert_eq!(obj.get_f64("n").unwrap(), 3.0);
        assert_eq!(obj.get_usize("n").unwrap(), 3);
        assert_eq!(obj.get_str("s").unwrap(), "x");
        assert!(obj.get_bool("b").unwrap());
        assert_eq!(obj.get_array("a").unwrap().len(), 1);
        assert!(obj.get_usize("f").unwrap_err().contains('f'));
        assert!(obj.get("missing").unwrap_err().contains("missing"));
        assert!(obj.opt("missing").is_none());
    }

    #[test]
    fn null_fields_read_as_absent() {
        let v = J::parse(r#"{"a": null}"#).unwrap();
        let obj = v.as_object("top").unwrap();
        assert!(obj.opt("a").is_none());
        assert!(obj.get("a").is_err());
    }
}
