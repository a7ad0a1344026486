//! A minimal JSON writer and object parser.
//!
//! The `ocpt-trace` schema uses flat objects whose values are strings or
//! unsigned integers; the `ocpt-metrics` schema adds non-negative floats,
//! one level of nested objects and `null` (the writer's spelling of a
//! non-finite float). This module implements exactly that subset —
//! deliberately, not as a stopgap: a parser we own — one recursive-descent
//! walker, [`parse_object_with`], with [`parse_object`] as a thin
//! collector over it — is auditable against the byte-determinism
//! guarantee, and the build environment has no crates.io access anyway.
//! Negative numbers, booleans and arrays are rejected because no exporter
//! emits them.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A value in a schema object.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A JSON string (unescaped).
    Str(String),
    /// A non-negative JSON integer.
    UInt(u64),
    /// A finite JSON number with a fraction or exponent part.
    F64(f64),
    /// A nested object, fields in document order.
    Obj(Vec<(String, Value)>),
    /// JSON `null` (how [`Obj::f64`] writes a non-finite value).
    Null,
}

impl Value {
    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer, if this is an integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(u) => Some(*u),
            _ => None,
        }
    }

    /// The numeric value, if this is any number (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::UInt(u) => Some(*u as f64),
            Value::F64(f) => Some(*f),
            _ => None,
        }
    }

    /// The nested fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Look up a field by key in a nested object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Append `s` to `out` as a JSON string literal body (no surrounding
/// quotes). Runs of bytes that need no escape are copied as one slice.
pub fn escape_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    for (i, &c) in s.as_bytes().iter().enumerate() {
        if c >= 0x20 && c != b'"' && c != b'\\' {
            continue;
        }
        // `c` is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        match c {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[usize::from(c >> 4)] as char);
                out.push(HEX[usize::from(c & 0xf)] as char);
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Append the decimal digits of `v` to `out` (what `{v}` formats to,
/// without the formatting machinery).
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &buf[i..] {
        out.push(d as char);
    }
}

/// An in-order JSON object writer. Field order is the call order, which
/// is what makes the exported schema byte-stable.
#[derive(Debug)]
pub struct Obj {
    buf: String,
    first: bool,
}

impl Obj {
    /// Start an object (`{`).
    pub fn new() -> Self {
        Obj { buf: String::from("{"), first: true }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        escape_into(&mut self.buf, k);
        self.buf.push_str("\":");
    }

    /// Append a string field.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push('"');
        escape_into(&mut self.buf, v);
        self.buf.push('"');
        self
    }

    /// Append an unsigned-integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        push_u64(&mut self.buf, v);
        self
    }

    /// Append a float field. Rust's shortest-round-trip `Display` is
    /// deterministic, so this is safe for byte-stable reports; non-finite
    /// values (JSON has none) are written as `null`.
    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.buf, "{v}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Append a pre-rendered JSON value (e.g. a nested object).
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Close the object (`}`) and return the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for Obj {
    fn default() -> Self {
        Obj::new()
    }
}

/// Parse one JSON object into its fields, in document order. Errors
/// carry a human-readable reason; positions are byte offsets into
/// `line`.
pub fn parse_object(line: &str) -> Result<Vec<(String, Value)>, String> {
    let mut fields = Vec::new();
    parse_object_with(line, |k, v| fields.push((k.to_string(), v)))?;
    Ok(fields)
}

/// Walk one JSON object, handing each top-level field to `field` in
/// document order instead of collecting them. The key is borrowed from
/// `line` unless it contains escapes. This is the walker
/// [`parse_object`] is built on, so both accept the same language and
/// fail with the same errors; `field` may already have seen some fields
/// when an error is returned.
pub fn parse_object_with(line: &str, mut field: impl FnMut(&str, Value)) -> Result<(), String> {
    let b = line.as_bytes();
    let next = walk_object(line, skip_ws(b, 0), &mut field)?;
    let i = skip_ws(b, next);
    if i != b.len() {
        return Err(format!("trailing content at byte {i}"));
    }
    Ok(())
}

/// Walk an object starting at the `{` at byte `i`; returns the index just
/// past the closing `}`.
fn walk_object(
    line: &str,
    mut i: usize,
    field: &mut impl FnMut(&str, Value),
) -> Result<usize, String> {
    let b = line.as_bytes();
    if b.get(i) != Some(&b'{') {
        return Err(format!("expected '{{' at byte {i}"));
    }
    i = skip_ws(b, i + 1);
    if b.get(i) == Some(&b'}') {
        return Ok(i + 1);
    }
    loop {
        let (key, next) = parse_string(line, i)?;
        i = skip_ws(b, next);
        if b.get(i) != Some(&b':') {
            return Err(format!("expected ':' at byte {i}"));
        }
        i = skip_ws(b, i + 1);
        let (value, next) = parse_value(line, i)?;
        field(&key, value);
        i = skip_ws(b, next);
        match b.get(i) {
            Some(b',') => i = skip_ws(b, i + 1),
            Some(b'}') => return Ok(i + 1),
            _ => return Err(format!("expected ',' or '}}' at byte {i}")),
        }
    }
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while matches!(b.get(i), Some(b' ' | b'\t' | b'\r' | b'\n')) {
        i += 1;
    }
    i
}

fn parse_value(line: &str, i: usize) -> Result<(Value, usize), String> {
    let b = line.as_bytes();
    match b.get(i) {
        Some(b'"') => parse_string(line, i).map(|(s, n)| (Value::Str(s.into_owned()), n)),
        Some(b'{') => {
            let mut fields = Vec::new();
            let next = walk_object(line, i, &mut |k: &str, v| fields.push((k.to_string(), v)))?;
            Ok((Value::Obj(fields), next))
        }
        Some(b'n') if line[i..].starts_with("null") => Ok((Value::Null, i + 4)),
        Some(c) if c.is_ascii_digit() => parse_number(line, i),
        _ => Err(format!("expected string, number, object or null at byte {i}")),
    }
}

/// Parse a non-negative JSON number. A bare digit run is a `UInt`; a
/// fraction or exponent part makes it an `F64` (Rust's `parse::<f64>`
/// accepts exactly the forms the shortest-round-trip `Display` emits, so
/// writer output always round-trips).
fn parse_number(line: &str, i: usize) -> Result<(Value, usize), String> {
    let b = line.as_bytes();
    let mut j = i;
    // The integer value of the leading digit run; `None` once it overflows.
    let mut int = Some(0u64);
    while let Some(&c) = b.get(j).filter(|c| c.is_ascii_digit()) {
        int = int.and_then(|v| v.checked_mul(10)?.checked_add(u64::from(c - b'0')));
        j += 1;
    }
    let mut float = false;
    if b.get(j) == Some(&b'.') {
        float = true;
        j += 1;
        if !matches!(b.get(j), Some(c) if c.is_ascii_digit()) {
            return Err(format!("digit must follow '.' at byte {j}"));
        }
        while matches!(b.get(j), Some(c) if c.is_ascii_digit()) {
            j += 1;
        }
    }
    if matches!(b.get(j), Some(b'e' | b'E')) {
        float = true;
        j += 1;
        if matches!(b.get(j), Some(b'+' | b'-')) {
            j += 1;
        }
        if !matches!(b.get(j), Some(c) if c.is_ascii_digit()) {
            return Err(format!("digit must follow exponent at byte {j}"));
        }
        while matches!(b.get(j), Some(c) if c.is_ascii_digit()) {
            j += 1;
        }
    }
    if float {
        let num: f64 = line[i..j].parse().map_err(|_| format!("bad number at byte {i}"))?;
        if !num.is_finite() {
            return Err(format!("non-finite number at byte {i}"));
        }
        Ok((Value::F64(num), j))
    } else {
        let num = int.ok_or_else(|| format!("integer out of range at byte {i}"))?;
        Ok((Value::UInt(num), j))
    }
}

/// Parse a JSON string literal starting at the opening quote; returns the
/// unescaped content and the index just past the closing quote. Content
/// without escapes is borrowed from `line`; otherwise the unescaped runs
/// between escapes are copied as slices.
fn parse_string(line: &str, i: usize) -> Result<(Cow<'_, str>, usize), String> {
    let b = line.as_bytes();
    if b.get(i) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {i}"));
    }
    // `"` and `\` are ASCII and never occur inside a multi-byte UTF-8
    // sequence, so every run boundary below is a char boundary.
    let mut out: Option<String> = None;
    let mut run = i + 1;
    let mut j = run;
    loop {
        match b.get(j) {
            None => return Err(format!("unterminated string starting at byte {i}")),
            Some(b'"') => {
                let s = match out {
                    None => Cow::Borrowed(&line[run..j]),
                    Some(mut s) => {
                        s.push_str(&line[run..j]);
                        Cow::Owned(s)
                    }
                };
                return Ok((s, j + 1));
            }
            Some(b'\\') => {
                let out = out.get_or_insert_with(String::new);
                out.push_str(&line[run..j]);
                j += 1;
                match b.get(j) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = line
                            .get(j + 1..j + 5)
                            .ok_or_else(|| format!("truncated \\u escape at byte {j}"))?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {j}"))?;
                        // Surrogates never appear in our own output;
                        // reject rather than guess.
                        let c = char::from_u32(cp)
                            .ok_or_else(|| format!("non-scalar \\u escape at byte {j}"))?;
                        out.push(c);
                        j += 4;
                    }
                    _ => return Err(format!("bad escape at byte {j}")),
                }
                j += 1;
                run = j;
            }
            Some(_) => j += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_orders_fields_and_escapes() {
        let s = Obj::new().str("a", "x\"y\n").u64("b", 7).finish();
        assert_eq!(s, "{\"a\":\"x\\\"y\\n\",\"b\":7}");
    }

    #[test]
    fn escape_into_copies_runs_and_escapes_controls() {
        let mut out = String::from("x");
        escape_into(&mut out, "é\"\\\n\r\t\u{1}\u{1f}\u{7f}漢");
        assert_eq!(out, "xé\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}漢");
        let mut digits = String::new();
        for v in [0, 7, 10, u64::MAX] {
            push_u64(&mut digits, v);
            digits.push(' ');
        }
        assert_eq!(digits, "0 7 10 18446744073709551615 ");
    }

    #[test]
    fn walker_hands_over_fields_in_document_order() {
        let mut seen = Vec::new();
        parse_object_with("{\"a\":\"x\\ty\",\"b\\u0041\":{\"c\":1}}", |k, v| {
            seen.push((k.to_string(), v));
        })
        .expect("valid object");
        assert_eq!(seen[0], ("a".into(), Value::Str("x\ty".into())));
        assert_eq!(seen[1].0, "bA");
        assert_eq!(seen[1].1.get("c"), Some(&Value::UInt(1)));
        assert_eq!(
            parse_object_with("{\"a\":18446744073709551616}", |_, _| {}),
            Err("integer out of range at byte 5".to_string())
        );
    }

    #[test]
    fn floats_use_shortest_roundtrip_display() {
        let s = Obj::new().f64("x", 0.1).f64("bad", f64::NAN).finish();
        assert_eq!(s, "{\"x\":0.1,\"bad\":null}");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let line = Obj::new().str("kind", "app_send").u64("at", 123).str("d", "a\\b\t").finish();
        let fields = parse_object(&line).unwrap();
        assert_eq!(fields[0], ("kind".into(), Value::Str("app_send".into())));
        assert_eq!(fields[1], ("at".into(), Value::UInt(123)));
        assert_eq!(fields[2], ("d".into(), Value::Str("a\\b\t".into())));
    }

    #[test]
    fn parse_accepts_whitespace_and_empty() {
        assert!(parse_object(" { } ").unwrap().is_empty());
        let f = parse_object("{ \"a\" : 1 , \"b\" : \"c\" }").unwrap();
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in ["", "{", "{\"a\"}", "{\"a\":}", "{\"a\":1,}", "{\"a\":1}x", "[1]", "{\"a\":-1}"]
        {
            assert!(parse_object(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn floats_nested_objects_and_null_parse() {
        let line = Obj::new()
            .f64("mean_s", 0.007738017)
            .f64("tiny", 3.5e-9)
            .raw("inner", &Obj::new().u64("count", 2).f64("sd", 0.25).finish())
            .f64("nan", f64::NAN)
            .finish();
        let f = parse_object(&line).expect("writer output parses");
        assert_eq!(f[0].1, Value::F64(0.007738017));
        assert_eq!(f[1].1, Value::F64(3.5e-9));
        assert_eq!(f[2].1.get("count").and_then(Value::as_u64), Some(2));
        assert_eq!(f[2].1.get("sd").and_then(Value::as_f64), Some(0.25));
        assert_eq!(f[3].1, Value::Null);
        // Integers widen through as_f64; strings do not.
        assert_eq!(Value::UInt(7).as_f64(), Some(7.0));
        assert_eq!(Value::Str("7".into()).as_f64(), None);
    }

    #[test]
    fn number_edge_cases_reject() {
        for bad in ["{\"a\":1.}", "{\"a\":1e}", "{\"a\":.5}", "{\"a\":1e+}", "{\"a\":nul}"] {
            assert!(parse_object(bad).is_err(), "{bad:?} should fail");
        }
        // Whitespace inside nested objects is fine; unclosed ones are not.
        assert!(parse_object("{\"a\": { \"b\" : 1 } }").is_ok());
        assert!(parse_object("{\"a\":{\"b\":1}").is_err());
    }

    #[test]
    fn unicode_escapes_parse() {
        let f = parse_object("{\"a\":\"\\u00e9\\u0041\"}").unwrap();
        assert_eq!(f[0].1, Value::Str("éA".into()));
        assert!(parse_object("{\"a\":\"\\ud800\"}").is_err(), "lone surrogate rejected");
    }
}
