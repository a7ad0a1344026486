//! Differential property test: the one-pass trace writer and the
//! field-dispatch event parser against the previous implementation.
//!
//! The reference below is the earlier `export` + `json` code: it builds a
//! `Vec<Rec>` before writing, writes every line through the `Obj` builder
//! with a per-field `escape` allocation, and parses each line into a
//! `Vec<(String, Value)>` before looking fields up by name. It is kept
//! only here, as the oracle, the way `observer_differential.rs` keeps the
//! old observer.
//!
//! Two properties pin the rewrite:
//! * **writer** — random event streams whose `detail`, `code`, `kind`
//!   and `algo` carry quotes, backslashes, control characters, literal
//!   `\u` sequences and non-ASCII text serialize to identical bytes, and
//!   read back to identical records;
//! * **parser** — random mutations of a valid trace (reordered fields,
//!   extra whitespace, unknown fields, duplicate keys, wrong value types,
//!   deleted fields, byte edits, truncation, swapped or blank lines, a
//!   bad header) give the identical `Ok` value or the identical `Err`
//!   string, and every mutated line gives the identical
//!   `json::parse_object` result.

use ocpt_sim::{ProcessId, SimTime, TraceEvent, TraceKind, TRACE_KINDS};
use ocpt_telemetry::json::{self, Value};
use ocpt_telemetry::{export, Rec, TraceFile, TraceMeta};
use proptest::prelude::*;

/// The previous writer and parser, verbatim apart from dropping the
/// builder methods the trace path never called and inlining the previous
/// `TraceKind::from_name` (a linear search of `TRACE_KINDS`).
mod reference {
    use std::fmt::Write as _;

    use ocpt_sim::{TraceEvent, TRACE_KINDS};
    use ocpt_telemetry::json::Value;
    use ocpt_telemetry::{Rec, TraceFile, TraceMeta, SCHEMA_NAME, SCHEMA_VERSION};

    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
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
        out
    }

    struct Obj {
        buf: String,
        first: bool,
    }

    impl Obj {
        fn new() -> Self {
            Obj { buf: String::from("{"), first: true }
        }

        fn key(&mut self, k: &str) {
            if !self.first {
                self.buf.push(',');
            }
            self.first = false;
            let _ = write!(self.buf, "\"{}\":", escape(k));
        }

        fn str(mut self, k: &str, v: &str) -> Self {
            self.key(k);
            let _ = write!(self.buf, "\"{}\"", escape(v));
            self
        }

        fn u64(mut self, k: &str, v: u64) -> Self {
            self.key(k);
            let _ = write!(self.buf, "{v}");
            self
        }

        fn finish(mut self) -> String {
            self.buf.push('}');
            self.buf
        }
    }

    pub fn parse_object(line: &str) -> Result<Vec<(String, Value)>, String> {
        let b = line.as_bytes();
        let (fields, next) = parse_object_at(line, skip_ws(b, 0))?;
        let i = skip_ws(b, next);
        if i != b.len() {
            return Err(format!("trailing content at byte {i}"));
        }
        Ok(fields)
    }

    fn parse_object_at(line: &str, mut i: usize) -> Result<(Vec<(String, Value)>, usize), String> {
        let b = line.as_bytes();
        if b.get(i) != Some(&b'{') {
            return Err(format!("expected '{{' at byte {i}"));
        }
        i = skip_ws(b, i + 1);
        let mut fields = Vec::new();
        if b.get(i) == Some(&b'}') {
            return Ok((fields, i + 1));
        }
        loop {
            let (key, next) = parse_string(line, i)?;
            i = skip_ws(b, next);
            if b.get(i) != Some(&b':') {
                return Err(format!("expected ':' at byte {i}"));
            }
            i = skip_ws(b, i + 1);
            let (value, next) = parse_value(line, i)?;
            fields.push((key, value));
            i = skip_ws(b, next);
            match b.get(i) {
                Some(b',') => i = skip_ws(b, i + 1),
                Some(b'}') => return Ok((fields, i + 1)),
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
            Some(b'"') => parse_string(line, i).map(|(s, n)| (Value::Str(s), n)),
            Some(b'{') => parse_object_at(line, i).map(|(f, n)| (Value::Obj(f), n)),
            Some(b'n') if line[i..].starts_with("null") => Ok((Value::Null, i + 4)),
            Some(c) if c.is_ascii_digit() => parse_number(line, i),
            _ => Err(format!("expected string, number, object or null at byte {i}")),
        }
    }

    fn parse_number(line: &str, i: usize) -> Result<(Value, usize), String> {
        let b = line.as_bytes();
        let mut j = i;
        while matches!(b.get(j), Some(c) if c.is_ascii_digit()) {
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
            let num: u64 =
                line[i..j].parse().map_err(|_| format!("integer out of range at byte {i}"))?;
            Ok((Value::UInt(num), j))
        }
    }

    fn parse_string(line: &str, i: usize) -> Result<(String, usize), String> {
        let b = line.as_bytes();
        if b.get(i) != Some(&b'"') {
            return Err(format!("expected '\"' at byte {i}"));
        }
        let mut out = String::new();
        let mut j = i + 1;
        loop {
            match b.get(j) {
                None => return Err(format!("unterminated string starting at byte {i}")),
                Some(b'"') => return Ok((out, j + 1)),
                Some(b'\\') => {
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
                            let c = char::from_u32(cp)
                                .ok_or_else(|| format!("non-scalar \\u escape at byte {j}"))?;
                            out.push(c);
                            j += 4;
                        }
                        _ => return Err(format!("bad escape at byte {j}")),
                    }
                    j += 1;
                }
                Some(_) => {
                    let c = line[j..].chars().next().ok_or("utf-8 boundary error")?;
                    out.push(c);
                    j += c.len_utf8();
                }
            }
        }
    }

    pub fn to_jsonl(meta: &TraceMeta, events: &[TraceEvent]) -> String {
        let recs: Vec<Rec> = events.iter().map(Rec::from_event).collect();
        recs_to_jsonl(meta, &recs)
    }

    pub fn recs_to_jsonl(meta: &TraceMeta, recs: &[Rec]) -> String {
        let mut out = String::new();
        out.push_str(
            &Obj::new()
                .str("schema", SCHEMA_NAME)
                .u64("version", SCHEMA_VERSION)
                .str("algo", &meta.algo)
                .u64("n", meta.n as u64)
                .u64("seed", meta.seed)
                .u64("events", recs.len() as u64)
                .finish(),
        );
        out.push('\n');
        for r in recs {
            let mut o = Obj::new()
                .u64("at", r.at)
                .u64("pid", r.pid as u64)
                .str("kind", &r.kind)
                .str("code", &r.code);
            if let Some(seq) = r.seq {
                o = o.u64("seq", seq);
            }
            out.push_str(&o.str("detail", &r.detail).finish());
            out.push('\n');
        }
        out
    }

    fn get_u64(fields: &[(String, Value)], key: &str, what: &str) -> Result<u64, String> {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_u64())
            .ok_or_else(|| format!("{what}: missing integer field \"{key}\""))
    }

    fn get_str(fields: &[(String, Value)], key: &str, what: &str) -> Result<String, String> {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_str())
            .map(str::to_string)
            .ok_or_else(|| format!("{what}: missing string field \"{key}\""))
    }

    pub fn parse_jsonl(text: &str) -> Result<TraceFile, String> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or("empty trace file")?;
        let hf = parse_object(header).map_err(|e| format!("header: {e}"))?;
        let schema = get_str(&hf, "schema", "header")?;
        if schema != SCHEMA_NAME {
            return Err(format!("not an {SCHEMA_NAME} file (schema=\"{schema}\")"));
        }
        let version = get_u64(&hf, "version", "header")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported {SCHEMA_NAME} version {version} (reader supports {SCHEMA_VERSION})"
            ));
        }
        let meta = TraceMeta {
            algo: get_str(&hf, "algo", "header")?,
            n: get_u64(&hf, "n", "header")? as usize,
            seed: get_u64(&hf, "seed", "header")?,
        };
        let declared = get_u64(&hf, "events", "header")?;

        let mut recs = Vec::new();
        let mut last_at = 0u64;
        for (idx, line) in lines {
            if line.is_empty() {
                continue;
            }
            let what = format!("line {}", idx + 1);
            let f = parse_object(line).map_err(|e| format!("{what}: {e}"))?;
            let kind = get_str(&f, "kind", &what)?;
            if !TRACE_KINDS.iter().any(|k| k.name() == kind) {
                return Err(format!("{what}: unknown event kind \"{kind}\""));
            }
            let at = get_u64(&f, "at", &what)?;
            if at < last_at {
                return Err(format!("{what}: time goes backwards ({at} < {last_at})"));
            }
            last_at = at;
            let pid = get_u64(&f, "pid", &what)?;
            let pid = u32::try_from(pid).map_err(|_| format!("{what}: pid {pid} out of range"))?;
            let seq = f.iter().find(|(k, _)| k == "seq").map(|(_, v)| {
                v.as_u64().ok_or_else(|| format!("{what}: \"seq\" must be an integer"))
            });
            let seq = seq.transpose()?;
            recs.push(Rec {
                at,
                pid,
                kind,
                code: get_str(&f, "code", &what)?,
                seq,
                detail: get_str(&f, "detail", &what)?,
            });
        }
        if recs.len() as u64 != declared {
            return Err(format!(
                "header declares {declared} events but file contains {} (truncated?)",
                recs.len()
            ));
        }
        Ok(TraceFile { meta, recs })
    }
}

/// SplitMix64: the per-case generator, seeded by the property's inputs.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
}

/// Text pieces for string contents: everything the escaper treats
/// specially, literal escape-looking sequences, and multi-byte UTF-8.
const PIECES: &[&str] = &[
    "a", "Z", "7", " ", "M0 -> P1", "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1}", "\u{8}",
    "\u{c}", "\u{1b}", "\u{1f}", "\u{7f}", "é", "漢", "🦀", "\\u0041", "\\\"", "/", "{", "}", ":",
    ",", "\u{2028}",
];

/// Codes are `&'static str` on a live event, so they come from a pool.
const CODES: &[&str] = &[
    "app.send",
    "ctrl.ck_bgn",
    "storage.done",
    "",
    "we\"ird",
    "back\\slash",
    "tab\there",
    "ctl\u{2}\u{1b}",
    "é.code",
    "🦀.crab",
    "\\u0041",
];

/// Raw tokens a byte edit may insert: JSON punctuation, escape heads
/// (valid, truncated, signed, surrogate, split by a multi-byte char),
/// out-of-range and non-finite numbers.
const TOKENS: &[&str] = &[
    "\"",
    "\\",
    "{",
    "}",
    ",",
    ":",
    "0",
    "9",
    "u",
    "e",
    ".",
    "-",
    "n",
    "null",
    "nul",
    "\\u",
    "\\u00e9",
    "\\u+041",
    "\\u00é",
    "\\ud800",
    "\\q",
    "\\/",
    "\\b",
    "1e400",
    "1.5e-3",
    "18446744073709551616",
    "18446744073709551615",
    "é",
    " ",
    "\t",
    "\r",
];

fn text(rng: &mut Mix) -> String {
    (0..rng.below(8)).map(|_| rng.pick(PIECES)).collect()
}

fn stream(rng: &mut Mix) -> (TraceMeta, Vec<TraceEvent>) {
    let meta = TraceMeta { algo: text(rng), n: rng.below(2_000), seed: rng.next() };
    let mut at = 0u64;
    let events = (0..rng.below(24))
        .map(|_| {
            at += match rng.below(4) {
                0 => 0,
                1 => 1,
                2 => rng.below(1_000_000) as u64,
                _ => rng.next() >> 40,
            };
            TraceEvent {
                at: SimTime::from_nanos(at),
                pid: ProcessId(match rng.below(8) {
                    0 => u32::MAX - rng.below(2) as u32,
                    _ => rng.below(16) as u32,
                }),
                kind: rng.pick(&TRACE_KINDS),
                code: rng.pick(CODES),
                seq: match rng.below(4) {
                    0 => None,
                    1 => Some(u64::MAX),
                    _ => Some(rng.below(100) as u64),
                },
                detail: text(rng),
            }
        })
        .collect();
    (meta, events)
}

fn random_value(rng: &mut Mix, depth: usize) -> Value {
    match rng.below(if depth == 0 { 6 } else { 5 }) {
        0 => Value::Str(text(rng)),
        1 => Value::UInt(rng.next() >> rng.below(64)),
        2 => Value::UInt(rng.below(10) as u64),
        3 => Value::F64(rng.pick(&[0.5, 3.0, 1e-9, 2.5e10, 0.1])),
        4 => Value::Null,
        _ => Value::Obj(
            (0..rng.below(3)).map(|_| (text(rng), random_value(rng, depth + 1))).collect(),
        ),
    }
}

fn render_value(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("\"{}\"", reference::escape(s)),
        Value::UInt(u) => u.to_string(),
        Value::F64(f) => format!("{f:?}"),
        Value::Null => "null".into(),
        Value::Obj(fields) => render_fields(fields),
    }
}

fn render_fields(fields: &[(String, Value)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", reference::escape(k), render_value(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Keys a mutation may add or duplicate: the six event fields, header
/// fields, unknown ones and a key spelled with an escape.
const KEYS: &[&str] =
    &["at", "pid", "kind", "code", "seq", "detail", "schema", "version", "events", "extra", "é"];

/// Apply one random structural or byte-level edit to `lines`.
fn mutate(rng: &mut Mix, lines: &mut Vec<String>) {
    if lines.is_empty() {
        lines.push(String::new());
    }
    let li = rng.below(lines.len());
    let fields = reference::parse_object(&lines[li]).ok();
    match (rng.below(14), fields) {
        // Reorder the fields of a line.
        (0, Some(mut f)) => {
            let k = rng.below(f.len().max(1));
            f.rotate_left(k);
            if rng.below(2) == 0 {
                f.reverse();
            }
            lines[li] = render_fields(&f);
        }
        // An unknown field.
        (1, Some(mut f)) => {
            let at = rng.below(f.len() + 1);
            f.insert(
                at,
                (rng.pick(&["extra", "ζ", "at\u{0}", "Kind"]).to_string(), random_value(rng, 0)),
            );
            lines[li] = render_fields(&f);
        }
        // A duplicate key, before or after the original, of any type.
        (2, Some(mut f)) => {
            let key = rng.pick(KEYS).to_string();
            let value = if rng.below(2) == 0 {
                f.iter().find(|(k, _)| *k == key).map_or(Value::Null, |(_, v)| v.clone())
            } else {
                random_value(rng, 0)
            };
            let at = rng.below(f.len() + 1);
            f.insert(at, (key, value));
            lines[li] = render_fields(&f);
        }
        // A field of the wrong type.
        (3, Some(mut f)) if !f.is_empty() => {
            let i = rng.below(f.len());
            f[i].1 = random_value(rng, 0);
            lines[li] = render_fields(&f);
        }
        // A missing field.
        (4, Some(mut f)) if !f.is_empty() => {
            let i = rng.below(f.len());
            f.remove(i);
            lines[li] = render_fields(&f);
        }
        // Several fields missing or of the wrong type at once, so that
        // the order of the checks decides the error.
        (10, Some(f)) => {
            let f: Vec<_> = f
                .into_iter()
                .filter_map(|(k, v)| match rng.below(3) {
                    0 => None,
                    1 => Some((k, random_value(rng, 0))),
                    _ => Some((k, v)),
                })
                .collect();
            lines[li] = render_fields(&f);
        }
        // A bad header: other schema, other version, wrong count.
        (5, _) => {
            let mut h = reference::parse_object(&lines[0]).unwrap_or_default();
            let (key, value) = match rng.below(4) {
                0 => (
                    "schema",
                    Value::Str(rng.pick(&["other", "ocpt-trace ", "OCPT-TRACE"]).to_string()),
                ),
                1 => ("version", Value::UInt(rng.below(3) as u64)),
                2 => ("events", Value::UInt(rng.below(30) as u64)),
                _ => (rng.pick(&["algo", "n", "seed"]), random_value(rng, 0)),
            };
            match h.iter_mut().find(|(k, _)| k == key) {
                Some(slot) => slot.1 = value,
                None => h.push((key.to_string(), value)),
            }
            lines[0] = render_fields(&h);
        }
        // Swap two lines (the header included).
        (6, _) => {
            let j = rng.below(lines.len());
            lines.swap(li, j);
        }
        // A blank or whitespace-only line, or a dropped line.
        (7, _) => {
            if rng.below(3) == 0 {
                lines.remove(li);
            } else {
                lines.insert(li, rng.pick(&["", " ", "\t", "\r"]).to_string());
            }
        }
        // Truncate the line (the last line of a cut-off file).
        (8, _) => {
            let cut = char_boundary(rng, &lines[li]);
            lines[li].truncate(cut);
            lines.truncate(li + 1);
        }
        // Grow a number: more digits (up to past `u64::MAX`), a fraction
        // or an exponent.
        (11, _) if lines[li].bytes().any(|c| c.is_ascii_digit()) => {
            let digits: Vec<usize> = lines[li]
                .bytes()
                .enumerate()
                .filter(|(_, c)| c.is_ascii_digit())
                .map(|(i, _)| i + 1)
                .collect();
            let at = rng.pick(&digits);
            let tail =
                rng.pick(&["0", "9", "99999999999", "18446744073709551616", ".5", "e3", "e400"]);
            lines[li].insert_str(at, tail);
        }
        // Delete one character.
        (9, _) if !lines[li].is_empty() => {
            let at = char_boundary(rng, &lines[li]);
            if at < lines[li].len() {
                lines[li].remove(at);
            }
        }
        // Insert whitespace or a raw token anywhere.
        _ => {
            let at = char_boundary(rng, &lines[li]);
            let tok = if rng.below(2) == 0 {
                rng.pick(&[" ", "\t", "\r", "  "])
            } else {
                rng.pick(TOKENS)
            };
            lines[li].insert_str(at, tok);
        }
    }
}

fn char_boundary(rng: &mut Mix, s: &str) -> usize {
    let mut at = rng.below(s.len() + 1);
    while !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Both writers emit identical bytes, and both parsers read them back
    /// to the records the writer was given.
    #[test]
    fn writer_matches_reference(seed in any::<u64>(), odd_kinds in any::<bool>()) {
        let mut rng = Mix(seed);
        let (meta, events) = stream(&mut rng);
        let jsonl = export::to_jsonl(&meta, &events);
        prop_assert_eq!(&jsonl, &reference::to_jsonl(&meta, &events));
        let mut recs: Vec<Rec> = events.iter().map(Rec::from_event).collect();
        prop_assert_eq!(&export::recs_to_jsonl(&meta, &recs), &jsonl);
        let parsed = export::parse_jsonl(&jsonl);
        prop_assert_eq!(&parsed, &reference::parse_jsonl(&jsonl));
        prop_assert_eq!(parsed, Ok(TraceFile { meta: meta.clone(), recs: recs.clone() }));
        // Owned records may carry any kind text; the writer escapes it too.
        if odd_kinds {
            for r in &mut recs {
                r.kind = text(&mut rng);
            }
            prop_assert_eq!(
                export::recs_to_jsonl(&meta, &recs),
                reference::recs_to_jsonl(&meta, &recs)
            );
        }
    }

    /// Mutated traces give the identical `Ok` value or `Err` string, and
    /// every mutated line the identical object-parse result.
    #[test]
    fn parser_matches_reference(seed in any::<u64>(), edits in 1usize..4) {
        let mut rng = Mix(seed);
        let (meta, events) = stream(&mut rng);
        let clean = reference::to_jsonl(&meta, &events);
        let mut lines: Vec<String> = clean.lines().map(str::to_string).collect();
        for _ in 0..edits {
            mutate(&mut rng, &mut lines);
        }
        let mut text = lines.join("\n");
        if rng.below(4) != 0 {
            text.push('\n');
        }
        prop_assert_eq!(export::parse_jsonl(&text), reference::parse_jsonl(&text), "{}", text);
        for line in text.lines() {
            prop_assert_eq!(json::parse_object(line), reference::parse_object(line), "{}", line);
        }
    }
}

#[test]
fn mutations_reach_every_verdict() {
    // The mutation property is only as strong as the errors it reaches:
    // over the generated cases, each check of the event parser must fire.
    let mut seen = std::collections::BTreeSet::new();
    for seed in 0..4_000u64 {
        let mut rng = Mix(seed);
        let (meta, events) = stream(&mut rng);
        let mut lines: Vec<String> =
            reference::to_jsonl(&meta, &events).lines().map(str::to_string).collect();
        for _ in 0..=rng.below(3) {
            mutate(&mut rng, &mut lines);
        }
        let verdict = match export::parse_jsonl(&lines.join("\n")) {
            Ok(_) => "ok".to_string(),
            Err(e) => {
                let tail = e.split_once(": ").map_or(e.as_str(), |(_, t)| t);
                tail.split([' ', '(']).take(2).collect::<Vec<_>>().join(" ")
            }
        };
        seen.insert(verdict);
    }
    for want in [
        "ok",
        "not an",
        "unsupported ocpt-trace",
        "declares",
        "time goes",
        "unknown event",
        "missing integer",
        "missing string",
        "\"seq\" must",
        "expected ','",
        "unterminated string",
        "trailing content",
        "integer out",
        "bad escape",
        "bad \\u",
        "pid ",
    ] {
        assert!(
            seen.iter().any(|v| v.starts_with(want) || v.contains(want)),
            "no case reached {want:?}; saw {seen:?}"
        );
    }
}

#[test]
fn kind_lookup_matches_the_name_table() {
    for k in TRACE_KINDS {
        assert_eq!(TraceKind::from_name(k.name()), Some(k));
        assert_eq!(TraceKind::from_name(&k.name().to_uppercase()), None);
    }
}
