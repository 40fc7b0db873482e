//! The crate graph's one JSON reader and writer.
//!
//! Every document the product emits (metrics, trace, memory series, flight
//! dump, stats, report card, space study) is written with [`Writer`] and
//! read back — by `witness verify`, the tier-1 tests and the repo
//! benchmark — with [`parse`]. No external crate: the workspace builds
//! offline, and the documents are small.
//!
//! The reader is a strict recursive-descent parser over whole documents —
//! not a general-purpose JSON library (no streaming, whole document in
//! memory, numbers as `f64`). The writer has one fixed style: two-space
//! indent, one member or element per line, `"key": value`.

use std::io::{self, Write};

/// A parsed JSON document. Object members keep their source order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup (None for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// Integer view of a number (exact for the u53 range our counters use).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This value as an integer in `0..=max`, or why it is not one: not a
    /// number, negative, fractional, above `max` — or 2^53 and beyond, where
    /// the `f64` behind [`Value::Num`] no longer holds every integer
    /// (2^53 + 1 reads as 2^53) and the digits in the file cannot be
    /// recovered. The checked counterpart of [`Value::as_u64`] for readers
    /// that must fail closed.
    pub fn to_uint(&self, max: u64) -> Result<u64, String> {
        const EXACT: f64 = (1u64 << 53) as f64;
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < EXACT => {
                let v = *n as u64; // exact: integral and below 2^53
                if v <= max {
                    Ok(v)
                } else {
                    Err(format!("is {v}, above the field's maximum {max}"))
                }
            }
            Value::Num(n) => Err(format!(
                "is {n}, not an integer the reader can hold exactly"
            )),
            _ => Err("is not a number".into()),
        }
    }

    /// Member `key` through [`Value::to_uint`]; a missing member is an error.
    pub fn uint(&self, key: &str, max: u64) -> Result<u64, String> {
        let v = (self.get(key)).ok_or_else(|| format!("missing integer field {key:?}"))?;
        v.to_uint(max).map_err(|e| format!("{key:?} {e}"))
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts: far above any
/// document the workspace writes, far below what overflows a thread's stack.
const MAX_DEPTH: u32 = 256;

/// Parse a complete JSON document (trailing whitespace allowed, anything
/// else after the top-level value is an error, and so is nesting deeper
/// than 256 arrays and objects).
pub fn parse(src: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: u32,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        let (mut line, mut col) = (1usize, 1usize);
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        format!("line {line} col {col}: {msg}")
    }

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
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(&mut self, body: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn keyword(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
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
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
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
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs don't occur in our exporters'
                            // output; map them to the replacement character
                            // rather than rejecting the document.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (the input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err(&format!("bad number {text:?}")))
    }
}

/// Escape `s` for inclusion in a JSON string literal (quotes, backslashes
/// and control characters).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Push-style JSON writer: open a container, push keys and values, close
/// it. The first I/O error is kept and every later call becomes a no-op,
/// so call sites read as the document does; [`Writer::finish`] reports it.
/// Nesting is the caller's to get right (`end` without a `begin` panics).
pub struct Writer<'a> {
    out: &'a mut dyn Write,
    /// One entry per open container: its closing bracket and whether it
    /// holds an element yet.
    open: Vec<(char, bool)>,
    /// A key was just written; the next value continues its line.
    after_key: bool,
    err: Option<io::Error>,
}

impl<'a> Writer<'a> {
    pub fn new(out: &'a mut dyn Write) -> Writer<'a> {
        Writer {
            out,
            open: Vec::new(),
            after_key: false,
            err: None,
        }
    }

    fn put(&mut self, text: std::fmt::Arguments<'_>) {
        if self.err.is_none() {
            self.err = self.out.write_fmt(text).err();
        }
    }

    /// Separator, line break and indent in front of a key or an element.
    fn lead(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        let depth = self.open.len();
        if let Some((_, has_items)) = self.open.last_mut() {
            let comma = if std::mem::replace(has_items, true) {
                ","
            } else {
                ""
            };
            self.put(format_args!("{comma}\n{:1$}", "", 2 * depth));
        }
    }

    pub fn key(&mut self, k: &str) -> &mut Self {
        self.lead();
        self.put(format_args!("\"{}\": ", escape(k)));
        self.after_key = true;
        self
    }

    pub fn begin_object(&mut self) -> &mut Self {
        self.begin('{', '}')
    }

    pub fn begin_array(&mut self) -> &mut Self {
        self.begin('[', ']')
    }

    fn begin(&mut self, open: char, close: char) -> &mut Self {
        self.lead();
        self.put(format_args!("{open}"));
        self.open.push((close, false));
        self
    }

    /// Close the innermost open object or array.
    pub fn end(&mut self) -> &mut Self {
        let (close, has_items) = self.open.pop().expect("end() without a begin");
        if has_items {
            self.put(format_args!("\n{:1$}", "", 2 * self.open.len()));
        }
        self.put(format_args!("{close}"));
        self
    }

    fn scalar(&mut self, text: std::fmt::Arguments<'_>) -> &mut Self {
        self.lead();
        self.put(text);
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.scalar(format_args!("{v}"))
    }

    /// Shortest text that reads back as the same `f64`; `null` for a
    /// non-finite value, which JSON cannot spell.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        if v.is_finite() {
            self.scalar(format_args!("{v}"))
        } else {
            self.null()
        }
    }

    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.scalar(format_args!("{v}"))
    }

    pub fn str(&mut self, v: &str) -> &mut Self {
        self.scalar(format_args!("\"{}\"", escape(v)))
    }

    pub fn null(&mut self) -> &mut Self {
        self.scalar(format_args!("null"))
    }

    /// End the document with a newline and flush; the first I/O error of
    /// the whole document, if any.
    pub fn finish(mut self) -> io::Result<()> {
        assert!(self.open.is_empty(), "finish() with an open container");
        self.put(format_args!("\n"));
        match self.err.take() {
            Some(e) => Err(e),
            None => self.out.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_exporter_shaped_document() {
        let v = parse(
            r#"{
  "schema": "stint-obs-metrics-v1",
  "counters": { "om.inserts": 12, "neg": -3 },
  "gauges": { "ivtree.bytes": { "current": 0, "hw": 4096 } },
  "runs": [ { "ok": true, "x": null, "f": 1.5 } ],
  "text": "a\"b\\c\ndA"
}"#,
        )
        .unwrap();
        assert_eq!(
            v.get("schema").unwrap().as_str(),
            Some("stint-obs-metrics-v1")
        );
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("om.inserts")
                .unwrap()
                .as_u64(),
            Some(12)
        );
        assert_eq!(
            v.get("counters").unwrap().get("neg").unwrap().as_f64(),
            Some(-3.0)
        );
        assert_eq!(
            v.get("gauges")
                .unwrap()
                .get("ivtree.bytes")
                .unwrap()
                .get("hw")
                .unwrap()
                .as_u64(),
            Some(4096)
        );
        let run = &v.get("runs").unwrap().as_array().unwrap()[0];
        assert_eq!(run.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(run.get("x"), Some(&Value::Null));
        assert_eq!(run.get("f").unwrap().as_f64(), Some(1.5));
        assert_eq!(run.get("f").unwrap().as_u64(), None, "1.5 is not integral");
        assert_eq!(v.get("text").unwrap().as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1} x",
            "\"unterminated",
            "nul",
            "01a",
            "{\"a\": \u{1}\"\"}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |depth: u32, open: &str, close: &str| {
            let d = depth as usize;
            format!("{}1{}", open.repeat(d), close.repeat(d))
        };
        assert!(parse(&nest(MAX_DEPTH, "[", "]")).is_ok());
        assert!(parse(&nest(MAX_DEPTH, "{\"k\": ", "}")).is_ok());
        for (open, close) in [("[", "]"), ("{\"k\": ", "}")] {
            let e = parse(&nest(MAX_DEPTH + 1, open, close)).unwrap_err();
            assert!(e.ends_with("nesting deeper than 256"), "{e}");
        }
        // Unclosed nesting far past the cap stops at it, without recursing.
        let e = parse(&"[".repeat(400_000)).unwrap_err();
        assert!(e.ends_with("nesting deeper than 256"), "{e}");
    }

    #[test]
    fn error_carries_position() {
        let e = parse("{\n  \"a\": nope\n}").unwrap_err();
        assert!(e.starts_with("line 2"), "{e}");
    }

    #[test]
    fn uint_fails_closed() {
        let v = parse(
            r#"{"a": 7, "b": 4294967310, "c": 1.5, "d": -1, "e": "7",
                        "f": 9007199254740993, "g": 9007199254740991}"#,
        )
        .unwrap();
        let max = u64::from(u32::MAX);
        assert_eq!(v.uint("a", max), Ok(7));
        assert_eq!(v.uint("g", u64::MAX), Ok((1 << 53) - 1));
        for (key, why) in [
            ("b", "above the field's maximum"),
            ("c", "not an integer"),
            ("d", "not an integer"),
            ("e", "not a number"),
            ("f", "not an integer"), // 2^53 + 1 reads as 2^53: digits lost
            ("z", "missing"),
        ] {
            let e = v.uint(key, max).unwrap_err();
            assert!(e.contains(why), "{key}: {e}");
        }
    }

    fn write_value(j: &mut Writer<'_>, v: &Value) {
        match v {
            Value::Null => j.null(),
            Value::Bool(b) => j.bool(*b),
            // Non-negative integers go through `u64`, as counters do.
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                j.u64(*n as u64)
            }
            Value::Num(n) => j.f64(*n),
            Value::Str(s) => j.str(s),
            Value::Arr(items) => {
                j.begin_array();
                items.iter().for_each(|i| write_value(j, i));
                j.end()
            }
            Value::Obj(members) => {
                j.begin_object();
                for (k, m) in members {
                    j.key(k);
                    write_value(j, m);
                }
                j.end()
            }
        };
    }

    fn written(v: &Value) -> String {
        let mut buf = Vec::new();
        let mut j = Writer::new(&mut buf);
        write_value(&mut j, v);
        j.finish().unwrap();
        String::from_utf8(buf).unwrap()
    }

    /// A random tree: xorshift-driven, depth-bounded, drawing strings and
    /// numbers from the cases a writer gets wrong.
    fn tree(rng: &mut u64, depth: u32) -> Value {
        let mut next = |n: u64| {
            *rng ^= *rng << 13;
            *rng ^= *rng >> 7;
            *rng ^= *rng << 17;
            *rng % n
        };
        const STRINGS: [&str; 7] = [
            "",
            "plain",
            "quote\"inside",
            "back\\slash",
            "ctl\u{1}\n\t\u{1f}",
            "non-ascii é ✓ 𝄞",
            "\\\"\\",
        ];
        const NUMBERS: [f64; 8] = [
            0.0,
            1.0,
            u64::MAX as f64,
            -3.0,
            1.5,
            -0.001,
            1e-7,
            123456.789,
        ];
        let scalars = 4;
        match next(if depth == 0 { scalars } else { scalars + 2 }) {
            0 => Value::Null,
            1 => Value::Bool(next(2) == 0),
            2 => Value::Num(NUMBERS[next(8) as usize]),
            3 => Value::Str(STRINGS[next(7) as usize].into()),
            4 => Value::Arr((0..next(4)).map(|_| tree(rng, depth - 1)).collect()),
            _ => {
                // Keys in generated (not sorted) order, duplicates and all:
                // the reader keeps source order, so must the writer.
                let n = next(4);
                let keys: Vec<String> = (0..n)
                    .map(|i| format!("{}{i}", STRINGS[next(7) as usize]))
                    .rev()
                    .collect();
                Value::Obj(
                    keys.into_iter()
                        .map(|k| (k, tree(rng, depth - 1)))
                        .collect(),
                )
            }
        }
    }

    #[test]
    fn parse_inverts_writer_on_generated_trees() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..500 {
            let v = tree(&mut rng, 4);
            let text = written(&v);
            assert_eq!(parse(&text).as_ref(), Ok(&v), "{text}");
        }
        // The corner cases by name, whatever the generator happened to draw.
        let v = Value::Obj(vec![
            ("z".into(), Value::Obj(vec![])),
            ("a".into(), Value::Arr(vec![])),
            ("max".into(), Value::Num(u64::MAX as f64)),
            ("m".into(), Value::Arr(vec![Value::Arr(vec![Value::Null])])),
        ]);
        assert_eq!(parse(&written(&v)), Ok(v));
    }

    #[test]
    fn writer_has_one_style() {
        let v = parse(r#"{"k": {"n": 1, "e": {}, "a": [true, [], "s"]}}"#).unwrap();
        assert_eq!(
            written(&v),
            "{\n  \"k\": {\n    \"n\": 1,\n    \"e\": {},\n    \"a\": [\n      \
             true,\n      [],\n      \"s\"\n    ]\n  }\n}\n"
        );
    }

    #[test]
    fn writer_reports_the_first_io_error() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut out = Full;
        let mut j = Writer::new(&mut out);
        j.begin_object().key("a").u64(1).end();
        assert_eq!(j.finish().unwrap_err().to_string(), "disk full");
    }
}
