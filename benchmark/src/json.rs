//! A small JSON value, writer and parser. The vendored crate set has no
//! serde, and the benchmark needs only flat result files, `BENCHMARK.json`
//! and the span lines.

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order, so files diff cleanly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` — also what a non-finite number is written as.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; written with every digit `f64` round-trips.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Serialize on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serialize over several lines: top-level members and array elements
    /// on their own lines, leaf objects on one — how `BENCHMARK.json` is
    /// laid out.
    pub fn render_pretty(&self) -> String {
        fn leaf(v: &Json) -> bool {
            match v {
                Json::Arr(items) => items
                    .iter()
                    .all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_))),
                Json::Obj(members) => members
                    .iter()
                    .all(|(_, m)| !matches!(m, Json::Arr(_) | Json::Obj(_))),
                _ => true,
            }
        }
        fn go(v: &Json, indent: usize, out: &mut String) {
            let pad = "  ".repeat(indent + 1);
            let close = "  ".repeat(indent);
            match v {
                _ if leaf(v) => v.write(out),
                Json::Arr(items) => {
                    out.push_str("[\n");
                    for (i, item) in items.iter().enumerate() {
                        out.push_str(&pad);
                        go(item, indent + 1, out);
                        out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                    }
                    out.push_str(&close);
                    out.push(']');
                }
                Json::Obj(members) => {
                    out.push_str("{\n");
                    for (i, (k, m)) in members.iter().enumerate() {
                        out.push_str(&pad);
                        write_str(k, out);
                        out.push_str(": ");
                        go(m, indent + 1, out);
                        out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
                    }
                    out.push_str(&close);
                    out.push('}');
                }
                _ => v.write(out),
            }
        }
        let mut out = String::new();
        go(self, 0, &mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => {
                // `Display` for f64 is the shortest text that parses back
                // to the same bits, never in exponent form.
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse one JSON document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn write_str(s: &str, out: &mut String) {
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
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.expect("null").map(|()| Json::Null),
            Some(b't') => self.expect("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.expect("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(":")?;
                    members.push((key, self.value()?));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or("unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let e = *self
                        .bytes
                        .get(self.pos)
                        .ok_or("unterminated escape".to_string())?;
                    self.pos += 1;
                    match e {
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or(format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogate pairs do not occur in files this
                            // benchmark writes; map a lone one to U+FFFD.
                            let c = char::from_u32(hex).unwrap_or('\u{FFFD}');
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                b => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|_| "string is not UTF-8".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_keeps_every_digit_and_whole_numbers_whole() {
        let v = Json::obj([
            ("attempted", Json::Num(1000.0)),
            ("latency_ms", Json::Num(1.2034000000000002)),
            ("tiny", Json::Num(1.5e-9)),
            ("nan", Json::Num(f64::NAN)),
            ("ok", Json::Bool(true)),
        ]);
        assert_eq!(
            v.render(),
            r#"{"attempted": 1000, "latency_ms": 1.2034000000000002, "tiny": 0.0000000015, "nan": null, "ok": true}"#
        );
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let v = Json::Arr(vec![Json::str("a\"b\\c\nd\u{1}"), Json::Null]);
        let text = v.render();
        assert_eq!(text, "[\"a\\\"b\\\\c\\nd\\u0001\", null]");
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn parser_reads_nested_documents() {
        let doc = r#" {"paths": ["benchmark"], "run_seconds": 10,
            "end_to_end": [{"name": "setup_s", "bound": 0.25, "x": -1.5e2}], "e": {}, "a": []} "#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("run_seconds").and_then(Json::as_f64), Some(10.0));
        let m = &v.get("end_to_end").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(m.get("name").and_then(Json::as_str), Some("setup_s"));
        assert_eq!(m.get("x").and_then(Json::as_f64), Some(-150.0));
        assert_eq!(v.get("e"), Some(&Json::Obj(vec![])));
        assert_eq!(v.get("a"), Some(&Json::Arr(vec![])));
    }

    #[test]
    fn pretty_output_parses_back_to_the_same_value() {
        let v = Json::obj([
            ("paths", Json::Arr(vec![Json::str("benchmark")])),
            (
                "end_to_end",
                Json::Arr(vec![Json::obj([("name", Json::str("setup_s"))])]),
            ),
        ]);
        let text = v.render_pretty();
        assert_eq!(
            text,
            "{\n  \"paths\": [\"benchmark\"],\n  \"end_to_end\": [\n    {\"name\": \"setup_s\"}\n  ]\n}"
        );
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "nul", "1 2", "\"open"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn floats_round_trip_bit_for_bit() {
        for x in [0.1 + 0.2, 1e-12, 123_456_789.125, 2f64.powi(60)] {
            let back = Json::parse(&Json::Num(x).render()).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits());
        }
    }
}
