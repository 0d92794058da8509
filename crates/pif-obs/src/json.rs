//! Minimal hand-rolled JSON: a value parser and emitter helpers.
//!
//! The workspace has no JSON dependency (see `vendor/README.md`), and
//! several documents must be *parsed*: sweep reports (`piflab check` and
//! `piflab diff` compare metric values, not bytes), result-cache entries,
//! `piflab/1` frames and `BENCH_engine.json`. This is a small
//! recursive-descent parser producing a [`Json`] tree. Parsing a document
//! *is* validation: anything malformed is rejected with a byte offset.
//!
//! Some of those inputs are untrusted (frames arrive over TCP, cache
//! entries live on disk), and each nesting level costs the parser a stack
//! frame, so a document nested deeper than [`MAX_DEPTH`] is rejected
//! rather than allowed to overflow the calling thread's stack. The
//! emitters use [`escape`] and [`fmt_f64`]; `pif-lab` re-exports this
//! module as `pif_lab::json`.

/// The deepest nesting of arrays and objects [`Json::parse`] accepts:
/// `[]` is depth 1, `[[]]` depth 2. The deepest document the tree writes
/// nests 4 levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Object keys keep document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first malformed
    /// construct, of the first container nested deeper than
    /// [`MAX_DEPTH`], or of trailing garbage after the document.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser {
            text: s,
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos == p.bytes.len() {
            Ok(v)
        } else {
            Err(p.error("trailing garbage after document"))
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
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

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object's fields, if it is one.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.error(&format!("expected '{lit}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.error("malformed number"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.error("bad \\u escape"))?;
        self.pos += 4;
        Ok(hex)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        while let Some(b) = self.peek() {
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => match self.peek() {
                    Some(e) => {
                        self.pos += 1;
                        match e {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b't' => out.push('\t'),
                            b'r' => out.push('\r'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'u' => {
                                let hex = self.hex4()?;
                                // Combine UTF-16 surrogate pairs, which
                                // JSON uses for code points above U+FFFF.
                                let code = if (0xD800..0xDC00).contains(&hex) {
                                    if self.bytes.get(self.pos..self.pos + 2) != Some(&b"\\u"[..]) {
                                        return Err(self.error("unpaired high surrogate"));
                                    }
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    0x10000 + ((hex - 0xD800) << 10) + (low - 0xDC00)
                                } else {
                                    hex
                                };
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| self.error("bad \\u code point"))?,
                                );
                            }
                            _ => return Err(self.error("unknown escape")),
                        }
                    }
                    None => return Err(self.error("unterminated escape")),
                },
                _ => {
                    // Decode this char alone: validating the rest of the
                    // document per char would make parsing quadratic.
                    // `pos - 1` is a char boundary, because everything
                    // before it was consumed as ASCII bytes or whole chars.
                    let c = self
                        .text
                        .get(self.pos - 1..)
                        .and_then(|tail| tail.chars().next())
                        .ok_or_else(|| self.error("invalid UTF-8"))?;
                    out.push(c);
                    self.pos += c.len_utf8() - 1;
                }
            }
        }
        Err(self.error("unterminated string"))
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }
}

/// Escapes a string for embedding in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number token with shortest round-trip
/// precision; non-finite values (which JSON cannot represent) become
/// `null`.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\"y", "d": null}, "e": true}"#;
        let j = Json::parse(doc).unwrap();
        assert_eq!(j.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(j.get("b").unwrap().get("c").unwrap().as_str(), Some("x\"y"));
        assert_eq!(j.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(j.get("e").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,]", "{\"a\": }", "tru", "1 2", "\"abc"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    /// A document `depth` containers deep, alternating arrays and
    /// objects.
    fn nested(depth: usize) -> String {
        let mut doc = String::new();
        for level in 0..depth {
            doc.push_str(if level % 2 == 0 { "[" } else { "{\"k\": " });
        }
        doc.push_str("null");
        for level in (0..depth).rev() {
            doc.push(if level % 2 == 0 { ']' } else { '}' });
        }
        doc
    }

    #[test]
    fn nesting_is_limited_to_max_depth() {
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128 levels"), "{err}");
        // The limit counts open containers, not total ones: siblings at
        // the limit are fine.
        let siblings = format!("[{}, {}]", nested(MAX_DEPTH - 1), nested(MAX_DEPTH - 1));
        assert!(Json::parse(&siblings).is_ok());
        // Far past the limit the parser stops at the first excess level
        // instead of recursing through the rest.
        let err = Json::parse(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.contains("at byte 128:"), "{err}");
    }

    #[test]
    fn roundtrips_floats() {
        for v in [0.0, 1.0, 0.1, 1e-9, 123456.789, -2.5e10] {
            let s = fmt_f64(v);
            let j = Json::parse(&s).unwrap();
            assert_eq!(j.as_f64(), Some(v), "{s}");
        }
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }

    #[test]
    fn escape_covers_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn unicode_strings_roundtrip() {
        let doc = "{\"k\": \"héllo ☃\"}";
        let j = Json::parse(doc).unwrap();
        assert_eq!(j.get("k").unwrap().as_str(), Some("héllo ☃"));
    }

    #[test]
    fn surrogate_pair_escapes_decode() {
        // U+1F600 escaped per the JSON spec as a UTF-16 surrogate pair.
        let j = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(j.as_str(), Some("\u{1F600}"));
        // BMP escapes still decode directly.
        assert_eq!(
            Json::parse(r#""\u00e9\u2603""#).unwrap().as_str(),
            Some("\u{e9}\u{2603}")
        );
        // Unpaired or inverted surrogates are malformed.
        for bad in [r#""\ud83d""#, r#""\ud83dAAAA""#, r#""\udc00""#] {
            assert!(Json::parse(bad).is_err(), "{bad} should not parse");
        }
    }
}
