//! A minimal hand-rolled JSON parser/validator (the workspace is
//! dependency-free by design). Used by the `repro` binary to check that
//! emitted artifacts (`results/trace.json`, `BENCH_*.json`) are
//! well-formed, and to read the committed bench baseline for the
//! regression comparison in `ci.sh`.
//!
//! Faithful to RFC 8259 for everything the repo emits; numbers are kept
//! as `f64`, which is lossless for the magnitudes we write.

/// A parsed JSON value. Object member order is preserved.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse a complete JSON document. Errors carry the byte offset.
pub fn parse(s: &str) -> Result<Value, String> {
    let b = s.as_bytes();
    let mut p = Parser { s, b, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != b.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

/// Validate well-formedness without keeping the tree.
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(|_| ())
}

struct Parser<'a> {
    s: &'a str,
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.pos) {
            if matches!(c, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected {:?} at byte {}", c as char, self.pos)),
            None => Err(format!("unexpected end of input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
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
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
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
            self.skip_ws();
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
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?,
                                16,
                            )
                            .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            // surrogate pairs are not emitted by this repo;
                            // map lone surrogates to the replacement char
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control char in string at byte {}", self.pos));
                }
                Some(_) => {
                    // copy the plain run up to the next quote, backslash or
                    // control byte in one slice: those stop bytes are ASCII,
                    // so both ends fall on char boundaries of the &str input
                    let run = self.b[self.pos..]
                        .iter()
                        .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                        .unwrap_or(self.b.len() - self.pos);
                    out.push_str(&self.s[self.pos..self.pos + run]);
                    self.pos += run;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let s = p.pos;
            while p.peek().is_some_and(|c| c.is_ascii_digit()) {
                p.pos += 1;
            }
            p.pos > s
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
        let text = std::str::from_utf8(&self.b[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shapes_we_emit() {
        let v = parse(
            r#"{"schema_version": 1, "entries": [{"bench": "p", "value": -1.5e3, "ok": true, "n": null}]}"#,
        )
        .unwrap();
        assert_eq!(v.get("schema_version").unwrap().as_f64(), Some(1.0));
        let e = &v.get("entries").unwrap().as_arr().unwrap()[0];
        assert_eq!(e.get("bench").unwrap().as_str(), Some("p"));
        assert_eq!(e.get("value").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(e.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(e.get("n"), Some(&Value::Null));
    }

    #[test]
    fn escapes_round_trip() {
        let mut s = String::new();
        crate::json_string(&mut s, "a\"b\\c\nd\te\u{1}");
        let v = parse(&s).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\te\u{1}"));
    }

    #[test]
    fn rejects_malformed() {
        assert!(validate("{").is_err());
        assert!(validate("[1,]").is_err());
        assert!(validate("{\"a\" 1}").is_err());
        assert!(validate("\"unterminated").is_err());
        assert!(validate("tru").is_err());
    }

    #[test]
    fn parses_multi_megabyte_string_document() {
        // ~5 MB of strings mixing ASCII, multi-byte UTF-8 and escapes: a
        // parser that rescans the remaining document per character would
        // not finish this in any reasonable time
        let item = |i: usize| format!("span {i} — µs ü€ {}", "x".repeat(200));
        let n = 20_000;
        let mut doc = String::from("[");
        for i in 0..n {
            if i > 0 {
                doc.push(',');
            }
            crate::json_string(&mut doc, &format!("{}\n\"{i}\"", item(i)));
        }
        doc.push(']');
        assert!(doc.len() > 4 << 20, "document is {} bytes", doc.len());
        validate(&doc).unwrap();
        let v = parse(&doc).unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items.len(), n);
        for i in [0, 1, n / 2, n - 1] {
            assert_eq!(
                items[i].as_str().unwrap(),
                format!("{}\n\"{i}\"", item(i)),
                "item {i}"
            );
        }
    }

    #[test]
    fn rejects_trailing_content() {
        assert!(validate("{} x").is_err());
        assert!(validate("1 2").is_err());
    }
}
