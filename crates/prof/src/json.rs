//! The workspace's one JSON codec (std-only, `DESIGN.md` §7): a
//! recursive-descent [`parse`] into a [`Value`] tree, the string escaper
//! [`escape_into`], and the flat-object line writer [`json_object`].
//! Service requests, profile snapshots, trace lines and `optgap` output
//! are all read here, and every writer that emits caller-supplied strings
//! escapes them here.
//!
//! Parsing is linear in the input (strings are copied in runs between
//! quotes and escapes) and nesting is capped at 128 levels, so no
//! document can stall or overflow the parser. Numbers follow RFC 8259's
//! grammar (no `+1`, `.5`, `1.` or `01`); an integer literal is kept
//! exact as [`Value::Int`], so snapshot sums above 2⁵³ round-trip.

use std::collections::BTreeMap;

/// Deepest array/object nesting [`parse`] accepts. The workspace's
/// documents nest at most four levels.
const MAX_DEPTH: usize = 128;

/// Largest magnitude [`Value::as_i64`] accepts: the wire format's integer
/// range, inside which every `f64` integer is exact.
const I64_LIMIT: i128 = 9_000_000_000_000_000;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with no fraction and no exponent, exactly. Integer
    /// literals beyond `i128` parse as [`Value::Float`].
    Int(i128),
    /// Any other number.
    Float(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. A `BTreeMap` (later duplicate keys win during parsing,
    /// like every mainstream JSON decoder) — iteration order is not
    /// semantically relevant to any format the workspace reads.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as an `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(n) => Some(n as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The number as an integer: `Some` for integral numbers (`2.0` and
    /// `1e5` included) of magnitude at most 9·10¹⁵.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int(n) if (-I64_LIMIT..=I64_LIMIT).contains(&n) => Some(n as i64),
            Value::Float(f) if f.fract() == 0.0 && f.abs() <= I64_LIMIT as f64 => Some(f as i64),
            _ => None,
        }
    }

    /// The exact value of an integer literal, if it fits in `T`; `None`
    /// for any number written with a fraction or an exponent.
    pub fn as_int<T: TryFrom<i128>>(&self) -> Option<T> {
        match *self {
            Value::Int(n) => n.try_into().ok(),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Field lookup on an object; `None` for missing fields and
    /// non-objects alike.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj().and_then(|m| m.get(key))
    }
}

/// Parses one complete JSON document from `text` (surrounding whitespace
/// allowed, trailing garbage rejected).
///
/// # Errors
///
/// A human-readable description of the first syntax error, with the byte
/// offset where it was detected.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn rest(&self) -> &[u8] {
        &self.text.as_bytes()[self.pos..]
    }

    fn peek(&self) -> Option<u8> {
        self.rest().first().copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
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
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.rest().starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// Scans the run of number characters, then checks it against the
    /// RFC 8259 grammar, so a malformed number is reported whole.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let integer = number_kind(text.as_bytes())
            .ok_or_else(|| format!("invalid number {text:?} at byte {start}"))?;
        Ok(match text.parse::<i128>() {
            Ok(n) if integer => Value::Int(n),
            // Out-of-range magnitudes become infinities, as in `f64::from_str`.
            _ => Value::Float(text.parse().expect("RFC 8259 numbers are f64 literals")),
        })
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go;
            // both are ASCII, so the run ends on a char boundary.
            let run = self.rest().iter().position(|&c| c == b'"' || c == b'\\');
            let run = run.ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.text.as_bytes()[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let esc = self.peek().ok_or("unterminated escape")?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{0008}'),
                b'f' => out.push('\u{000C}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hex = self
                        .text
                        .get(self.pos..self.pos + 4)
                        .ok_or("truncated \\u escape")?;
                    if !hex.bytes().all(|c| c.is_ascii_hexdigit()) {
                        return Err("invalid \\u escape".to_string());
                    }
                    let code = u32::from_str_radix(hex, 16).expect("four hex digits");
                    self.pos += 4;
                    // Surrogate pairs are not needed by any format the
                    // workspace reads; lone surrogates become U+FFFD.
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                }
                _ => return Err(format!("invalid escape at byte {}", self.pos - 1)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        let mut items = Vec::new();
        self.nested(b'[', b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Value::Arr(items))
    }

    fn object(&mut self) -> Result<Value, String> {
        let mut map = BTreeMap::new();
        self.nested(b'{', b'}', |p| {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            map.insert(key, p.value()?);
            Ok(())
        })?;
        Ok(Value::Obj(map))
    }

    /// Parses `open (item (',' item)*)? close`, one nesting level deeper.
    fn nested(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.expect(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        self.depth += 1;
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => {
                    let close = close as char;
                    return Err(format!("expected ',' or '{close}' at byte {}", self.pos));
                }
            }
        }
    }
}

/// Checks `t` against RFC 8259's number grammar,
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`: `Some(true)`
/// for an integer literal, `Some(false)` for any other number, `None` for
/// text outside the grammar.
fn number_kind(t: &[u8]) -> Option<bool> {
    let digits = |i: usize| i + t[i..].iter().take_while(|c| c.is_ascii_digit()).count();
    let start = usize::from(t.first() == Some(&b'-'));
    let mut i = digits(start);
    if i == start || (t[start] == b'0' && i > start + 1) {
        return None;
    }
    let integer = i == t.len();
    if t.get(i) == Some(&b'.') {
        i = Some(digits(i + 1)).filter(|&j| j > i + 1)?;
    }
    if matches!(t.get(i), Some(b'e' | b'E')) {
        let exp = i + 1 + usize::from(matches!(t.get(i + 1), Some(b'+' | b'-')));
        i = Some(digits(exp)).filter(|&j| j > exp)?;
    }
    (i == t.len()).then_some(integer)
}

/// Appends `s` to `out` with JSON string escaping (quotes not included):
/// the two mandatory escapes, `\n`/`\r`/`\t`, and `\u00XX` for other
/// control characters.
pub fn escape_into(out: &mut String, s: &str) {
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
}

/// [`escape_into`] a fresh string.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// A JSON scalar for [`json_object`] fields.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A string (escaped).
    Str(String),
    /// A boolean.
    Bool(bool),
}

/// Renders one flat JSON object line from `(key, value)` pairs, in
/// order, escaping every key and string value.
pub fn json_object(fields: &[(&str, JsonValue)]) -> String {
    let mut out = String::with_capacity(32 + fields.len() * 16);
    out.push('{');
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(&mut out, key);
        out.push_str("\":");
        match value {
            JsonValue::U64(v) => out.push_str(&v.to_string()),
            JsonValue::I64(v) => out.push_str(&v.to_string()),
            JsonValue::Str(s) => {
                out.push('"');
                escape_into(&mut out, s);
                out.push('"');
            }
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_wire_shapes() {
        let v = parse(
            r#"{"id":"k-1","budget_ratio":2.5,"max_ii":null,"ops":["add","mul"],
               "edges":[[0,1,3,0,"flow",false]],"π ≈ 3":"日本"}"#,
        )
        .unwrap();
        assert_eq!(v.get("id").unwrap().as_str(), Some("k-1"));
        assert_eq!(v.get("budget_ratio").unwrap().as_f64(), Some(2.5));
        assert_eq!(v.get("max_ii"), Some(&Value::Null));
        assert_eq!(v.get("π ≈ 3").unwrap().as_str(), Some("日本"));
        let e0 = v.get("edges").unwrap().as_arr().unwrap()[0]
            .as_arr()
            .unwrap();
        assert_eq!(e0[0].as_i64(), Some(0));
        assert_eq!(e0[4].as_str(), Some("flow"));
        assert_eq!(e0[5].as_bool(), Some(false));
    }

    #[test]
    fn numbers_are_rfc_8259_and_integers_exact() {
        let int = |t: &str| parse(t).unwrap().as_i64();
        assert_eq!(
            (int("-42"), int("-0"), int("2.0"), int("1e5"), int("2.5")),
            (Some(-42), Some(0), Some(2), Some(100_000), None)
        );
        // as_i64 keeps the wire format's 9e15 range; as_int is exact.
        assert_eq!(int("9000000000000000"), Some(9_000_000_000_000_000));
        assert_eq!(int("9000000000000001"), None);
        assert_eq!(int("-9000000000000000"), Some(-9_000_000_000_000_000));
        assert_eq!(int("-9000000000000001"), None);
        // The extremes of i128 are exact literals, but far outside the range.
        assert_eq!(int(&i128::MIN.to_string()), None);
        assert_eq!(int(&i128::MAX.to_string()), None);
        assert_eq!(
            parse(&i128::MIN.to_string()).unwrap().as_int::<i128>(),
            Some(i128::MIN)
        );
        assert_eq!(
            parse("9007199254740993").unwrap().as_int::<i128>(),
            Some(9_007_199_254_740_993)
        );
        assert_eq!(parse("1e5").unwrap().as_int::<i128>(), None);
        // Beyond i128 the literal is still a number, just not an exact one.
        let huge = parse(&"1".repeat(50)).unwrap();
        assert_eq!((huge.as_int::<i128>(), huge.as_i64()), (None, None));
        assert!(huge.as_f64().unwrap() > 1e49);
        for ok in ["0.5", "1.25e-3", "1E+2", "10e0"] {
            assert!(parse(ok).is_ok(), "{ok}");
        }
        for bad in [
            "+1", ".5", "1.", "01", "-01", "-", "1e", "1e+", "1.e3", "--1", "1-2",
        ] {
            assert!(
                parse(bad).unwrap_err().starts_with("invalid number"),
                "{bad}"
            );
        }
        assert_eq!(
            parse("[1,+1]").unwrap_err(),
            "invalid number \"+1\" at byte 3"
        );
    }

    #[test]
    fn error_messages_name_the_byte() {
        for (bad, err) in [
            ("", "unexpected end of input"),
            ("{\"a\":1} x", "trailing characters at byte 8"),
            ("{\"a\" 1}", "expected ':' at byte 5"),
            ("{\"a\":1,}", "expected '\"' at byte 7"),
            ("[1 2]", "expected ',' or ']' at byte 3"),
            ("{\"a\":1 2}", "expected ',' or '}' at byte 7"),
            ("nul", "invalid literal at byte 0"),
            ("\"abc", "unterminated string"),
            ("\"a\\", "unterminated escape"),
            ("\"\\q\"", "invalid escape at byte 2"),
            ("\"\\u12\"", "truncated \\u escape"),
            ("\"\\u12zz\"", "invalid \\u escape"),
        ] {
            assert_eq!(parse(bad).unwrap_err(), err, "{bad}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#""a\"b\\c\ndA\/\u0041\ud800""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA/A\u{FFFD}"));
        assert_eq!(escape("a\"b\\c\nd\r\t\u{7}"), r#"a\"b\\c\nd\r\t\u0007"#);
        let nasty = "q\"\\\u{1}\n π";
        assert_eq!(
            parse(&format!("\"{}\"", escape(nasty))).unwrap().as_str(),
            Some(nasty)
        );
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let err = parse(&"[".repeat(1 << 20)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
    }

    #[test]
    fn a_4_mib_string_parses_in_linear_time() {
        let doc = format!("{{\"id\":\"{}\"}}", "a\\\"é".repeat(1 << 20));
        let t0 = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        let s = v.get("id").unwrap().as_str().unwrap();
        assert_eq!((s.len(), &s[..4]), (4 << 20, "a\"é"));
        // Linear scanning takes milliseconds; rescanning the tail per
        // character would take minutes.
        assert!(t0.elapsed().as_secs() < 10, "{:?}", t0.elapsed());
    }

    #[test]
    fn json_object_renders_fields_in_order() {
        let line = json_object(&[
            ("ev", JsonValue::Str("op_\"x\"".into())),
            ("node", JsonValue::U64(3)),
            ("t", JsonValue::I64(-2)),
            ("forced", JsonValue::Bool(false)),
        ]);
        assert_eq!(line, r#"{"ev":"op_\"x\"","node":3,"t":-2,"forced":false}"#);
        assert_eq!(json_object(&[]), "{}");
    }
}
