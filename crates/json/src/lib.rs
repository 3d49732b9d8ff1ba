//! Minimal JSON reader for sweep and campaign scenario files.
//!
//! The build environment has no crates.io access, so instead of serde
//! this is a small recursive-descent parser covering exactly the JSON
//! subset the scenario schema needs: objects, arrays, strings, numbers,
//! booleans, and null. Objects preserve key order (determinism: a spec
//! echoes back exactly as written).
//!
//! Every spec parser reads its objects through one key-checked reader:
//! [`Json::obj`] is the only way to get an [`Obj`], and it rejects any
//! key outside the block's schema, so a misspelt knob is a load-time
//! [`Error`], never a silent no-op. The typed getters on [`Obj`] return
//! `Ok(None)` for an absent key and an error naming the block path
//! (`scenarios[0].traffic.phases[1]`) and the key for a value of the
//! wrong type or out of range, so a bad value never reads as the default.
//!
//! It also holds the workspace's one text printer, [`put`] and [`say`]:
//! every binary that reads a spec or a scenario file prints through it.

// no-panic (DESIGN.md §10): bad input is a counted or typed error, never a crash.
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use std::fmt;
use std::io::Write;
use std::ops::{Bound, RangeBounds};

/// Text to stdout, newline-terminated. A reader that leaves early
/// (`repro … | head -1`) closes stdout; that is no reason to panic: the
/// files are written and the exit code stands.
pub fn put(msg: &str) {
    let _ = writeln!(std::io::stdout(), "{msg}");
}

/// Text to stderr, newline-terminated; a closed stderr is ignored as
/// [`put`] ignores a closed stdout.
pub fn say(msg: &str) {
    let _ = writeln!(std::io::stderr(), "{msg}");
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always held as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Number as `u64` (rejects negatives and fractions).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// Boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Read this value as the object at `path` (`""` is the document
    /// root), rejecting any key outside `keys`.
    pub fn obj<'a>(
        &'a self,
        path: impl Into<String>,
        keys: &'static [&'static str],
    ) -> Result<Obj<'a>, Error> {
        let path = path.into();
        let Json::Obj(fields) = self else {
            return Err(Error {
                path,
                kind: ErrorKind::NotObject,
            });
        };
        if let Some((key, _)) = fields.iter().find(|(k, _)| !keys.contains(&k.as_str())) {
            let key = key.clone();
            return Err(Error {
                path,
                kind: ErrorKind::UnknownKey { key, allowed: keys },
            });
        }
        Ok(Obj { path, fields })
    }
}

/// Why a spec block was rejected, and where.
#[derive(Clone, Debug, PartialEq)]
pub struct Error {
    /// Path of the block (`""` = the document root, `faults.flaps[1]`).
    pub path: String,
    /// What is wrong with it.
    pub kind: ErrorKind,
}

/// What an [`Error`] found wrong.
#[derive(Clone, Debug, PartialEq)]
pub enum ErrorKind {
    /// The block is not an object.
    NotObject,
    /// A key outside the block's schema.
    UnknownKey {
        /// The offending key.
        key: String,
        /// The keys the block may hold.
        allowed: &'static [&'static str],
    },
    /// A required key is absent.
    Missing(String),
    /// A value of the wrong JSON type.
    WrongType {
        /// The key.
        key: String,
        /// What it must be (`"a number"`).
        want: &'static str,
    },
    /// A value outside its range.
    OutOfRange {
        /// The key.
        key: String,
        /// What it must be (`"a number in [0, 1]"`).
        want: String,
    },
    /// An infinite number (an overflowing literal such as `1e999`) where
    /// a finite one is required.
    NotFinite(String),
    /// Any other rule of the block, in the spec parser's words.
    Invalid(String),
}

impl Error {
    /// An [`ErrorKind::Invalid`] error at `path`.
    pub fn invalid(path: impl Into<String>, msg: impl Into<String>) -> Error {
        Error {
            path: path.into(),
            kind: ErrorKind::Invalid(msg.into()),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let at = if self.path.is_empty() {
            "spec"
        } else {
            &self.path
        };
        match &self.kind {
            ErrorKind::NotObject => write!(f, "{at} must be an object"),
            ErrorKind::UnknownKey { key, allowed } => write!(
                f,
                "{at}: unknown key {key:?} (allowed: {})",
                allowed.join(", ")
            ),
            ErrorKind::Missing(key) => write!(f, "{at}: {key:?} is required"),
            ErrorKind::WrongType { key, want } => write!(f, "{at}: {key:?} must be {want}"),
            ErrorKind::OutOfRange { key, want } => write!(f, "{at}: {key:?} must be {want}"),
            ErrorKind::NotFinite(key) => write!(f, "{at}: {key:?} must be finite"),
            ErrorKind::Invalid(msg) => write!(f, "{at}: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

/// The range `(0, ∞)`, for [`Obj::f64`].
pub const POSITIVE: (Bound<f64>, Bound<f64>) = (Bound::Excluded(0.0), Bound::Unbounded);

/// An object whose keys passed [`Json::obj`]'s schema check, with the
/// path it sits at.
#[derive(Debug)]
pub struct Obj<'a> {
    path: String,
    fields: &'a [(String, Json)],
}

impl<'a> Obj<'a> {
    /// The block's path (`""` = the document root).
    pub fn path(&self) -> &str {
        &self.path
    }

    /// An [`ErrorKind::Invalid`] error at this block.
    pub fn err(&self, msg: impl Into<String>) -> Error {
        Error::invalid(self.path.clone(), msg)
    }

    fn error(&self, kind: ErrorKind) -> Error {
        Error {
            path: self.path.clone(),
            kind,
        }
    }

    /// The raw value under `key`.
    pub fn get(&self, key: &str) -> Option<&'a Json> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// `value`, or an [`ErrorKind::Missing`] error naming `key`.
    pub fn need<T>(&self, key: &str, value: Option<T>) -> Result<T, Error> {
        value.ok_or_else(|| self.error(ErrorKind::Missing(key.to_string())))
    }

    fn typed<T>(
        &self,
        key: &str,
        want: &'static str,
        conv: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<Option<T>, Error> {
        self.get(key)
            .map(|v| {
                conv(v).ok_or_else(|| {
                    self.error(ErrorKind::WrongType {
                        key: key.to_string(),
                        want,
                    })
                })
            })
            .transpose()
    }

    fn out_of_range<T: fmt::Display>(
        &self,
        key: &str,
        what: &str,
        range: &impl RangeBounds<T>,
    ) -> Error {
        self.error(ErrorKind::OutOfRange {
            key: key.to_string(),
            want: format!("{what}{}", describe(range)),
        })
    }

    /// A string.
    pub fn str(&self, key: &str) -> Result<Option<&'a str>, Error> {
        self.typed(key, "a string", Json::as_str)
    }

    /// A boolean.
    pub fn bool(&self, key: &str) -> Result<Option<bool>, Error> {
        self.typed(key, "a boolean", Json::as_bool)
    }

    /// A non-negative integer in `range`; one that does not fit `T` is
    /// out of range.
    pub fn int<T>(&self, key: &str, range: impl RangeBounds<T>) -> Result<Option<T>, Error>
    where
        T: TryFrom<u64> + PartialOrd + fmt::Display,
    {
        match self
            .typed(key, "an integer", Json::as_u64)?
            .map(T::try_from)
        {
            None => Ok(None),
            Some(Ok(n)) if range.contains(&n) => Ok(Some(n)),
            Some(_) => Err(self.out_of_range(key, "an integer", &range)),
        }
    }

    /// A number in `range`. An overflowing literal (`1e999`) reads as
    /// infinity, which a range open at that end accepts.
    pub fn num(&self, key: &str, range: impl RangeBounds<f64>) -> Result<Option<f64>, Error> {
        match self.typed(key, "a number", Json::as_f64)? {
            Some(x) if !range.contains(&x) => Err(self.out_of_range(key, "a number", &range)),
            x => Ok(x),
        }
    }

    /// A finite number in `range`.
    pub fn f64(&self, key: &str, range: impl RangeBounds<f64>) -> Result<Option<f64>, Error> {
        match self.num(key, ..)? {
            Some(x) if !x.is_finite() => Err(self.error(ErrorKind::NotFinite(key.to_string()))),
            Some(x) if !range.contains(&x) => Err(self.out_of_range(key, "a number", &range)),
            x => Ok(x),
        }
    }

    /// The object under `key`, checked against `keys`.
    pub fn obj(&self, key: &str, keys: &'static [&'static str]) -> Result<Option<Obj<'a>>, Error> {
        self.get(key)
            .map(|v| v.obj(join(&self.path, key), keys))
            .transpose()
    }

    /// The array under `key`, each element read by `item`, which gets
    /// the element and its path (`key[i]`).
    pub fn items<T>(
        &self,
        key: &str,
        mut item: impl FnMut(&'a Json, String) -> Result<T, Error>,
    ) -> Result<Option<Vec<T>>, Error> {
        let Some(arr) = self.typed(key, "an array", Json::as_arr)? else {
            return Ok(None);
        };
        let path = join(&self.path, key);
        arr.iter()
            .enumerate()
            .map(|(i, v)| item(v, format!("{path}[{i}]")))
            .collect::<Result<_, _>>()
            .map(Some)
    }

    /// [`Obj::items`] for an array that, when present, must not be empty.
    pub fn nonempty<T>(
        &self,
        key: &str,
        item: impl FnMut(&'a Json, String) -> Result<T, Error>,
    ) -> Result<Option<Vec<T>>, Error> {
        match self.items(key, item)? {
            Some(v) if v.is_empty() => Err(self.error(ErrorKind::OutOfRange {
                key: key.to_string(),
                want: "a non-empty array".to_string(),
            })),
            v => Ok(v),
        }
    }
}

/// The path of `key` inside the block at `path`.
fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// `range` in words, after "a number" / "an integer": `" in [0, 1]"`,
/// `" > 0"`, or nothing for `..`.
fn describe<T: fmt::Display>(range: &impl RangeBounds<T>) -> String {
    let lo = match range.start_bound() {
        Bound::Included(a) => Some(("[", ">=", a)),
        Bound::Excluded(a) => Some(("(", ">", a)),
        Bound::Unbounded => None,
    };
    let hi = match range.end_bound() {
        Bound::Included(b) => Some(("]", "<=", b)),
        Bound::Excluded(b) => Some((")", "<", b)),
        Bound::Unbounded => None,
    };
    match (lo, hi) {
        (Some((open, _, a)), Some((close, _, b))) => format!(" in {open}{a}, {b}{close}"),
        (Some((_, op, x)), None) | (None, Some((_, op, x))) => format!(" {op} {x}"),
        (None, None) => String::new(),
    }
}

/// Deepest nesting [`parse`] accepts, far above any spec in
/// `scenarios/`. The parser recurses per level, so an unbounded document
/// would end in a stack overflow instead of an error.
pub const MAX_DEPTH: usize = 64;

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nested deeper than {MAX_DEPTH} levels at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_obj(b, pos, depth + 1),
        Some(b'[') => parse_arr(b, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 sequences pass through unchanged.
                let len = utf8_len(c);
                let chunk = b.get(*pos..*pos + len).ok_or("truncated UTF-8 sequence")?;
                out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                *pos += len;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(b, pos, depth)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

/// Escape a string for embedding in JSON output.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_scenario_shape() {
        let doc = r#"{
            "name": "smoke",
            "runtimes": ["spdk", "opf"],
            "speeds": [10, 100],
            "ratios": [[1, 4], [2, 2]],
            "warmup_s": 0.05,
            "nested": {"a": true, "b": null}
        }"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("smoke"));
        assert_eq!(v.get("runtimes").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(
            v.get("speeds").unwrap().as_arr().unwrap()[1].as_u64(),
            Some(100)
        );
        let r = v.get("ratios").unwrap().as_arr().unwrap();
        assert_eq!(r[0].as_arr().unwrap()[1].as_u64(), Some(4));
        assert_eq!(v.get("warmup_s").unwrap().as_f64(), Some(0.05));
        assert_eq!(v.get("nested").unwrap().get("a"), Some(&Json::Bool(true)));
        assert_eq!(v.get("nested").unwrap().get("b"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nested deeper than 64"), "{err}");
        // Unclosed and deep enough to overflow the stack if recursed into.
        for open in ["[", "{\"a\":"] {
            let err = parse(&open.repeat(100_000)).unwrap_err();
            assert!(err.contains("nested deeper than"), "{err}");
        }
    }

    #[test]
    fn obj_rejects_unknown_keys_and_non_objects() {
        let doc = parse(r#"{"a": 1, "typo": 2}"#).unwrap();
        let err = doc.obj("blk", &["a"]).unwrap_err();
        assert_eq!(err.path, "blk");
        assert!(matches!(&err.kind, ErrorKind::UnknownKey { key, .. } if key == "typo"));
        assert_eq!(err.to_string(), r#"blk: unknown key "typo" (allowed: a)"#);
        assert_eq!(
            parse("[1]").unwrap().obj("", &[]).unwrap_err().to_string(),
            "spec must be an object"
        );
    }

    #[test]
    fn getters_type_and_range_check_with_paths() {
        let doc = parse(
            r#"{"n": 3, "f": 0.5, "inf": 1e999, "s": "x", "b": true,
                "o": {"xs": [{"k": 1}, {"k": -1}]}}"#,
        )
        .unwrap();
        let o = doc
            .obj("", &["n", "f", "inf", "s", "b", "o", "gone"])
            .unwrap();
        assert_eq!(o.int::<u64>("n", 1..=3), Ok(Some(3)));
        assert_eq!(o.int::<u8>("gone", ..), Ok(None));
        assert_eq!(o.str("s"), Ok(Some("x")));
        assert_eq!(o.bool("b"), Ok(Some(true)));
        assert_eq!(o.f64("f", POSITIVE), Ok(Some(0.5)));
        assert_eq!(o.num("inf", 0.0..), Ok(Some(f64::INFINITY)));
        for (err, want) in [
            (
                o.int::<u64>("n", 4..).unwrap_err(),
                r#""n" must be an integer >= 4"#,
            ),
            (
                o.int::<u8>("n", 0..=2).unwrap_err(),
                r#""n" must be an integer in [0, 2]"#,
            ),
            (
                o.int::<u64>("f", ..).unwrap_err(),
                r#""f" must be an integer"#,
            ),
            (
                o.f64("f", 1.0..).unwrap_err(),
                r#""f" must be a number >= 1"#,
            ),
            (
                o.f64("f", (Bound::Excluded(0.5), Bound::Included(1.0)))
                    .unwrap_err(),
                r#""f" must be a number in (0.5, 1]"#,
            ),
            (o.f64("inf", ..).unwrap_err(), r#""inf" must be finite"#),
            (o.f64("s", ..).unwrap_err(), r#""s" must be a number"#),
            (o.str("n").unwrap_err(), r#""n" must be a string"#),
            (o.bool("n").unwrap_err(), r#""n" must be a boolean"#),
            (
                o.need::<u8>("gone", None).unwrap_err(),
                r#""gone" is required"#,
            ),
        ] {
            assert_eq!(err.to_string(), format!("spec: {want}"));
        }
        let inner = o.obj("o", &["xs"]).unwrap().unwrap();
        let err = inner
            .nonempty("xs", |v, at| v.obj(at, &["k"])?.int::<u64>("k", ..))
            .unwrap_err();
        assert_eq!(err.to_string(), r#"o.xs[1]: "k" must be an integer"#);
        let empty = parse(r#"{"xs": []}"#).unwrap();
        let e = empty.obj("", &["xs"]).unwrap();
        assert_eq!(e.items("xs", |_, _| Ok(())), Ok(Some(vec![])));
        assert_eq!(
            e.nonempty("xs", |_, _| Ok(())).unwrap_err().to_string(),
            r#"spec: "xs" must be a non-empty array"#
        );
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = parse(r#""a\"b\\c\nd A""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd A"));
    }

    #[test]
    fn escape_produces_valid_json() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
