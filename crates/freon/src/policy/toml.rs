//! A minimal TOML reader/writer over the workspace's `serde` stand-in.
//!
//! The build environment has no crates.io access, so — exactly like the
//! `serde_json` shim — this module renders a [`serde::Value`] tree to
//! TOML text and parses TOML text back into one. It covers the subset
//! policy specs need (and that the writer emits), which is most of
//! everyday TOML:
//!
//! * top-level and nested tables (`[gains]`), arrays of tables
//!   (`[[rule]]`), and dotted headers (`[a.b]`);
//! * bare and quoted keys; basic `"…"` strings with the common escapes;
//! * integers, floats, booleans, single- and multi-line arrays, and
//!   inline tables `{ a = 1 }`;
//! * `#` comments and blank lines.
//!
//! Not covered: datetimes, literal/multiline strings, and integer
//! formats beyond decimal — none of which appear in policy files.

use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// A TOML parse or render failure, with a 1-based line number when the
/// input text is at fault.
#[derive(Debug, Clone, PartialEq)]
pub struct TomlError {
    message: String,
    line: Option<usize>,
}

impl TomlError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        TomlError {
            message: message.into(),
            line: Some(line),
        }
    }

    fn msg(message: impl Into<String>) -> Self {
        TomlError {
            message: message.into(),
            line: None,
        }
    }
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(f, "toml error (line {line}): {}", self.message),
            None => write!(f, "toml error: {}", self.message),
        }
    }
}

impl std::error::Error for TomlError {}

impl From<serde::DeError> for TomlError {
    fn from(e: serde::DeError) -> Self {
        TomlError::msg(e.0)
    }
}

/// Deserializes a value from TOML text.
///
/// # Errors
///
/// Returns a [`TomlError`] naming the offending line for syntax
/// problems, or the shape mismatch for deserialization problems.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, TomlError> {
    let value = Parser::new(text).parse()?;
    T::from_value(&value).map_err(TomlError::from)
}

/// Serializes a value to TOML text.
///
/// # Errors
///
/// Returns a [`TomlError`] when the value tree has a shape TOML cannot
/// express at the top level (anything but an object).
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, TomlError> {
    let tree = value.to_value();
    let mut out = String::new();
    match &tree {
        Value::Obj(_) => write_table(&tree, &mut out, &[]),
        other => {
            return Err(TomlError::msg(format!(
                "top level must be a table, got {other:?}"
            )))
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    lines: Vec<&'a str>,
    /// Current physical line (0-based) for error reporting.
    index: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            lines: text.lines().collect(),
            index: 0,
        }
    }

    fn parse(&mut self) -> Result<Value, TomlError> {
        let mut root = Value::Obj(Vec::new());
        // Path of the table currently receiving `key = value` lines, and
        // whether the last segment addresses an array-of-tables element.
        let mut current: Vec<String> = Vec::new();
        let mut in_array_table = false;

        while self.index < self.lines.len() {
            let lineno = self.index + 1;
            let line = strip_comment(self.lines[self.index]).trim().to_string();
            self.index += 1;
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix("[[") {
                let header = header
                    .strip_suffix("]]")
                    .ok_or_else(|| TomlError::at(lineno, "unterminated [[table]] header"))?;
                current = parse_key_path(header, lineno)?;
                in_array_table = true;
                push_array_element(&mut root, &current, lineno)?;
            } else if let Some(header) = line.strip_prefix('[') {
                let header = header
                    .strip_suffix(']')
                    .ok_or_else(|| TomlError::at(lineno, "unterminated [table] header"))?;
                current = parse_key_path(header, lineno)?;
                in_array_table = false;
                ensure_table(&mut root, &current, lineno)?;
            } else {
                let eq = find_unquoted(&line, '=').ok_or_else(|| {
                    TomlError::at(lineno, format!("expected `key = value`, got `{line}`"))
                })?;
                let key_text = line[..eq].trim();
                let mut value_text = line[eq + 1..].trim().to_string();
                // Arrays and inline tables may continue over lines until
                // their brackets balance.
                while !brackets_balanced(&value_text) {
                    let next = self.lines.get(self.index).ok_or_else(|| {
                        TomlError::at(lineno, "unterminated array or inline table")
                    })?;
                    value_text.push(' ');
                    value_text.push_str(strip_comment(next).trim());
                    self.index += 1;
                }
                let mut path = current.clone();
                path.extend(parse_key_path(key_text, lineno)?);
                let value = parse_scalar(&value_text, lineno)?;
                insert(&mut root, &path, in_array_table, value, lineno)?;
            }
        }
        Ok(root)
    }
}

/// Removes a trailing `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    match find_unquoted(line, '#') {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Finds the first `needle` outside double-quoted strings.
fn find_unquoted(line: &str, needle: char) -> Option<usize> {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
        } else if c == '"' {
            in_string = true;
        } else if c == needle {
            return Some(i);
        }
    }
    None
}

/// Whether every `[`/`{` opened outside strings has been closed.
fn brackets_balanced(text: &str) -> bool {
    let mut depth = 0i64;
    let mut in_string = false;
    let mut escaped = false;
    for c in text.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
        } else {
            match c {
                '"' => in_string = true,
                '[' | '{' => depth += 1,
                ']' | '}' => depth -= 1,
                _ => {}
            }
        }
    }
    depth <= 0
}

/// Splits a (possibly dotted, possibly quoted) key into its segments.
fn parse_key_path(text: &str, lineno: usize) -> Result<Vec<String>, TomlError> {
    let mut segments = Vec::new();
    let mut rest = text.trim();
    if rest.is_empty() {
        return Err(TomlError::at(lineno, "empty key"));
    }
    loop {
        rest = rest.trim_start();
        let (segment, tail) = if let Some(stripped) = rest.strip_prefix('"') {
            let close = stripped
                .find('"')
                .ok_or_else(|| TomlError::at(lineno, "unterminated quoted key"))?;
            (
                stripped[..close].to_string(),
                stripped[close + 1..].trim_start(),
            )
        } else {
            let end = rest.find('.').unwrap_or(rest.len());
            (rest[..end].trim().to_string(), &rest[end..])
        };
        if segment.is_empty() {
            return Err(TomlError::at(
                lineno,
                format!("empty key segment in `{text}`"),
            ));
        }
        segments.push(segment);
        let tail = tail.trim_start();
        if tail.is_empty() {
            return Ok(segments);
        }
        rest = tail.strip_prefix('.').ok_or_else(|| {
            TomlError::at(
                lineno,
                format!("expected `.` between key segments in `{text}`"),
            )
        })?;
    }
}

/// Parses one TOML value (scalar, array, or inline table).
fn parse_scalar(text: &str, lineno: usize) -> Result<Value, TomlError> {
    let text = text.trim();
    if text.is_empty() {
        return Err(TomlError::at(lineno, "missing value"));
    }
    if let Some(stripped) = text.strip_prefix('"') {
        return parse_string(stripped, lineno);
    }
    if text == "true" {
        return Ok(Value::Bool(true));
    }
    if text == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(inner) = text.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| TomlError::at(lineno, "unterminated array"))?;
        let mut items = Vec::new();
        for piece in split_top_level(inner, lineno)? {
            items.push(parse_scalar(&piece, lineno)?);
        }
        return Ok(Value::Arr(items));
    }
    if let Some(inner) = text.strip_prefix('{') {
        let inner = inner
            .strip_suffix('}')
            .ok_or_else(|| TomlError::at(lineno, "unterminated inline table"))?;
        let mut entries = Vec::new();
        for piece in split_top_level(inner, lineno)? {
            let eq = find_unquoted(&piece, '=').ok_or_else(|| {
                TomlError::at(
                    lineno,
                    format!("expected `key = value` in inline table, got `{piece}`"),
                )
            })?;
            let key = parse_key_path(piece[..eq].trim(), lineno)?;
            if key.len() != 1 {
                return Err(TomlError::at(
                    lineno,
                    "dotted keys in inline tables are not supported",
                ));
            }
            entries.push((
                key[0].clone(),
                parse_scalar(piece[eq + 1..].trim(), lineno)?,
            ));
        }
        return Ok(Value::Obj(entries));
    }
    let cleaned = text.replace('_', "");
    cleaned
        .parse::<f64>()
        .map(Value::Num)
        .map_err(|_| TomlError::at(lineno, format!("unrecognized value `{text}`")))
}

/// Parses the remainder of a basic string (after the opening quote).
fn parse_string(rest: &str, lineno: usize) -> Result<Value, TomlError> {
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                let tail: String = chars.collect();
                if !tail.trim().is_empty() {
                    return Err(TomlError::at(
                        lineno,
                        format!("trailing characters after string: `{tail}`"),
                    ));
                }
                return Ok(Value::Str(out));
            }
            '\\' => match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('r') => out.push('\r'),
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                other => {
                    return Err(TomlError::at(
                        lineno,
                        format!("unsupported escape `\\{}`", other.unwrap_or(' ')),
                    ))
                }
            },
            other => out.push(other),
        }
    }
    Err(TomlError::at(lineno, "unterminated string"))
}

/// Splits `a, b, c` on top-level commas (outside strings and brackets).
fn split_top_level(text: &str, _lineno: usize) -> Result<Vec<String>, TomlError> {
    let mut pieces = Vec::new();
    let mut depth = 0i64;
    let mut in_string = false;
    let mut escaped = false;
    let mut start = 0usize;
    for (i, c) in text.char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '[' | '{' => depth += 1,
            ']' | '}' => depth -= 1,
            ',' if depth == 0 => {
                pieces.push(text[start..i].trim().to_string());
                start = i + 1;
            }
            _ => {}
        }
    }
    let last = text[start..].trim();
    if !last.is_empty() {
        pieces.push(last.to_string());
    }
    pieces.retain(|p| !p.is_empty());
    Ok(pieces)
}

/// Navigates (creating) nested objects down `path`, following the last
/// element of any array-of-tables encountered on the way.
fn descend<'v>(
    root: &'v mut Value,
    path: &[String],
    lineno: usize,
) -> Result<&'v mut Value, TomlError> {
    let mut node = root;
    for segment in path {
        // Arrays of tables: descend into the most recent element.
        if matches!(node, Value::Arr(_)) {
            let Value::Arr(items) = node else {
                unreachable!()
            };
            node = items
                .last_mut()
                .ok_or_else(|| TomlError::at(lineno, "internal: empty array of tables"))?;
        }
        let Value::Obj(entries) = node else {
            return Err(TomlError::at(
                lineno,
                format!("`{segment}` addresses a non-table value"),
            ));
        };
        if !entries.iter().any(|(k, _)| k == segment) {
            entries.push((segment.clone(), Value::Obj(Vec::new())));
        }
        node = entries
            .iter_mut()
            .find(|(k, _)| k == segment)
            .map(|(_, v)| v)
            .expect("just inserted");
    }
    if matches!(node, Value::Arr(_)) {
        let Value::Arr(items) = node else {
            unreachable!()
        };
        node = items
            .last_mut()
            .ok_or_else(|| TomlError::at(lineno, "internal: empty array of tables"))?;
    }
    Ok(node)
}

fn ensure_table(root: &mut Value, path: &[String], lineno: usize) -> Result<(), TomlError> {
    descend(root, path, lineno).map(|_| ())
}

fn push_array_element(root: &mut Value, path: &[String], lineno: usize) -> Result<(), TomlError> {
    let (last, parents) = path
        .split_last()
        .ok_or_else(|| TomlError::at(lineno, "empty [[table]] header"))?;
    let parent = descend(root, parents, lineno)?;
    let Value::Obj(entries) = parent else {
        return Err(TomlError::at(
            lineno,
            "array-of-tables parent is not a table",
        ));
    };
    match entries.iter_mut().find(|(k, _)| k == last) {
        Some((_, Value::Arr(items))) => items.push(Value::Obj(Vec::new())),
        Some(_) => {
            return Err(TomlError::at(
                lineno,
                format!("`{last}` is already a non-array value"),
            ));
        }
        None => entries.push((last.clone(), Value::Arr(vec![Value::Obj(Vec::new())]))),
    }
    Ok(())
}

fn insert(
    root: &mut Value,
    path: &[String],
    via_array: bool,
    value: Value,
    lineno: usize,
) -> Result<(), TomlError> {
    let _ = via_array;
    let (last, parents) = path
        .split_last()
        .ok_or_else(|| TomlError::at(lineno, "empty key"))?;
    let parent = descend(root, parents, lineno)?;
    let Value::Obj(entries) = parent else {
        return Err(TomlError::at(
            lineno,
            format!("cannot set `{last}` on a non-table"),
        ));
    };
    if entries
        .iter()
        .any(|(k, v)| k == last && !matches!(v, Value::Obj(o) if o.is_empty()))
    {
        return Err(TomlError::at(lineno, format!("duplicate key `{last}`")));
    }
    entries.retain(|(k, _)| k != last);
    entries.push((last.clone(), value));
    Ok(())
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn is_table(v: &Value) -> bool {
    matches!(v, Value::Obj(_))
}

fn is_array_of_tables(v: &Value) -> bool {
    matches!(v, Value::Arr(items) if !items.is_empty() && items.iter().all(is_table))
}

fn write_table(table: &Value, out: &mut String, path: &[&str]) {
    let Value::Obj(entries) = table else { return };
    // Scalar keys first, then sub-tables, then arrays of tables — so the
    // emitted file parses back into the same tree.
    for (key, value) in entries {
        if !is_table(value) && !is_array_of_tables(value) {
            out.push_str(&format!("{} = {}\n", write_key(key), write_inline(value)));
        }
    }
    for (key, value) in entries {
        if is_table(value) {
            let mut sub = path.to_vec();
            sub.push(key);
            out.push_str(&format!("\n[{}]\n", sub.join(".")));
            write_table(value, out, &sub);
        }
    }
    for (key, value) in entries {
        if is_array_of_tables(value) {
            let Value::Arr(items) = value else {
                unreachable!()
            };
            let mut sub = path.to_vec();
            sub.push(key);
            for item in items {
                out.push_str(&format!("\n[[{}]]\n", sub.join(".")));
                write_table(item, out, &sub);
            }
        }
    }
}

fn write_key(key: &str) -> String {
    let bare = !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
    if bare {
        key.to_string()
    } else {
        write_inline(&Value::Str(key.to_string()))
    }
}

fn write_inline(v: &Value) -> String {
    match v {
        Value::Null => "\"\"".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Num(n) => {
            if n.fract() == 0.0 && n.is_finite() && n.abs() < 9.0e15 {
                // TOML distinguishes ints and floats; our Value does not.
                // Integers stay integers; spec floats that happen to be
                // whole numbers read back identically either way.
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }
        }
        Value::Str(s) => {
            let mut out = String::from("\"");
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    other => out.push(other),
                }
            }
            out.push('"');
            out
        }
        Value::Arr(items) => {
            let inner: Vec<String> = items.iter().map(write_inline).collect();
            format!("[{}]", inner.join(", "))
        }
        Value::Obj(entries) => {
            let inner: Vec<String> = entries
                .iter()
                .map(|(k, v)| format!("{} = {}", write_key(k), write_inline(v)))
                .collect();
            format!("{{ {} }}", inner.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_arrays_and_scalars() {
        let text = r#"
            # a policy-ish document
            name = "freon"   # trailing comment
            check_period_s = 60
            caps = true

            [gains]
            kp = 0.1
            kd = 0.2

            [[rule]]
            trigger = "above_high"
            action = "throttle"

            [[rule]]
            trigger = "below_low"
            action = "release"
        "#;
        let v = from_str::<Value>(text).unwrap();
        assert_eq!(v.get("name"), Some(&Value::Str("freon".into())));
        assert_eq!(v.get("check_period_s"), Some(&Value::Num(60.0)));
        assert_eq!(v.get("caps"), Some(&Value::Bool(true)));
        assert_eq!(v.get("gains").unwrap().get("kp"), Some(&Value::Num(0.1)));
        let Value::Arr(rules) = v.get("rule").unwrap() else {
            panic!("rules should be an array")
        };
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[1].get("action"), Some(&Value::Str("release".into())));
    }

    #[test]
    fn parses_multiline_arrays_and_inline_tables() {
        let text =
            "regions = [0, 1,\n  0, 1]\npoint = { x = 1, y = -2.5 }\nwords = [\"a\", \"b,c\"]\n";
        let v = from_str::<Value>(text).unwrap();
        assert_eq!(
            v.get("regions"),
            Some(&Value::Arr(vec![
                Value::Num(0.0),
                Value::Num(1.0),
                Value::Num(0.0),
                Value::Num(1.0)
            ]))
        );
        assert_eq!(v.get("point").unwrap().get("y"), Some(&Value::Num(-2.5)));
        let Value::Arr(words) = v.get("words").unwrap() else {
            panic!()
        };
        assert_eq!(words[1], Value::Str("b,c".into()));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = from_str::<Value>("ok = 1\nnot a kv line\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = from_str::<Value>("x = \"unterminated\n").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        assert!(from_str::<Value>("dup = 1\ndup = 2\n").is_err());
    }

    #[test]
    fn writer_round_trips_spec_shaped_trees() {
        let tree = Value::Obj(vec![
            ("name".into(), Value::Str("load-shed".into())),
            ("period".into(), Value::Num(60.0)),
            (
                "gains".into(),
                Value::Obj(vec![
                    ("kp".into(), Value::Num(0.1)),
                    ("kd".into(), Value::Num(0.2)),
                ]),
            ),
            (
                "rule".into(),
                Value::Arr(vec![
                    Value::Obj(vec![
                        ("trigger".into(), Value::Str("above_high".into())),
                        ("factor".into(), Value::Num(0.5)),
                    ]),
                    Value::Obj(vec![("trigger".into(), Value::Str("below_low".into()))]),
                ]),
            ),
        ]);
        let text = to_string(&tree).unwrap();
        let back = from_str::<Value>(&text).unwrap();
        assert_eq!(back, tree, "round-trip failed for:\n{text}");
    }

    #[test]
    fn strings_with_specials_round_trip() {
        let tree = Value::Obj(vec![(
            "s".into(),
            Value::Str("a \"quoted\" piece, with\nnewline # not a comment".into()),
        )]);
        let text = to_string(&tree).unwrap();
        assert_eq!(from_str::<Value>(&text).unwrap(), tree);
    }
}
