//! Line-by-line parser for the Prometheus text exposition format.
//!
//! The scrape surface is only useful if its output is well-formed, so
//! the parser is strict: every line must be blank, a `# HELP`/`# TYPE`
//! comment, or a sample of the shape
//!
//! ```text
//! name{label="value",...} value [timestamp]
//! ```
//!
//! Both `mercury-stats` (pretty-printing a live snapshot) and the
//! telemetry integration test (asserting the scrape output is valid)
//! parse through here.

use std::fmt;

/// One parsed sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Metric name as it appears on the line (histograms thus appear as
    /// `<family>_bucket` / `<family>_sum` / `<family>_count`).
    pub name: String,
    /// Label pairs, unescaped, in line order.
    pub labels: Vec<(String, String)>,
    /// Sample value (`+Inf`/`-Inf`/`NaN` accepted).
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    #[must_use]
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A parse failure, with the 1-based line number where it happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "exposition line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a full exposition document, returning every sample line.
///
/// ```
/// let text = "# HELP m_total demo\n# TYPE m_total counter\nm_total{k=\"v\"} 3\n";
/// let samples = telemetry::text::parse_exposition(text).unwrap();
/// assert_eq!(samples[0].name, "m_total");
/// assert_eq!(samples[0].label("k"), Some("v"));
/// assert_eq!(samples[0].value, 3.0);
/// ```
///
/// # Errors
///
/// Returns a [`ParseError`] naming the first malformed line.
pub fn parse_exposition(text: &str) -> Result<Vec<Sample>, ParseError> {
    let mut samples = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            parse_comment(comment, lineno)?;
            continue;
        }
        samples.push(parse_sample(line, lineno)?);
    }
    Ok(samples)
}

/// Validates a comment line: `# HELP <name> <text>` or `# TYPE <name>
/// <counter|gauge|histogram|summary|untyped>`.
fn parse_comment(rest: &str, line: usize) -> Result<(), ParseError> {
    let rest = rest.trim_start();
    let mut parts = rest.splitn(3, ' ');
    let keyword = parts.next().unwrap_or("");
    match keyword {
        "HELP" => {
            let name = parts.next().unwrap_or("");
            if !is_metric_name(name) {
                return Err(ParseError {
                    line,
                    message: format!("HELP names invalid metric {name:?}"),
                });
            }
            Ok(())
        }
        "TYPE" => {
            let name = parts.next().unwrap_or("");
            if !is_metric_name(name) {
                return Err(ParseError {
                    line,
                    message: format!("TYPE names invalid metric {name:?}"),
                });
            }
            let kind = parts.next().unwrap_or("").trim();
            match kind {
                "counter" | "gauge" | "histogram" | "summary" | "untyped" => Ok(()),
                other => Err(ParseError {
                    line,
                    message: format!("unknown TYPE {other:?}"),
                }),
            }
        }
        // Arbitrary comments are legal in the format.
        _ => Ok(()),
    }
}

/// Parses one sample line.
fn parse_sample(line: &str, lineno: usize) -> Result<Sample, ParseError> {
    let err = |message: String| ParseError {
        line: lineno,
        message,
    };
    let name_end = line
        .find(|c: char| c == '{' || c.is_whitespace())
        .ok_or_else(|| err("missing value".to_string()))?;
    let name = &line[..name_end];
    if !is_metric_name(name) {
        return Err(err(format!("invalid metric name {name:?}")));
    }
    let mut rest = &line[name_end..];
    let mut labels = Vec::new();
    if let Some(after_brace) = rest.strip_prefix('{') {
        let close = after_brace
            .find('}')
            .ok_or_else(|| err("unterminated label set".to_string()))?;
        parse_labels(&after_brace[..close], lineno, &mut labels)?;
        rest = &after_brace[close + 1..];
    }
    let mut fields = rest.split_whitespace();
    let value_str = fields
        .next()
        .ok_or_else(|| err("missing value".to_string()))?;
    let value = parse_value(value_str).ok_or_else(|| err(format!("bad value {value_str:?}")))?;
    // Optional timestamp; anything further is malformed.
    if let Some(ts) = fields.next() {
        if ts.parse::<i64>().is_err() {
            return Err(err(format!("bad timestamp {ts:?}")));
        }
    }
    if fields.next().is_some() {
        return Err(err("trailing garbage after timestamp".to_string()));
    }
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Parses the inside of a `{...}` label set.
fn parse_labels(
    body: &str,
    lineno: usize,
    out: &mut Vec<(String, String)>,
) -> Result<(), ParseError> {
    let err = |message: String| ParseError {
        line: lineno,
        message,
    };
    let mut chars = body.chars().peekable();
    loop {
        // Skip separators / trailing comma.
        while matches!(chars.peek(), Some(',') | Some(' ')) {
            chars.next();
        }
        if chars.peek().is_none() {
            return Ok(());
        }
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        let key = key.trim().to_string();
        if !is_label_name(&key) {
            return Err(err(format!("invalid label name {key:?}")));
        }
        if chars.next() != Some('"') {
            return Err(err(format!("label {key:?} value not quoted")));
        }
        let mut value = String::new();
        let mut closed = false;
        while let Some(c) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => return Err(err(format!("bad escape {other:?} in label {key:?}"))),
                },
                '"' => {
                    closed = true;
                    break;
                }
                c => value.push(c),
            }
        }
        if !closed {
            return Err(err(format!("unterminated value for label {key:?}")));
        }
        out.push((key, value));
    }
}

/// Parses a sample value, accepting the format's special floats.
fn parse_value(s: &str) -> Option<f64> {
    match s {
        "+Inf" | "Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        _ => s.parse().ok(),
    }
}

/// `[a-zA-Z_:][a-zA-Z0-9_:]*`
fn is_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// `[a-zA-Z_][a-zA-Z0-9_]*`
fn is_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_and_labelled_samples() {
        let text = "\
# HELP mercury_net_datagrams_total Datagrams received
# TYPE mercury_net_datagrams_total counter
mercury_net_datagrams_total 42
mercury_freon_decisions_total{action=\"throttle\",reason=\"above_high\"} 3
mercury_cluster_tick_seconds_bucket{le=\"+Inf\"} 7 1700000000
";
        let samples = parse_exposition(text).unwrap();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].name, "mercury_net_datagrams_total");
        assert_eq!(samples[0].value, 42.0);
        assert_eq!(samples[1].label("reason"), Some("above_high"));
        assert_eq!(samples[2].value, 7.0);
        assert!(samples[2].value.is_finite());
    }

    #[test]
    fn unescapes_label_values() {
        let samples = parse_exposition("m{k=\"a\\\"b\\\\c\\nd\"} 1\n").unwrap();
        assert_eq!(samples[0].label("k"), Some("a\"b\\c\nd"));
    }

    #[test]
    fn special_values() {
        let s = parse_exposition("m_bucket{le=\"+Inf\"} 3\nm 0.25\nn NaN\n").unwrap();
        assert_eq!(s[0].label("le"), Some("+Inf"));
        assert_eq!(s[1].value, 0.25);
        assert!(s[2].value.is_nan());
    }

    #[test]
    fn rejects_malformed_lines() {
        for (bad, what) in [
            ("1garbage 3", "bad name"),
            ("m{k=\"v\"", "no value"),
            ("m{k=v} 1", "unquoted label"),
            ("m notanumber", "bad value"),
            ("m 1 notatimestamp", "bad timestamp"),
            ("# TYPE m sideways", "bad type"),
        ] {
            let res = parse_exposition(bad);
            assert!(res.is_err(), "{what}: {bad:?} should fail");
            assert_eq!(res.unwrap_err().line, 1, "{what}");
        }
    }

    #[test]
    fn error_reports_line_number() {
        let err = parse_exposition("ok 1\nok 2\nbroken {\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().contains("line 3"));
    }
}
