//! The result line the driver reads, and a small JSON reader.
//!
//! Hand-rolled because the offline dependency set has no serde. The reader
//! exists for two callers: `--selfcheck`/the all-workloads run parse their
//! child processes' result lines, and a unit test checks `BENCHMARK.json`
//! against the metric tables in `metrics.rs`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    /// Metric name (`[A-Za-z0-9_.-]`, at most 64 characters).
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit (`ms`, `us`, `ns`, `1/s`, `ratio`, `count`, …).
    pub unit: &'static str,
}

/// What one run prints as the last line of its standard output.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every correctness oracle passed.
    pub correct: bool,
    /// Operations attempted (tuple deliveries expected).
    pub attempted: u64,
    /// Operations that failed (missing, duplicated, misordered, failed roots).
    pub failed: u64,
    /// The metrics of this run.
    pub metrics: Vec<Reading>,
}

/// True for names the benchmark contract accepts.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Formats a finite float with all its digits; non-finite values become 0
/// (JSON has no NaN, and a metric that could not be measured reads as 0).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

impl RunResult {
    /// The single-line JSON object of the contract.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            debug_assert!(valid_metric_name(&m.name), "{}", m.name);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// Parses a result line back into `(correct, attempted, failed, name →
    /// (value, unit))`.
    pub fn parse(line: &str) -> Option<ParsedResult> {
        let root = parse(line)?;
        let metrics = root
            .get("metrics")?
            .as_object()?
            .iter()
            .map(|(name, m)| {
                Some((
                    name.clone(),
                    (
                        m.get("value")?.as_f64()?,
                        m.get("unit")?.as_str()?.to_owned(),
                    ),
                ))
            })
            .collect::<Option<BTreeMap<_, _>>>()?;
        Some(ParsedResult {
            correct: root.get("correct")?.as_bool()?,
            attempted: root.get("attempted")?.as_f64()? as u64,
            failed: root.get("failed")?.as_f64()? as u64,
            metrics,
        })
    }
}

/// A result line read back from a child run.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedResult {
    /// Every oracle passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// name → (value, unit).
    pub metrics: BTreeMap<String, (f64, String)>,
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order not preserved).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?.get(key)
    }

    /// The members of an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The items of an array.
    #[cfg(test)]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// A number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// A string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses one JSON document; `None` on any syntax error or trailing text.
pub fn parse(text: &str) -> Option<Json> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value(0)?;
    p.ws();
    (p.i == p.s.len()).then_some(v)
}

/// Nesting bound: the documents read here are two or three levels deep.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Option<()> {
        self.s[self.i..].starts_with(lit.as_bytes()).then(|| {
            self.i += lit.len();
        })
    }

    fn value(&mut self, depth: usize) -> Option<Json> {
        if depth > MAX_DEPTH {
            return None;
        }
        self.ws();
        match *self.s.get(self.i)? {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.eat("}").is_some() {
                    return Some(Json::Obj(m));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.ws();
                    self.eat(":")?;
                    m.insert(k, self.value(depth + 1)?);
                    self.ws();
                    if self.eat(",").is_none() {
                        self.eat("}")?;
                        return Some(Json::Obj(m));
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.eat("]").is_some() {
                    return Some(Json::Arr(v));
                }
                loop {
                    v.push(self.value(depth + 1)?);
                    self.ws();
                    if self.eat(",").is_none() {
                        self.eat("]")?;
                        return Some(Json::Arr(v));
                    }
                }
            }
            b'"' => self.string().map(Json::Str),
            b't' => self.eat("true").map(|()| Json::Bool(true)),
            b'f' => self.eat("false").map(|()| Json::Bool(false)),
            b'n' => self.eat("null").map(|()| Json::Null),
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()?
                    .parse()
                    .ok()
                    .map(Json::Num)
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat("\"")?;
        let mut out = Vec::new();
        loop {
            let c = *self.s.get(self.i)?;
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).ok(),
                b'\\' => {
                    let e = *self.s.get(self.i)?;
                    self.i += 1;
                    match e {
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = std::str::from_utf8(self.s.get(self.i..self.i + 4)?).ok()?;
                            let ch = char::from_u32(u32::from_str_radix(hex, 16).ok()?)?;
                            self.i += 4;
                            out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return None,
                    }
                }
                _ => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let r = RunResult {
            correct: true,
            attempted: 320_000,
            failed: 0,
            metrics: vec![
                Reading {
                    name: "latency_p50_ms".into(),
                    value: 1.2034,
                    unit: "ms",
                },
                Reading {
                    name: "proc.cpu_us.source".into(),
                    value: 0.1 + 0.2, // all the digits survive
                    unit: "us",
                },
                Reading {
                    name: "tuple.encode_ns.big".into(),
                    value: f64::NAN,
                    unit: "ns",
                },
            ],
        };
        let line = r.to_json();
        assert!(!line.contains('\n'));
        let back = RunResult::parse(&line).expect("parses");
        assert!(back.correct);
        assert_eq!((back.attempted, back.failed), (320_000, 0));
        assert_eq!(back.metrics["latency_p50_ms"], (1.2034, "ms".to_owned()));
        assert_eq!(back.metrics["proc.cpu_us.source"].0, 0.1 + 0.2);
        assert_eq!(back.metrics["tuple.encode_ns.big"].0, 0.0, "NaN reads 0");
        assert_eq!(back.metrics.len(), 3);
    }

    #[test]
    fn metric_names_follow_the_contract_charset() {
        for good in [
            "latency_p99_ms",
            "switch.round_ns.group4",
            "a",
            "9lives",
            "x-y",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in ["", ".hidden", "has space", "µs", "a/b", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn reader_handles_nesting_escapes_and_rejects_garbage() {
        let v = parse(r#" {"a": [1, -2.5e3, true, null], "b": {"c": "q\"µ\n"}} "#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 4);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(-2500.0)
        );
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str(),
            Some("q\"\u{b5}\n")
        );
        for bad in ["", "{", "{\"a\" 1}", "[1,]", "{} x", "\"open", "nul"] {
            assert_eq!(parse(bad), None, "{bad:?}");
        }
        assert_eq!(
            parse(&("[".repeat(100) + &"]".repeat(100))),
            None,
            "depth bound"
        );
    }
}
