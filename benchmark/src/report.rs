//! Output: every metric by name with its unit, the provenance, and as the
//! last line of standard output the one JSON object the driver reads.

use crate::run::Outcome;
use std::fmt::Write;

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a percentile or a rate.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples: None,
        }
    }

    pub fn samples(mut self, n: usize) -> Self {
        self.samples = Some(n);
        self
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit measured; non-finite values become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The human-readable part: provenance, gate notes, one line per metric.
pub fn render_log(out: &Outcome) -> String {
    let mut s = String::new();
    let fields: Vec<String> = out
        .provenance
        .iter()
        .map(|(k, v)| format!("{}:{}", json_string(k), json_string(v)))
        .collect();
    writeln!(s, "provenance {{{}}}", fields.join(",")).unwrap();
    for note in &out.notes {
        writeln!(s, "check {note}").unwrap();
    }
    for m in &out.metrics {
        let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        writeln!(
            s,
            "metric {:<52} {:>18} {}{samples}",
            m.name,
            json_number(m.value),
            m.unit
        )
        .unwrap();
    }
    if let Some(p) = &out.trace_file {
        writeln!(s, "spans {}", p.display()).unwrap();
    }
    for e in &out.errors {
        writeln!(s, "INCORRECT {e}").unwrap();
    }
    for e in &out.invalid {
        writeln!(s, "INVALID {e}").unwrap();
    }
    s
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn render_result(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    )
}
