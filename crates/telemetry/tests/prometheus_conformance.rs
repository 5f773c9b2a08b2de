//! Prometheus text-format (version 0.0.4) conformance tests for
//! [`MetricsSnapshot::render_prometheus`].
//!
//! Checked properties: every sample line parses; metric and label names stay
//! inside the spec's charsets; every sample belongs to a family announced by
//! `# HELP` and `# TYPE` lines *before* its first sample; label values with
//! hostile characters are escaped; and counter families are monotone across
//! successive snapshots.
//!
//! [`MetricsSnapshot::render_prometheus`]: dbtoaster_telemetry::MetricsSnapshot::render_prometheus

use dbtoaster_telemetry::{
    Stage, Telemetry, TelemetryConfig, PROMETHEUS_CONTENT_TYPE, SNAPSHOT_COPY_REASONS,
};
use std::collections::HashMap;
use std::sync::atomic::Ordering::Relaxed;
use std::time::Duration;

/// A telemetry handle with every metric family populated, including a view
/// whose name needs label-value escaping.
fn populated() -> Telemetry {
    let tel = Telemetry::with_config(TelemetryConfig::default());
    tel.batch_hist()
        .unwrap()
        .record_duration(Duration::from_micros(120));
    tel.batch_hist()
        .unwrap()
        .record_duration(Duration::from_micros(80));
    tel.add_events(2, 2);
    tel.record_stage(Stage::WalAppend, Duration::from_micros(40));
    tel.record_stage(Stage::KernelBatchDelta, Duration::from_micros(25));
    tel.counter("ingest_retries").add(3);
    // The durability self-healing family: counters plus a level gauge.
    tel.counter("io_retries").add(2);
    tel.counter("io_errors_transient").inc();
    tel.counter("io_errors_permanent").inc();
    tel.counter("degraded_transitions").add(2);
    tel.gauge("degraded").set(1);
    let v = tel.view("m_axf_1").unwrap();
    v.rows_written.fetch_add(7, Relaxed);
    v.probes.fetch_add(5, Relaxed);
    v.scans.fetch_add(2, Relaxed);
    v.entries_scanned.fetch_add(40, Relaxed);
    v.map_size.store(13, Relaxed);
    v.snapshot_keys_patched.store(11, Relaxed);
    v.snapshot_entries_copied.store(26, Relaxed);
    v.snapshot_full_copies[0].store(2, Relaxed);
    v.snapshot_full_copies[1].store(1, Relaxed);
    let evil = tel.view("weird\"name\\with\nnewline").unwrap();
    evil.rows_written.fetch_add(1, Relaxed);
    tel
}

#[derive(Debug)]
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

fn is_valid_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn is_valid_label_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parse one sample line (`name{label="value",...} value`), failing the test
/// on any syntax the spec does not allow.
fn parse_sample(line: &str) -> Sample {
    let (name_and_labels, value) = match line.rfind(' ') {
        Some(i) => (&line[..i], &line[i + 1..]),
        None => panic!("sample line without a value: {line:?}"),
    };
    let value: f64 = match value {
        "NaN" => f64::NAN,
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v
            .parse()
            .unwrap_or_else(|_| panic!("unparseable sample value {v:?} in {line:?}")),
    };
    let (name, labels) = match name_and_labels.split_once('{') {
        None => (name_and_labels.to_string(), Vec::new()),
        Some((name, rest)) => {
            let rest = rest
                .strip_suffix('}')
                .unwrap_or_else(|| panic!("unclosed label set in {line:?}"));
            let mut labels = Vec::new();
            let mut chars = rest.chars().peekable();
            while chars.peek().is_some() {
                let mut lname = String::new();
                for c in chars.by_ref() {
                    if c == '=' {
                        break;
                    }
                    lname.push(c);
                }
                assert_eq!(
                    chars.next(),
                    Some('"'),
                    "label value must be quoted: {line:?}"
                );
                let mut lval = String::new();
                loop {
                    match chars.next() {
                        Some('\\') => match chars.next() {
                            Some('\\') => lval.push('\\'),
                            Some('"') => lval.push('"'),
                            Some('n') => lval.push('\n'),
                            other => panic!("bad escape {other:?} in {line:?}"),
                        },
                        Some('"') => break,
                        Some(c) => {
                            assert!(c != '\n', "raw newline in label value: {line:?}");
                            lval.push(c);
                        }
                        None => panic!("unterminated label value in {line:?}"),
                    }
                }
                if chars.peek() == Some(&',') {
                    chars.next();
                }
                labels.push((lname, lval));
            }
            (name.to_string(), labels)
        }
    };
    Sample {
        name,
        labels,
        value,
    }
}

struct Exposition {
    samples: Vec<Sample>,
    /// family name -> declared TYPE.
    types: HashMap<String, String>,
    /// family name -> HELP text present?
    helps: HashMap<String, bool>,
}

fn parse_exposition(text: &str) -> Exposition {
    let mut samples = Vec::new();
    let mut types = HashMap::new();
    let mut helps = HashMap::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, _) = rest
                .split_once(' ')
                .unwrap_or_else(|| panic!("HELP without text: {line:?}"));
            helps.insert(name.to_string(), true);
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .unwrap_or_else(|| panic!("TYPE without kind: {line:?}"));
            assert!(
                ["counter", "gauge", "summary", "histogram", "untyped"].contains(&kind),
                "invalid TYPE kind: {line:?}"
            );
            // HELP must precede TYPE, and each family is declared before any
            // of its samples appear (samples were all parsed earlier or later;
            // ordering is asserted below via the declared-before-sample check).
            assert!(helps.contains_key(name), "TYPE before HELP for {name}");
            types.insert(name.to_string(), kind.to_string());
        } else if line.starts_with('#') {
            // plain comment: allowed
        } else {
            let sample = parse_sample(line);
            // The family must already be declared when its sample appears.
            assert!(
                family_of(&sample.name, &types).is_some(),
                "sample {} appears before its # TYPE declaration",
                sample.name
            );
            samples.push(sample);
        }
    }
    Exposition {
        samples,
        types,
        helps,
    }
}

/// Resolve a sample name to its declared family, honouring the summary
/// sub-sample suffixes (`_sum`, `_count`).
fn family_of(name: &str, types: &HashMap<String, String>) -> Option<String> {
    if types.contains_key(name) {
        return Some(name.to_string());
    }
    for suffix in ["_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types
                .get(base)
                .is_some_and(|k| k == "summary" || k == "histogram")
            {
                return Some(base.to_string());
            }
        }
    }
    None
}

#[test]
fn content_type_is_the_v0_0_4_text_format() {
    assert_eq!(PROMETHEUS_CONTENT_TYPE, "text/plain; version=0.0.4");
}

#[test]
fn every_sample_parses_with_conformant_names_and_declared_family() {
    let tel = populated();
    let text = tel.render_prometheus();
    let exp = parse_exposition(&text);
    assert!(!exp.samples.is_empty(), "exposition rendered no samples");
    for s in &exp.samples {
        assert!(
            is_valid_metric_name(&s.name),
            "bad metric name {:?}",
            s.name
        );
        for (lname, _) in &s.labels {
            assert!(
                is_valid_label_name(lname),
                "bad label name {lname:?} on {}",
                s.name
            );
        }
        let family = family_of(&s.name, &exp.types)
            .unwrap_or_else(|| panic!("sample {} has no TYPE declaration", s.name));
        assert!(
            *exp.helps.get(&family).unwrap_or(&false),
            "family {family} has no HELP line"
        );
    }
    // Summary families carry quantile samples plus _sum and _count.
    for (family, kind) in &exp.types {
        if kind == "summary" {
            for suffix in ["_sum", "_count"] {
                let full = format!("{family}{suffix}");
                assert!(
                    exp.samples.iter().any(|s| s.name == full),
                    "summary {family} missing {full}"
                );
            }
        }
    }
}

#[test]
fn hostile_view_names_are_escaped_in_label_values() {
    let tel = populated();
    let text = tel.render_prometheus();
    // The raw name must never appear unescaped; the escaped form must.
    assert!(text.contains("weird\\\"name\\\\with\\nnewline"), "{text}");
    // Parsing recovers the original name from at least one sample's label.
    let exp = parse_exposition(&text);
    assert!(
        exp.samples.iter().any(|s| {
            s.labels
                .iter()
                .any(|(_, v)| v == "weird\"name\\with\nnewline")
        }),
        "escaped label value did not round-trip"
    );
}

#[test]
fn counters_are_monotone_across_successive_snapshots() {
    let tel = populated();
    let first = parse_exposition(&tel.render_prometheus());
    // More activity of every counter-backed kind.
    tel.add_events(5, 3);
    tel.batch_hist()
        .unwrap()
        .record_duration(Duration::from_micros(60));
    tel.record_stage(Stage::WalAppend, Duration::from_micros(10));
    tel.counter("ingest_retries").add(1);
    let v = tel.view("m_axf_1").unwrap();
    v.rows_written.fetch_add(2, Relaxed);
    v.probes.fetch_add(1, Relaxed);
    v.scans.fetch_add(1, Relaxed);
    let second = parse_exposition(&tel.render_prometheus());

    let key = |s: &Sample| (s.name.clone(), s.labels.clone());
    for s in &first.samples {
        let family = family_of(&s.name, &first.types).unwrap();
        let is_counter = first.types.get(&family).is_some_and(|k| k == "counter")
            || s.name.ends_with("_sum")
            || s.name.ends_with("_count");
        if !is_counter {
            continue;
        }
        let later = second
            .samples
            .iter()
            .find(|t| key(t) == key(s))
            .unwrap_or_else(|| panic!("counter {} vanished from the next snapshot", s.name));
        assert!(
            later.value >= s.value,
            "counter {} went backwards: {} -> {}",
            s.name,
            s.value,
            later.value
        );
    }
}

#[test]
fn durability_metrics_declare_their_kinds_and_gauges_may_decrease() {
    let tel = populated();
    let text = tel.render_prometheus();
    for c in [
        "io_retries",
        "io_errors_transient",
        "io_errors_permanent",
        "degraded_transitions",
    ] {
        assert!(
            text.contains(&format!("# TYPE dbtoaster_{c} counter")),
            "missing counter declaration for {c}:\n{text}"
        );
    }
    assert!(
        text.contains("# TYPE dbtoaster_degraded gauge"),
        "degraded must be declared a gauge, not a counter:\n{text}"
    );

    let value = |exp: &Exposition, name: &str| -> f64 {
        exp.samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no sample named {name}"))
            .value
    };
    let first = parse_exposition(&text);
    assert_eq!(value(&first, "dbtoaster_degraded"), 1.0);

    // A gauge is a level, not an accumulation: leaving degraded mode lowers
    // it, which the TYPE declaration exempts from the monotonicity contract
    // (`counters_are_monotone_across_successive_snapshots` skips gauges).
    tel.gauge("degraded").set(0);
    tel.counter("degraded_transitions").inc();
    let second = parse_exposition(&tel.render_prometheus());
    assert_eq!(value(&second, "dbtoaster_degraded"), 0.0);
    assert!(
        value(&second, "dbtoaster_degraded_transitions")
            > value(&first, "dbtoaster_degraded_transitions"),
        "the transition counter still only goes up"
    );
}

#[test]
fn snapshot_work_is_exported_per_view_with_full_copies_split_by_reason() {
    let exp = parse_exposition(&populated().render_prometheus());
    let sample = |name: &str, labels: &[(&str, &str)]| -> f64 {
        exp.samples
            .iter()
            .find(|s| {
                s.name == name
                    && labels
                        .iter()
                        .all(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
            })
            .unwrap_or_else(|| panic!("no sample {name} {labels:?}"))
            .value
    };
    let view = ("view", "m_axf_1");
    for (family, want) in [
        ("dbtoaster_view_snapshot_keys_patched_total", 11.0),
        ("dbtoaster_view_snapshot_entries_copied_total", 26.0),
    ] {
        assert_eq!(exp.types.get(family).map(String::as_str), Some("counter"));
        assert_eq!(sample(family, &[view]), want);
    }
    let family = "dbtoaster_view_snapshot_full_copies_total";
    assert_eq!(exp.types.get(family).map(String::as_str), Some("counter"));
    for (reason, want) in SNAPSHOT_COPY_REASONS.iter().zip([2.0, 1.0, 0.0]) {
        assert_eq!(
            sample(family, &[view, ("reason", reason)]),
            want,
            "{reason}"
        );
    }
    // One series per (view, reason): an operator can tell a reader that never
    // lets go (`pinned`) from a bulk load (`abandoned`).
    let series = exp.samples.iter().filter(|s| s.name == family).count();
    assert_eq!(series, 2 * SNAPSHOT_COPY_REASONS.len());
}
