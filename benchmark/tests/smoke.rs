//! Every workload at 1/100 of its stream length: the output carries each
//! metric `BENCHMARK.json` names exactly once with its unit, the correctness
//! gate passes, and a traced run writes spans that nest. API drift in the
//! crates therefore breaks `cargo test --manifest-path benchmark/Cargo.toml`,
//! not the pipeline.

use dbtoaster_benchmark::report::render_result;
use dbtoaster_benchmark::run::{run, Options};
use dbtoaster_benchmark::spec::{RUN_SECONDS, SPECS};
use std::path::{Path, PathBuf};

/// Stream lengths are divided by this here, and nowhere else.
const SHRINK: usize = 100;

/// `--seconds` here: few enough that every phase makes its fewest rounds.
const SECONDS: f64 = 1.0;

// ---------------------------------------------------------------- mini JSON

#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Members in order, duplicates kept, so "exactly once" can be checked.
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            at: 0,
        };
        let v = p.value();
        p.space();
        assert_eq!(p.at, p.s.len(), "trailing characters in {text}");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(members) => {
                let mut found = members.iter().filter(|(k, _)| k == key);
                let v = found.next().unwrap_or_else(|| panic!("no key {key}"));
                assert!(found.next().is_none(), "key {key} twice");
                &v.1
            }
            other => panic!("{other:?} is not an object"),
        }
    }

    fn members(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(m) => m,
            other => panic!("{other:?} is not an object"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn space(&mut self) {
        while self.at < self.s.len() && self.s[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.space();
        assert_eq!(self.s.get(self.at), Some(&c), "at byte {}", self.at);
        self.at += 1;
    }

    fn peek(&mut self) -> u8 {
        self.space();
        self.s[self.at]
    }

    fn literal(&mut self, word: &str, v: Json) -> Json {
        assert!(self.s[self.at..].starts_with(word.as_bytes()));
        self.at += word.len();
        v
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = Vec::new();
        loop {
            let c = self.s[self.at];
            self.at += 1;
            match c {
                b'"' => return String::from_utf8(out).expect("utf-8"),
                b'\\' => {
                    let e = self.s[self.at];
                    self.at += 1;
                    out.push(match e {
                        b'n' => b'\n',
                        b't' => b'\t',
                        other => other, // \" \\ \/ are themselves
                    });
                }
                c => out.push(c),
            }
        }
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut members = Vec::new();
                while self.peek() != b'}' {
                    let k = self.string();
                    self.eat(b':');
                    members.push((k, self.value()));
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b'}');
                Json::Obj(members)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                while self.peek() != b']' {
                    items.push(self.value());
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b']');
                Json::Arr(items)
            }
            b'"' => Json::Str(self.string()),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => {
                let start = self.at;
                while self.at < self.s.len()
                    && matches!(
                        self.s[self.at],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.at]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("number {text:?}")))
            }
        }
    }
}

// -------------------------------------------------------------------- tests

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
}

fn out_dir(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("smoke-{}-{tag}", std::process::id()))
}

/// Run one shrunken workload; assert the gate passes and the result line
/// carries exactly the metrics of `listed`, each with its unit.
fn check_run(workload: &str, seed: u64, trace: bool, listed: &Json) -> PathBuf {
    let dir = out_dir(&format!("{workload}-{seed}-{trace}"));
    let outcome = run(&Options {
        workload: workload.to_string(),
        seed,
        seconds: SECONDS,
        trace,
        shrink: SHRINK,
        out_dir: dir.clone(),
    })
    .expect("known workload");
    assert!(
        outcome.correct(),
        "{workload} seed {seed}: {:?}",
        outcome.errors
    );

    let result = Json::parse(&render_result(&outcome));
    let keys: Vec<&str> = result.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), &Json::Bool(true));
    assert!(result.get("attempted").num() >= 1.0);
    let metrics = result.get("metrics");
    for m in listed.items() {
        // `get` panics on a missing or repeated name.
        let got = metrics.get(m.get("name").str());
        assert_eq!(got.get("unit").str(), m.get("unit").str());
        assert!(got.get("value").num().is_finite());
    }
    assert_eq!(
        metrics.members().len(),
        listed.items().len(),
        "{workload}: metrics that BENCHMARK.json does not name"
    );
    dir
}

#[test]
fn benchmark_json_names_the_workloads() {
    let bench = benchmark_json();
    let named: Vec<&str> = bench
        .get("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let specs: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    assert_eq!(named, specs);
    assert_eq!(bench.get("run_seconds").num(), RUN_SECONDS);
    assert_eq!(bench.get("paths").items(), [Json::Str("benchmark".into())]);
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    let bench = benchmark_json();
    for spec in &SPECS {
        for seed in [42, 7] {
            let dir = check_run(spec.name, seed, false, bench.get("end_to_end"));
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

#[test]
fn traced_runs_report_every_layer_metric_and_nested_spans() {
    let bench = benchmark_json();
    for spec in &SPECS {
        for seed in [42, 7] {
            let dir = check_run(spec.name, seed, true, bench.get("per_layer"));
            let file = dir.join(format!("trace-{}.jsonl", spec.name));
            let text = std::fs::read_to_string(&file).expect("span file");
            let spans: Vec<Json> = text.lines().map(Json::parse).collect();
            assert!(spans.len() > 10, "{}: {} spans", spec.name, spans.len());
            let mut children = 0;
            for s in &spans {
                assert_eq!(s.get("workload").str(), spec.name);
                assert!(!s.get("name").str().is_empty());
                let (start, end) = (s.get("start_ns").num(), s.get("end_ns").num());
                assert!(start <= end);
                if let Json::Num(p) = s.get("parent") {
                    let parent = &spans[*p as usize];
                    assert!(parent.get("start_ns").num() <= start);
                    assert!(end <= parent.get("end_ns").num());
                    children += 1;
                }
            }
            assert!(children > 0, "{}: no nested spans", spec.name);
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
