//! Benchmark self-test at `SimConfig::small_test` scale: every workload
//! runs once per mode, prints every metric `BENCHMARK.json` names with its
//! unit, checks its outputs, and reports `error_rate` 0.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Just enough JSON for `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key:?}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }
}

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

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at byte {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    m.insert(k, self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                while self.s[self.i] != b'"' {
                    if self.s[self.i] == b'\\' {
                        self.i += 1;
                    }
                    out.push(self.s[self.i] as char);
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(out)
            }
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| b"+-.eE0123456789".contains(c))
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii number");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn metric_units(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_owned(),
                m.get("unit").str().to_owned(),
            )
        })
        .collect()
}

#[test]
fn every_workload_prints_every_named_metric_with_no_errors() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let spec = Json::parse(
        &std::fs::read_to_string(root.join("../BENCHMARK.json")).expect("BENCHMARK.json"),
    );
    for workload in spec.get("workloads").arr() {
        let name = workload.get("name").str();
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .current_dir(root)
                .args([
                    "--workload",
                    name,
                    "--seed",
                    "5",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--scale",
                    "small",
                ])
                .output()
                .expect("benchmark runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{name} --trace {trace} failed:\n{stderr}"
            );
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let lines: Vec<&str> = stdout.lines().collect();
            let result = Json::parse(lines.last().expect("a result line"));
            let descriptor = Json::parse(lines[lines.len() - 2]);
            assert_eq!(descriptor.get("descriptor").get("workload").str(), name);
            assert_eq!(
                result.get("correct"),
                &Json::Bool(true),
                "{name} --trace {trace}:\n{stderr}"
            );
            assert_eq!(result.get("failed").num(), 0.0);
            assert!(result.get("attempted").num() >= 1.0);
            let Json::Obj(metrics) = result.get("metrics") else {
                panic!("metrics is not an object")
            };
            let expected = metric_units(&spec, key);
            assert_eq!(
                metrics.len(),
                expected.len(),
                "{name} --trace {trace}: metric count"
            );
            for (metric, unit) in &expected {
                let m = result.get("metrics").get(metric);
                assert_eq!(m.get("unit").str(), unit, "{name}: unit of {metric}");
                assert!(m.get("value").num().is_finite(), "{name}: {metric}");
            }
            if trace == "1" {
                assert_eq!(
                    result.get("metrics").get("error_rate").get("value").num(),
                    0.0
                );
                assert!(
                    result
                        .get("metrics")
                        .get("trace.coverage")
                        .get("value")
                        .num()
                        > 0.0
                );
            }
        }
    }
}

/// `live-fold` is not listed in `BENCHMARK.json` while the delta executor
/// can publish stale reports, so its correctness is not asserted here; it
/// must still run and print every metric.
#[test]
fn live_fold_prints_its_metrics() {
    let spec = Json::parse(
        &std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json"),
    );
    for (trace, mut expected) in [
        ("0", metric_units(&spec, "end_to_end")),
        ("1", metric_units(&spec, "per_layer")),
    ] {
        if trace == "0" {
            expected.push(("publish_lag_p50_ms".to_owned(), "ms".to_owned()));
            expected.push(("publish_lag_tail_ms".to_owned(), "ms".to_owned()));
        }
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .args(["--workload", "live-fold", "--seed", "5", "--seconds", "1"])
            .args(["--trace", trace, "--scale", "small"])
            .output()
            .expect("benchmark runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
        let result = Json::parse(stdout.lines().last().expect("a result line"));
        let Json::Obj(metrics) = result.get("metrics") else {
            panic!("metrics is not an object")
        };
        assert_eq!(metrics.len(), expected.len());
        for (metric, unit) in &expected {
            assert_eq!(result.get("metrics").get(metric).get("unit").str(), unit);
        }
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--seed", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("benchmark runs");
        assert!(!out.status.success());
        assert!(out.stdout.is_empty());
    }
}
