//! Runs the real binary on every workload at `--smoke` size and holds what
//! it prints against `BENCHMARK.json`: every metric named there exactly
//! once, with its unit, in the contract's JSON shape.

use serde::value::{find, parse, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_azbench");

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    parse(&std::fs::read(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names_and_units(manifest: &Value, key: &str) -> Vec<(String, String)> {
    let top = manifest.as_object().unwrap();
    find(top, key)
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            let m = m.as_object().unwrap();
            let text = |k: &str| find(m, k).and_then(Value::as_str).unwrap().to_owned();
            (text("name"), text("unit"))
        })
        .collect()
}

fn workloads(manifest: &Value) -> Vec<String> {
    let top = manifest.as_object().unwrap();
    find(top, "workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| {
            find(w.as_object().unwrap(), "name")
                .and_then(Value::as_str)
                .unwrap()
                .to_owned()
        })
        .collect()
}

fn out_dir(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("azbench-smoke-{tag}"))
}

fn azbench(args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .output()
        .expect("spawn azbench")
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter holding exactly `want`.
fn check_contract_line(stdout: &str, want: &[(String, String)], what: &str) {
    let line = stdout
        .lines()
        .last()
        .unwrap_or_else(|| panic!("{what}: no output"));
    let doc = parse(line.as_bytes()).unwrap_or_else(|e| panic!("{what}: {}: {line}", e.0));
    let top = doc.as_object().unwrap();
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(find(top, "correct"), Some(&Value::Bool(true)), "{what}");
    assert_eq!(find(top, "failed"), Some(&Value::Num("0".into())), "{what}");
    let Some(Value::Num(attempted)) = find(top, "attempted") else {
        panic!("{what}: attempted is not a number");
    };
    assert!(attempted.parse::<u64>().unwrap() >= 1, "{what}");

    let metrics = find(top, "metrics").and_then(Value::as_object).unwrap();
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(got, names, "{what}: metric names");
    for ((_, m), (name, unit)) in metrics.iter().zip(want) {
        let m = m.as_object().unwrap();
        assert_eq!(
            find(m, "unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{what}: {name}"
        );
        let Some(Value::Num(raw)) = find(m, "value") else {
            panic!("{what}: {name} has no numeric value");
        };
        assert!(
            raw.parse::<f64>().unwrap().is_finite(),
            "{what}: {name} = {raw}"
        );
    }
    // The human table above the line names each metric once, with its unit.
    for (name, unit) in want {
        let rows: Vec<&str> = stdout
            .lines()
            .filter(|l| l.split_whitespace().next() == Some(name.as_str()))
            .collect();
        assert_eq!(
            rows.len(),
            1,
            "{what}: `{name}` printed {} times",
            rows.len()
        );
        assert!(
            rows[0].split_whitespace().any(|tok| tok == unit),
            "{what}: `{name}` printed without its unit `{unit}`: {}",
            rows[0]
        );
    }
}

#[test]
fn every_workload_prints_every_metric_once_with_its_unit() {
    let manifest = manifest();
    let end_to_end = names_and_units(&manifest, "end_to_end");
    let per_layer = names_and_units(&manifest, "per_layer");
    let out = out_dir("bench");
    let out = out.to_str().unwrap();
    for w in workloads(&manifest) {
        for (trace, want) in [("0", &end_to_end), ("1", &per_layer)] {
            let what = format!("{w} --trace {trace}");
            let o = azbench(&[
                "bench",
                "--workload",
                &w,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
                "--out",
                out,
            ]);
            let stdout = String::from_utf8_lossy(&o.stdout);
            assert!(
                o.status.success(),
                "{what}: {}\n{stdout}\n{}",
                o.status,
                String::from_utf8_lossy(&o.stderr)
            );
            check_contract_line(&stdout, want, &what);
            if trace == "1" {
                let trace_json = std::fs::read(Path::new(out).join(&w).join("trace.json"))
                    .unwrap_or_else(|e| panic!("{what}: trace.json: {e}"));
                let doc = parse(&trace_json).expect("trace.json is valid JSON");
                let events = find(doc.as_object().unwrap(), "traceEvents")
                    .and_then(Value::as_array)
                    .unwrap();
                assert!(!events.is_empty(), "{what}: empty trace");
            }
        }
    }
}

#[test]
fn all_writes_a_result_set_that_agrees_with_itself_and_not_with_a_slower_one() {
    let out = out_dir("all");
    let a = out.join("results.json");
    let (out, a) = (out.to_str().unwrap(), a.to_str().unwrap());
    let o = azbench(&["all", "--smoke", "--seed", "7", "--out", out]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let text = std::fs::read_to_string(a).unwrap();
    for key in [
        "\"commit\":",
        "\"nproc\":",
        "\"rustc\":",
        "\"profile\":",
        "\"why\":",
        "\"wall_s_samples\":",
    ] {
        assert!(text.contains(key), "result set lacks {key}");
    }
    assert!(!text.contains("\"commit\":\"unknown\""));

    assert!(azbench(&["agree", a, a]).status.success());

    // Double one workload's wall time: far outside any bound.
    let slower = Path::new(out).join("B.json");
    let marker = "\"wall_s\":{\"value\":";
    let at = text.find(marker).expect("a wall_s metric") + marker.len();
    let end = at + text[at..].find(',').unwrap();
    let doubled = 2.0 * text[at..end].parse::<f64>().unwrap();
    std::fs::write(&slower, format!("{}{doubled}{}", &text[..at], &text[end..])).unwrap();
    let o = azbench(&["agree", a, slower.to_str().unwrap()]);
    assert_eq!(o.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&o.stdout).contains("DISAGREE"));

    // Bad input is an error and a usage exit, never a silent success.
    assert_eq!(azbench(&["agree", a]).status.code(), Some(2));
    assert_eq!(azbench(&["run", "queue-fnaout"]).status.code(), Some(2));
    assert_eq!(azbench(&["frobnicate"]).status.code(), Some(2));
}
