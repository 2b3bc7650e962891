//! `BENCHMARK.json`, compiled in: the one place workload names and
//! reasons, metric names, units, directions and bounds are written down.
//! The binary prints exactly the metrics named there and `agree` holds
//! results against the bounds given there.
//!
//! The issue's fifth end-to-end metric, `checks_failed` (bound: any
//! increase), cannot be listed under `end_to_end`: the driver's contract
//! divides every bounded metric's quartile distance by its median, so a
//! bounded metric may never read 0, and `checks_failed` is 0 on every
//! correct tree. It travels instead as the `failed` / `attempted` keys of
//! the result line (any `failed` > 0 makes the run `"correct": false` and
//! the exit code non-zero, which is the "any increase" bound), is printed
//! by name in every table, is compared by `azbench agree`, and is listed
//! under `per_layer`, where metrics carry no bound and may read 0.

use serde::value::{find, parse, Value};

const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

#[derive(Clone, Debug)]
pub struct Manifest {
    pub run_seconds: f64,
    /// `(name, why)` in declaration order.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Manifest {
    pub fn load() -> Manifest {
        Manifest::parse(BENCHMARK_JSON).expect("the committed BENCHMARK.json is well-formed")
    }

    pub fn parse(text: &str) -> Result<Manifest, String> {
        let doc = parse(text.as_bytes()).map_err(|e| e.0)?;
        let top = doc.as_object().ok_or("BENCHMARK.json is not an object")?;
        let list = |key: &str| {
            find(top, key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("missing array `{key}`"))
        };
        let text_of = |obj: &[(String, Value)], key: &str| {
            find(obj, key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("missing string `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let m = m.as_object().ok_or("metric is not an object")?;
                    let better = text_of(m, "better")?;
                    Ok(MetricDef {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: match better.as_str() {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("bad `better` {other:?}")),
                        },
                        bound: find(m, "bound").and_then(number),
                    })
                })
                .collect()
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| {
                let w = w.as_object().ok_or("workload is not an object")?;
                Ok((text_of(w, "name")?, text_of(w, "why")?))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Manifest {
            run_seconds: find(top, "run_seconds")
                .and_then(number)
                .ok_or("missing number `run_seconds`")?,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    pub fn why(&self, workload: &str) -> &str {
        self.workloads
            .iter()
            .find(|(n, _)| n == workload)
            .map_or("", |(_, why)| why)
    }
}

/// A JSON number as `f64`.
pub fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Num(raw) => raw.parse().ok(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn committed_manifest_names_the_five_workloads_and_setup() {
        let m = Manifest::load();
        let names: Vec<&str> = m.workloads.iter().map(|(n, _)| n.as_str()).collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
        assert!(m.workloads.iter().all(|(_, why)| !why.is_empty()));
        let setup = m.end_to_end.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!(setup.unit, "s");
        assert!(!setup.higher_is_better);
        assert!(m.end_to_end.iter().all(|d| d.bound.is_some()));
        assert!(m.per_layer.iter().all(|d| d.bound.is_none()));
    }

    #[test]
    fn malformed_manifests_are_errors() {
        assert!(Manifest::parse("[]").is_err());
        assert!(Manifest::parse("{\"workloads\":[]}").is_err());
        let bad_direction = r#"{"run_seconds":1,"workloads":[],"per_layer":[],
            "end_to_end":[{"name":"x","unit":"s","better":"sideways","bound":0.1}]}"#;
        assert!(Manifest::parse(bad_direction).is_err());
    }
}
