//! Results: what one measuring process reports, the workload result made
//! of it, the JSON both travel as, and the comparator that
//! holds two result sets against the bounds in `BENCHMARK.json`.

use crate::manifest::{number, Manifest, MetricDef};
use crate::proc::Provenance;
use crate::stats;
use serde::value::{find, parse, Value};

pub const RESULTS_SCHEMA: &str = "azbench-results/v1";

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn quoted(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

fn numbers(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(f64::to_string).collect();
    format!("[{}]", items.join(","))
}

fn strings(xs: &[String]) -> String {
    let items: Vec<String> = xs.iter().map(|s| quoted(s)).collect();
    format!("[{}]", items.join(","))
}

type Obj = [(String, Value)];

fn get_f64(obj: &Obj, key: &str) -> Result<f64, String> {
    find(obj, key)
        .and_then(number)
        .ok_or_else(|| format!("missing number `{key}`"))
}

fn get_str(obj: &Obj, key: &str) -> Result<String, String> {
    find(obj, key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing string `{key}`"))
}

fn get_numbers(obj: &Obj, key: &str) -> Result<Vec<f64>, String> {
    find(obj, key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("missing array `{key}`"))?
        .iter()
        .map(|v| number(v).ok_or_else(|| format!("`{key}` holds a non-number")))
        .collect()
}

fn get_strings(obj: &Obj, key: &str) -> Result<Vec<String>, String> {
    find(obj, key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("missing array `{key}`"))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("`{key}` holds a non-string"))
        })
        .collect()
}

/// What one measuring process (`azbench run` / `azbench trace`) reports as
/// the last line of its standard output.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChildReport {
    pub workload: String,
    pub seed: u64,
    /// Logical simulated ops of one repetition.
    pub ops: u64,
    pub checks_attempted: u64,
    pub checks_failed: u64,
    pub failures: Vec<String>,
    /// Process start → first timed repetition, warm-up included.
    pub setup_s: f64,
    /// One sample per timed (untraced) repetition.
    pub wall_s: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Per-layer values; empty unless traced.
    pub layers: Vec<(String, f64)>,
}

impl ChildReport {
    pub fn to_json(&self) -> String {
        let layers: Vec<String> = self
            .layers
            .iter()
            .map(|(k, v)| format!("{}:{v}", quoted(k)))
            .collect();
        format!(
            "{{\"workload\":{},\"seed\":{},\"ops\":{},\"checks_attempted\":{},\
             \"checks_failed\":{},\"failures\":{},\"setup_s\":{},\"wall_s\":{},\
             \"peak_rss_mb\":{},\"layers\":{{{}}}}}",
            quoted(&self.workload),
            self.seed,
            self.ops,
            self.checks_attempted,
            self.checks_failed,
            strings(&self.failures),
            self.setup_s,
            numbers(&self.wall_s),
            self.peak_rss_mb,
            layers.join(","),
        )
    }

    pub fn from_json(line: &str) -> Result<ChildReport, String> {
        let doc = parse(line.as_bytes()).map_err(|e| e.0)?;
        let o = doc.as_object().ok_or("child report is not an object")?;
        let members = |key: &str| {
            find(o, key)
                .and_then(Value::as_object)
                .ok_or_else(|| format!("missing object `{key}`"))
        };
        let layers = members("layers")?
            .iter()
            .map(|(k, v)| Ok((k.clone(), number(v).ok_or("layer value is not a number")?)))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ChildReport {
            workload: get_str(o, "workload")?,
            seed: get_f64(o, "seed")? as u64,
            ops: get_f64(o, "ops")? as u64,
            checks_attempted: get_f64(o, "checks_attempted")? as u64,
            checks_failed: get_f64(o, "checks_failed")? as u64,
            failures: get_strings(o, "failures")?,
            setup_s: get_f64(o, "setup_s")?,
            wall_s: get_numbers(o, "wall_s")?,
            peak_rss_mb: get_f64(o, "peak_rss_mb")?,
            layers,
        })
    }
}

/// One metric as printed: value and unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// One workload's result, as `all` records it and `agree` compares it.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub why: String,
    pub seed: u64,
    pub ops: u64,
    pub checks_attempted: u64,
    pub checks_failed: u64,
    pub failures: Vec<String>,
    /// One `wall_s` sample per timed repetition, in order.
    pub wall_samples: Vec<f64>,
    pub metrics: Vec<Metric>,
}

impl WorkloadResult {
    /// The result of the one process that measured a workload: every
    /// timing is the median over its timed repetitions.
    pub fn of(manifest: &Manifest, child: ChildReport) -> WorkloadResult {
        let wall_s = stats::median(&child.wall_s);
        let value_of = |name: &str| match name {
            "setup_s" => child.setup_s,
            "wall_s" => wall_s,
            "sim_ops_per_s" => child.ops as f64 / wall_s,
            "peak_rss_mb" => child.peak_rss_mb,
            other => panic!("BENCHMARK.json names an end-to-end metric `{other}` nobody measures"),
        };
        WorkloadResult {
            why: manifest.why(&child.workload).to_owned(),
            metrics: manifest
                .end_to_end
                .iter()
                .map(|d| Metric {
                    name: d.name.clone(),
                    value: value_of(&d.name),
                    unit: d.unit.clone(),
                })
                .collect(),
            name: child.workload,
            seed: child.seed,
            ops: child.ops,
            checks_attempted: child.checks_attempted,
            checks_failed: child.checks_failed,
            failures: child.failures,
            wall_samples: child.wall_s,
        }
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Every metric by name with its unit; timings state their sample
    /// count, and min/max are information only.
    pub fn render(&self) -> String {
        let mut out = format!(
            "## {} (seed {}, {} logical ops per repetition)\n",
            self.name, self.seed, self.ops
        );
        for m in &self.metrics {
            out.push_str(&format!("{:<16} {:>16.6} {}", m.name, m.value, m.unit));
            if m.name == "wall_s" {
                let xs = &self.wall_samples;
                out.push_str(&format!(
                    "   (median of {}; min {:.4}, max {:.4}",
                    xs.len(),
                    stats::min(xs),
                    stats::max(xs)
                ));
                if let Some(spread) = stats::spread(xs) {
                    out.push_str(&format!("; quartile spread {:.1}%", 100.0 * spread));
                }
                out.push(')');
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "{:<16} {:>16} count   (of {} checks_attempted)\n",
            "checks_failed", self.checks_failed, self.checks_attempted
        ));
        for f in &self.failures {
            out.push_str(&format!("  FAILED {f}\n"));
        }
        out
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"name\":{},\"why\":{},\"seed\":{},\"ops\":{},\"checks_attempted\":{},\
             \"checks_failed\":{},\"failures\":{},\"wall_s_samples\":{},\"metrics\":{}}}",
            quoted(&self.name),
            quoted(&self.why),
            self.seed,
            self.ops,
            self.checks_attempted,
            self.checks_failed,
            strings(&self.failures),
            numbers(&self.wall_samples),
            metrics_json(&self.metrics),
        )
    }

    fn from_value(v: &Value) -> Result<WorkloadResult, String> {
        let o = v.as_object().ok_or("workload result is not an object")?;
        let metrics = find(o, "metrics")
            .and_then(Value::as_object)
            .ok_or("missing object `metrics`")?;
        Ok(WorkloadResult {
            name: get_str(o, "name")?,
            why: get_str(o, "why")?,
            seed: get_f64(o, "seed")? as u64,
            ops: get_f64(o, "ops")? as u64,
            checks_attempted: get_f64(o, "checks_attempted")? as u64,
            checks_failed: get_f64(o, "checks_failed")? as u64,
            failures: get_strings(o, "failures")?,
            wall_samples: get_numbers(o, "wall_s_samples")?,
            metrics: metrics
                .iter()
                .map(|(k, m)| {
                    let m = m.as_object().ok_or("metric is not an object")?;
                    Ok(Metric {
                        name: k.clone(),
                        value: get_f64(m, "value")?,
                        unit: get_str(m, "unit")?,
                    })
                })
                .collect::<Result<_, String>>()?,
        })
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` — the shape the benchmark
/// contract asks for.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quoted(&m.name),
                m.value,
                quoted(&m.unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(","))
}

/// The one line the benchmark contract asks for.
pub fn contract_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        failed == 0,
        attempted.max(1),
        failed,
        metrics_json(metrics)
    )
}

/// A complete `azbench all` run.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultSet {
    pub provenance: Provenance,
    pub workloads: Vec<WorkloadResult>,
}

impl ResultSet {
    pub fn to_json(&self) -> String {
        let workloads: Vec<String> = self.workloads.iter().map(|w| w.to_json()).collect();
        format!(
            "{{\"schema\":\"{RESULTS_SCHEMA}\",\"provenance\":{},\"workloads\":[\n{}\n]}}\n",
            self.provenance.to_json(),
            workloads.join(",\n")
        )
    }

    pub fn from_json(text: &str) -> Result<ResultSet, String> {
        let doc = parse(text.as_bytes()).map_err(|e| e.0)?;
        let o = doc.as_object().ok_or("result set is not an object")?;
        if get_str(o, "schema")? != RESULTS_SCHEMA {
            return Err(format!("not a {RESULTS_SCHEMA} document"));
        }
        let p = find(o, "provenance")
            .and_then(Value::as_object)
            .ok_or("missing object `provenance`")?;
        Ok(ResultSet {
            provenance: Provenance {
                commit: get_str(p, "commit")?,
                nproc: get_f64(p, "nproc")? as usize,
                rustc: get_str(p, "rustc")?,
                profile: if get_str(p, "profile")? == "debug" {
                    "debug"
                } else {
                    "release"
                },
            },
            workloads: find(o, "workloads")
                .and_then(Value::as_array)
                .ok_or("missing array `workloads`")?
                .iter()
                .map(WorkloadResult::from_value)
                .collect::<Result<_, String>>()?,
        })
    }
}

/// By what share of `base` the value `new` is *worse*, in the metric's own
/// direction; negative when it improved.
pub fn worsening(def: &MetricDef, base: f64, new: f64) -> f64 {
    let rel = (new - base) / base.abs();
    if def.higher_is_better {
        -rel
    } else {
        rel
    }
}

/// One row of an `agree` comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Agreement {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// `(b − a) / a`.
    pub relative: f64,
    pub bound: f64,
    pub within: bool,
}

/// Compare two result sets metric by metric against the bounds of
/// `manifest`. Two sets of the same commit agree when neither is worse
/// than the other by more than the bound. A workload or metric present in
/// one set and missing in the other is an error, not a disagreement.
pub fn agree(manifest: &Manifest, a: &ResultSet, b: &ResultSet) -> Result<Vec<Agreement>, String> {
    let mut rows = Vec::new();
    for (name, _) in &manifest.workloads {
        fn side<'a>(
            set: &'a ResultSet,
            name: &str,
            label: &str,
        ) -> Result<&'a WorkloadResult, String> {
            set.workloads
                .iter()
                .find(|w| w.name == name)
                .ok_or_else(|| format!("workload `{name}` is missing from {label}"))
        }
        let (wa, wb) = (
            side(a, name, "the first set")?,
            side(b, name, "the second set")?,
        );
        for def in &manifest.end_to_end {
            let value = |w: &WorkloadResult, label: &str| {
                w.metric(&def.name).map(|m| m.value).ok_or_else(|| {
                    format!("metric `{}` of `{name}` is missing from {label}", def.name)
                })
            };
            let (va, vb) = (value(wa, "the first set")?, value(wb, "the second set")?);
            let bound = def
                .bound
                .ok_or_else(|| format!("end-to-end metric `{}` has no bound", def.name))?;
            rows.push(Agreement {
                workload: name.clone(),
                metric: def.name.clone(),
                a: va,
                b: vb,
                relative: (vb - va) / va.abs(),
                bound,
                within: worsening(def, va, vb) <= bound && worsening(def, vb, va) <= bound,
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Manifest {
        Manifest::parse(
            r#"{"run_seconds": 1,
                "workloads": [{"name": "w", "why": "because"}],
                "end_to_end": [
                  {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
                  {"name": "sim_ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}],
                "per_layer": []}"#,
        )
        .unwrap()
    }

    fn set(wall: f64, rate: Option<f64>) -> ResultSet {
        let mut metrics = vec![Metric {
            name: "wall_s".into(),
            value: wall,
            unit: "s".into(),
        }];
        if let Some(rate) = rate {
            metrics.push(Metric {
                name: "sim_ops_per_s".into(),
                value: rate,
                unit: "1/s".into(),
            });
        }
        ResultSet {
            provenance: Provenance {
                commit: "abc".into(),
                nproc: 2,
                rustc: "rustc 1".into(),
                profile: "release",
            },
            workloads: vec![WorkloadResult {
                name: "w".into(),
                why: "because \"quoted\"".into(),
                seed: 2012,
                ops: 10,
                checks_attempted: 4,
                checks_failed: 0,
                failures: vec![],
                wall_samples: vec![wall, wall * 1.5],
                metrics,
            }],
        }
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let m = manifest();
        let (wall, rate) = (&m.end_to_end[0], &m.end_to_end[1]);
        // Improvement is negative worsening in both directions.
        assert!(worsening(wall, 2.0, 1.0) < 0.0);
        assert!(worsening(rate, 100.0, 150.0) < 0.0);
        // In-bound and out-of-bound regressions.
        assert!((worsening(wall, 2.0, 2.1) - 0.05).abs() < 1e-12);
        assert!((worsening(rate, 100.0, 80.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn agree_accepts_in_bound_and_rejects_out_of_bound() {
        let m = manifest();
        let rows = agree(&m, &set(2.0, Some(100.0)), &set(2.1, Some(95.0))).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.within));
        assert!((rows[0].relative - 0.05).abs() < 1e-12);
        // Out of bound in either order: the comparison is symmetric.
        let rows = agree(&m, &set(2.0, Some(100.0)), &set(2.5, Some(100.0))).unwrap();
        assert!(!rows[0].within && rows[1].within);
        let rows = agree(&m, &set(2.5, Some(100.0)), &set(2.0, Some(100.0))).unwrap();
        assert!(!rows[0].within);
    }

    #[test]
    fn a_missing_metric_or_workload_is_an_error() {
        let m = manifest();
        let err = agree(&m, &set(2.0, Some(100.0)), &set(2.0, None)).unwrap_err();
        assert!(
            err.contains("sim_ops_per_s") && err.contains("second"),
            "{err}"
        );
        let mut empty = set(2.0, Some(1.0));
        empty.workloads.clear();
        assert!(agree(&m, &empty, &set(2.0, Some(1.0))).is_err());
    }

    #[test]
    fn result_set_roundtrips_through_json() {
        let s = set(2.25, Some(1e6));
        assert_eq!(ResultSet::from_json(&s.to_json()).unwrap(), s);
        assert!(ResultSet::from_json("{\"schema\":\"other\"}").is_err());
        assert!(ResultSet::from_json("nope").is_err());
    }

    #[test]
    fn child_report_roundtrips_and_becomes_a_result() {
        let child = ChildReport {
            workload: "w".into(),
            seed: 7,
            ops: 1000,
            checks_attempted: 4,
            checks_failed: 1,
            failures: vec!["rep 2: a.csv differs".into()],
            setup_s: 2.5,
            wall_s: vec![1.0, 3.0, 2.0],
            peak_rss_mb: 50.0,
            layers: vec![("x.ns".into(), 1.5)],
        };
        assert_eq!(ChildReport::from_json(&child.to_json()).unwrap(), child);

        let result = WorkloadResult::of(&manifest(), child);
        assert_eq!(result.metric("wall_s").unwrap().value, 2.0);
        assert_eq!(result.metric("sim_ops_per_s").unwrap().value, 500.0);
        assert_eq!(result.why, "because");
        let line = contract_line(
            result.checks_attempted,
            result.checks_failed,
            &result.metrics,
        );
        assert!(line.starts_with("{\"correct\":false,\"attempted\":4,\"failed\":1,"));
    }
}
