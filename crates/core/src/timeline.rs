//! `figures timeline`: virtual-time telemetry capture and export.
//!
//! Runs the mixed blob/queue/table workload with the cluster's gauge
//! timeline, per-operation trace records and the client policy's span and
//! breaker event logs enabled — under a small scheduled fault plan so the
//! recovery machinery is visible — then exports three views of the run:
//!
//! * a deterministic JSON document ([`TIMELINE_SCHEMA`], validated in CI
//!   against `schemas/timeline.schema.json`) holding every gauge series,
//!   counter-delta series, discrete event and the resource-usage table;
//! * a long-format CSV (one row per retained time bucket) for plotting;
//! * a Chrome Trace Event file (`trace.json`) loadable in Perfetto or
//!   `chrome://tracing`: per-worker phase spans, fault windows as async
//!   events, breaker transitions and retry waits as instants, and the
//!   cluster-wide gauges as counter tracks.
//!
//! All exports are byte-deterministic: virtual timestamps, fixed series
//! registration order, shortest-roundtrip float formatting and a stable
//! event sort mean the same config and seed produce identical bytes on
//! every run and at any `--threads`.

use crate::config::BenchConfig;
use crate::payload::PayloadGen;
use azsim_client::{
    BlobClient, BreakerEvent, BreakerTransition, Environment, QueueClient, ResilientPolicy,
    RetrySpan, TableClient, VirtualEnv,
};
use azsim_core::timeline::{GaugeRecorder, TimelineEvent};
use azsim_core::{SimTime, Simulation};
use azsim_fabric::{BusyStorm, Cluster, FaultPlan, OpRecord, Phase, ResourceUsage, ServerCrash};
use azsim_storage::{Entity, PropValue};
use serde::ser::write_escaped;
use serde::Serialize;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::Duration;

/// Schema identifier written into every timeline JSON export.
pub const TIMELINE_SCHEMA: &str = "azurebench-timeline/v1";

/// Gauge sampling resolution of the timeline and bottleneck runs.
pub const DEFAULT_RESOLUTION: Duration = Duration::from_millis(5);

/// The captured telemetry of one timeline run.
pub struct TimelineReport {
    /// Worker count of the run.
    pub workers: usize,
    /// Mixed-workload iterations per worker.
    pub ops_per_worker: usize,
    /// Workload scale factor.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Sampling resolution the run used.
    pub resolution: Duration,
    /// Virtual end time.
    pub end_time: SimTime,
    /// Requests the runtime processed.
    pub requests: u64,
    /// Time-weighted per-resource usage over the run.
    pub usage: Vec<ResourceUsage>,
    /// The cluster's metrics snapshot at end of run — the same value the
    /// Prometheus and OTLP exports render, so every telemetry format of a
    /// timeline run derives from one snapshot.
    pub snapshot: azsim_fabric::metrics::MetricsSnapshot,
    recorder: GaugeRecorder,
    events: Vec<TimelineEvent>,
    records: Vec<OpRecord>,
    plan: FaultPlan,
}

/// The scheduled faults a timeline run carries so recovery telemetry
/// (fault-window gauge, breaker transitions, retry waits) has something to
/// show: one busy storm early on and one server crash with failover.
fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed: seed ^ 0x7e1e,
        busy_storms: vec![BusyStorm {
            at: SimTime::from_millis(300),
            duration: Duration::from_millis(500),
            retry_after: Duration::from_millis(100),
        }],
        crashes: vec![ServerCrash {
            server: 0,
            at: SimTime::from_secs(2),
            failover: Duration::from_secs(1),
        }],
        ..FaultPlan::default()
    }
}

/// Run the mixed workload for one `(workers, ops_per_worker)` point with
/// full telemetry enabled.
pub fn run_timeline(cfg: &BenchConfig, workers: usize, ops_per_worker: usize) -> TimelineReport {
    let seed = cfg.seed;
    let mut cluster = Cluster::new(cfg.params.clone());
    cluster.enable_timeline(DEFAULT_RESOLUTION);
    cluster.enable_tracing(workers * ops_per_worker * 12 + 1024);
    let plan = fault_plan(seed);
    cluster.set_fault_plan(plan.clone());
    let sim = Simulation::new(cluster, seed);
    let report = sim.run_workers(workers, move |ctx| async move {
        let env = VirtualEnv::new(&ctx);
        let me = env.instance();
        let policy = Rc::new(
            ResilientPolicy::new(seed ^ me as u64)
                .with_span_log()
                .with_event_log(),
        );
        let shared = QueueClient::new(&env, "timeline-shared").with_policy(policy.clone());
        shared.create().await.unwrap();
        let own = QueueClient::new(&env, format!("timeline-{me}")).with_policy(policy.clone());
        own.create().await.unwrap();
        let blobs = BlobClient::new(&env, "timeline").with_policy(policy.clone());
        blobs.create_container().await.unwrap();
        let table = TableClient::new(&env, "timeline").with_policy(policy.clone());
        table.create_table().await.unwrap();
        let mut gen = PayloadGen::new(seed, me as u64);

        for i in 0..ops_per_worker {
            // Same mix as `figures profile`: a contended shared queue, a
            // private queue, blob round trips and table CRUD. Errors after
            // retry exhaustion are tolerated — they remain in the trace.
            let _ = shared.put_message(gen.bytes(32 << 10)).await;
            if let Ok(Some(m)) = shared.get_message().await {
                let _ = shared.delete_message(&m).await;
            }
            let _ = own.put_message(gen.bytes(8 << 10)).await;
            let _ = own.get_message().await;
            let _ = blobs
                .upload(&format!("b-{me}-{i}"), gen.bytes(64 << 10))
                .await;
            let _ = blobs.download(&format!("b-{me}-{i}")).await;
            let _ = table
                .insert(
                    Entity::new(format!("p{me}"), i.to_string())
                        .with("v", PropValue::Binary(gen.bytes(4 << 10))),
                )
                .await;
            let _ = table.query(&format!("p{me}"), &i.to_string()).await;
        }
        (policy.take_retry_spans(), policy.take_breaker_events())
    });

    let model = report.model;
    let recorder = model
        .timeline()
        .expect("timeline enabled via params")
        .recorder()
        .clone();
    // The event stream is client-side telemetry. Worker results arrive in
    // worker order; the final sort by (time, kind, label) makes the stream
    // independent of any collection order.
    let mut events: Vec<TimelineEvent> = Vec::new();
    for (spans, breakers) in &report.results {
        for s in spans {
            events.push(retry_event(s));
        }
        for b in breakers {
            events.push(breaker_event(b));
        }
    }
    events.sort_by(|a, b| {
        a.at.as_nanos()
            .cmp(&b.at.as_nanos())
            .then_with(|| a.kind.cmp(&b.kind))
            .then_with(|| a.label.cmp(&b.label))
    });

    let records = model
        .tracer()
        .map(|t| t.records().to_vec())
        .unwrap_or_default();
    let usage = model.resource_usage(report.end_time);
    let snapshot = model.snapshot();
    TimelineReport {
        workers,
        ops_per_worker,
        scale: cfg.scale,
        seed,
        resolution: DEFAULT_RESOLUTION,
        end_time: report.end_time,
        requests: report.requests,
        usage,
        snapshot,
        recorder,
        events,
        records,
        plan,
    }
}

fn retry_event(s: &RetrySpan) -> TimelineEvent {
    TimelineEvent {
        at: s.at,
        kind: "retry_wait".to_string(),
        label: format!(
            "{} attempt {} wait {:.1}ms",
            s.class.label(),
            s.attempt,
            s.wait.as_secs_f64() * 1e3
        ),
    }
}

fn breaker_event(b: &BreakerEvent) -> TimelineEvent {
    let kind = match b.kind {
        BreakerTransition::Opened => "breaker_open",
        BreakerTransition::HalfOpen => "breaker_half_open",
        BreakerTransition::Closed => "breaker_closed",
    };
    TimelineEvent {
        at: b.at,
        kind: kind.to_string(),
        label: b.partition.to_string(),
    }
}

#[derive(Serialize)]
struct SampleDoc {
    t_s: f64,
    min: f64,
    max: f64,
    last: f64,
    mean: f64,
    count: u64,
}

#[derive(Serialize)]
struct GaugeDoc {
    name: String,
    unit: String,
    resolution_ns: u64,
    samples: Vec<SampleDoc>,
}

#[derive(Serialize)]
struct CounterSampleDoc {
    t_s: f64,
    delta: f64,
}

#[derive(Serialize)]
struct CounterDoc {
    name: String,
    resolution_ns: u64,
    samples: Vec<CounterSampleDoc>,
}

#[derive(Serialize)]
struct EventDoc {
    t_s: f64,
    kind: String,
    label: String,
}

#[derive(Serialize)]
struct TimelineConfigDoc {
    workers: u64,
    ops_per_worker: u64,
    scale: f64,
    seed: u64,
    resolution_ns: u64,
}

#[derive(Serialize)]
struct TimelineDoc {
    schema: String,
    config: TimelineConfigDoc,
    end_time_s: f64,
    requests: u64,
    gauges: Vec<GaugeDoc>,
    counters: Vec<CounterDoc>,
    events: Vec<EventDoc>,
    /// Always 0: the event stream is unbounded. Kept so the
    /// `azurebench-timeline/v1` document keeps its shape.
    dropped_events: u64,
    usage: Vec<ResourceUsage>,
}

impl TimelineReport {
    /// Access to the raw recorder (tests, custom exports).
    pub fn recorder(&self) -> &GaugeRecorder {
        &self.recorder
    }

    /// The merged, time-sorted event stream (cluster + client side).
    pub fn events(&self) -> &[TimelineEvent] {
        &self.events
    }

    /// The retained per-operation records.
    pub fn records(&self) -> &[OpRecord] {
        &self.records
    }

    fn doc(&self) -> TimelineDoc {
        TimelineDoc {
            schema: TIMELINE_SCHEMA.to_string(),
            config: TimelineConfigDoc {
                workers: self.workers as u64,
                ops_per_worker: self.ops_per_worker as u64,
                scale: self.scale,
                seed: self.seed,
                resolution_ns: self.resolution.as_nanos() as u64,
            },
            end_time_s: self.end_time.as_secs_f64(),
            requests: self.requests,
            gauges: self
                .recorder
                .gauges()
                .iter()
                .filter(|g| !g.series.is_empty())
                .map(|g| GaugeDoc {
                    name: g.name.clone(),
                    unit: g.unit.clone(),
                    resolution_ns: g.series.resolution().as_nanos() as u64,
                    samples: g
                        .series
                        .iter()
                        .map(|(t, b)| SampleDoc {
                            t_s: t.as_secs_f64(),
                            min: b.min,
                            max: b.max,
                            last: b.last,
                            mean: b.mean(),
                            count: b.count,
                        })
                        .collect(),
                })
                .collect(),
            counters: self
                .recorder
                .counters()
                .iter()
                .map(|c| CounterDoc {
                    name: c.name.clone(),
                    resolution_ns: c.series.series().resolution().as_nanos() as u64,
                    samples: c
                        .series
                        .series()
                        .iter()
                        .map(|(t, b)| CounterSampleDoc {
                            t_s: t.as_secs_f64(),
                            delta: b.sum,
                        })
                        .collect(),
                })
                .collect(),
            events: self
                .events
                .iter()
                .map(|e| EventDoc {
                    t_s: e.at.as_secs_f64(),
                    kind: e.kind.clone(),
                    label: e.label.clone(),
                })
                .collect(),
            dropped_events: 0,
            usage: self.usage.clone(),
        }
    }

    /// Serialize the full timeline to JSON (`azurebench-timeline/v1`).
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.doc()).expect("timeline serialization is infallible")
    }

    /// Long-format CSV: one row per retained bucket of every gauge and
    /// counter series (`kind` is `gauge` or `counter`; a counter bucket's
    /// `sum` is the delta that landed in it).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_s,series,kind,unit,count,min,max,last,sum\n");
        for g in self.recorder.gauges() {
            for (t, b) in g.series.iter() {
                out.push_str(&format!(
                    "{:?},{},gauge,{},{},{:?},{:?},{:?},{:?}\n",
                    t.as_secs_f64(),
                    g.name,
                    g.unit,
                    b.count,
                    b.min,
                    b.max,
                    b.last,
                    b.sum
                ));
            }
        }
        for c in self.recorder.counters() {
            for (t, b) in c.series.series().iter() {
                out.push_str(&format!(
                    "{:?},{},counter,ops,{},{:?},{:?},{:?},{:?}\n",
                    t.as_secs_f64(),
                    c.name,
                    b.count,
                    b.min,
                    b.max,
                    b.last,
                    b.sum
                ));
            }
        }
        out
    }

    /// Prometheus text-format render of the end-of-run metrics snapshot —
    /// the same [`MetricsSnapshot`](azsim_fabric::metrics::MetricsSnapshot)
    /// that [`to_otlp`](Self::to_otlp) and the Chrome trace derive from.
    pub fn to_prometheus(&self) -> String {
        self.snapshot.to_prometheus()
    }

    /// OTLP-shaped JSON render of the end-of-run metrics snapshot, tagged
    /// with the run's scale/seed/workers as resource attributes.
    pub fn to_otlp(&self) -> String {
        self.snapshot.to_otlp_json(&[
            ("azurebench.scale", &format!("{:?}", self.scale)),
            ("azurebench.seed", &self.seed.to_string()),
            ("azurebench.workers", &self.workers.to_string()),
        ])
    }

    /// Export the run in Chrome Trace Event format, loadable in Perfetto
    /// (<https://ui.perfetto.dev>) or `chrome://tracing`. Phase spans are
    /// complete (`X`) events per worker thread, fault windows are async
    /// (`b`/`e`) pairs, breaker transitions and retry waits are instants,
    /// and the cluster-wide gauges become counter (`C`) tracks.
    pub fn to_chrome_trace(&self) -> String {
        let us = |t: SimTime| t.as_nanos() as f64 / 1e3;
        let mut ev: Vec<String> = Vec::new();

        ev.push(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"azurebench\"}}"
                .to_string(),
        );
        let actors: BTreeSet<usize> = self.records.iter().map(|r| r.actor).collect();
        for a in &actors {
            ev.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{a},\
                 \"args\":{{\"name\":\"worker-{a}\"}}}}"
            ));
        }

        for r in &self.records {
            let mut cursor = us(r.issued);
            for p in Phase::ALL {
                if p == Phase::RetryBackoff {
                    continue; // client-side; rendered as retry_wait instants
                }
                let d = r.phases.get(p);
                if d.is_zero() {
                    continue;
                }
                let dur = d.as_nanos() as f64 / 1e3;
                ev.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\
                     \"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"outcome\":\"{}\"}}}}",
                    p.label(),
                    r.class.label(),
                    cursor,
                    dur,
                    r.actor,
                    r.outcome.label()
                ));
                cursor += dur;
            }
        }

        let mut window_id = 0u64;
        let mut window = |name: String, start: SimTime, dur: Duration, ev: &mut Vec<String>| {
            window_id += 1;
            let name = jstr(&name);
            ev.push(format!(
                "{{\"name\":{name},\"cat\":\"fault\",\"ph\":\"b\",\"id\":{window_id},\
                 \"ts\":{:.3},\"pid\":1,\"tid\":0}}",
                us(start)
            ));
            ev.push(format!(
                "{{\"name\":{name},\"cat\":\"fault\",\"ph\":\"e\",\"id\":{window_id},\
                 \"ts\":{:.3},\"pid\":1,\"tid\":0}}",
                us(start + dur)
            ));
        };
        for s in &self.plan.busy_storms {
            window("busy_storm".to_string(), s.at, s.duration, &mut ev);
        }
        for c in &self.plan.crashes {
            window(
                format!("server_crash:{}", c.server),
                c.at,
                c.failover,
                &mut ev,
            );
        }
        for b in &self.plan.blackouts {
            window(
                format!("blackout:{}", b.partition),
                b.at,
                b.duration,
                &mut ev,
            );
        }

        for e in &self.events {
            ev.push(format!(
                "{{\"name\":{},\"cat\":\"client\",\"ph\":\"i\",\"ts\":{:.3},\
                 \"pid\":1,\"tid\":0,\"s\":\"g\"}}",
                jstr(&format!("{}:{}", e.kind, e.label)),
                us(e.at)
            ));
        }

        // Cluster-wide gauges (per-partition series carry a ':' in the
        // name and would flood the counter track list).
        for g in self.recorder.gauges() {
            if g.name.contains(':') {
                continue;
            }
            for (t, b) in g.series.iter() {
                ev.push(format!(
                    "{{\"name\":{},\"ph\":\"C\",\"ts\":{:.3},\"pid\":1,\
                     \"args\":{{\"{}\":{:?}}}}}",
                    jstr(&g.name),
                    us(t),
                    g.unit,
                    b.last
                ));
            }
        }

        // Monotonic counters (ops.submitted, ops.throttled, ops.ambiguous)
        // as running-total tracks: ambiguous outcomes become visible right
        // next to the fault windows that caused them.
        for c in self.recorder.counters() {
            for (t, b) in c.series.series().iter() {
                ev.push(format!(
                    "{{\"name\":{},\"ph\":\"C\",\"ts\":{:.3},\"pid\":1,\
                     \"args\":{{\"total\":{:?}}}}}",
                    jstr(&c.name),
                    us(t),
                    b.last
                ));
            }
        }

        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}\n",
            ev.join(",")
        )
    }

    /// A short human-readable summary of what was captured.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<34} | {:>8} | {:>8} | {:>12} | {:>12}\n",
            "series", "samples", "buckets", "min", "max"
        );
        for g in self.recorder.gauges() {
            if g.series.is_empty() {
                continue;
            }
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for (_, b) in g.series.iter() {
                lo = lo.min(b.min);
                hi = hi.max(b.max);
            }
            out.push_str(&format!(
                "{:<34} | {:>8} | {:>8} | {:>12.3} | {:>12.3}\n",
                g.name,
                g.series.sample_count(),
                g.series.len(),
                lo,
                hi
            ));
        }
        out.push_str(&format!(
            "({} events, {} trace records, {} resource-usage rows, end {:.3}s)\n",
            self.events.len(),
            self.records.len(),
            self.usage.len(),
            self.end_time.as_secs_f64()
        ));
        out
    }
}

/// Quote and escape a string for direct inclusion in JSON output.
fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_escaped(s, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_timeline() -> TimelineReport {
        let cfg = BenchConfig::quick().with_sweep_threads(1);
        run_timeline(&cfg, 4, 12)
    }

    #[test]
    fn captures_gauges_counters_and_events() {
        let r = small_timeline();
        let names: Vec<&str> = r
            .recorder()
            .gauges()
            .iter()
            .map(|g| g.name.as_str())
            .collect();
        for required in [
            "account_tx.fill",
            "cluster.inflight",
            "faults.active_windows",
            "bucket_fill:queue:timeline-shared",
        ] {
            assert!(
                names.contains(&required),
                "{required} missing from {names:?}"
            );
        }
        // The busy storm forces retries → retry_wait events exist.
        assert!(r.events().iter().any(|e| e.kind == "retry_wait"));
        // The fault-window gauge saw the storm and/or crash.
        let fw = r
            .recorder()
            .gauges()
            .iter()
            .find(|g| g.name == "faults.active_windows")
            .unwrap();
        let max = fw.series.iter().map(|(_, b)| b.max).fold(0.0, f64::max);
        assert!(max >= 1.0, "no fault window observed");
        assert!(!r.records().is_empty());
        assert!(!r.usage.is_empty());
    }

    #[test]
    fn json_csv_and_trace_are_deterministic() {
        let a = small_timeline();
        let b = small_timeline();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.to_chrome_trace(), b.to_chrome_trace());
    }

    #[test]
    fn json_has_required_structure() {
        let r = small_timeline();
        let json = r.to_json();
        let doc = serde::value::parse(json.as_bytes()).expect("valid JSON");
        let obj = doc.as_object().unwrap();
        assert_eq!(
            serde::value::find(obj, "schema").and_then(|v| v.as_str()),
            Some(TIMELINE_SCHEMA)
        );
        for key in ["config", "gauges", "counters", "events", "usage"] {
            assert!(serde::value::find(obj, key).is_some(), "{key} missing");
        }
        let csv = r.to_csv();
        assert!(csv.starts_with("t_s,series,kind,unit,count,min,max,last,sum\n"));
        assert!(csv.lines().count() > 10);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_span_and_fault_events() {
        let r = small_timeline();
        let trace = r.to_chrome_trace();
        let doc = serde::value::parse(trace.as_bytes()).expect("trace.json parses");
        let events = doc
            .as_object()
            .and_then(|o| serde::value::find(o, "traceEvents"))
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        let ph = |p: &str| {
            events
                .iter()
                .filter(|e| {
                    e.as_object()
                        .and_then(|o| serde::value::find(o, "ph"))
                        .and_then(|v| v.as_str())
                        == Some(p)
                })
                .count()
        };
        assert!(ph("X") > 0, "no complete span events");
        assert!(
            ph("b") > 0 && ph("b") == ph("e"),
            "unbalanced fault windows"
        );
        assert!(ph("C") > 0, "no counter tracks");
        assert!(ph("M") > 0, "no metadata events");
    }
}
