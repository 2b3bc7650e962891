//! Server-side operation accounting and the exportable metrics snapshot.
//!
//! [`ClusterMetrics`] is the hot-path registry (fixed-array counters, no
//! allocation per op). [`MetricsSnapshot`] is the cold-path export view the
//! cluster produces on demand: per-class counters, per-partition hot-key
//! heat, fault tallies and — when phase profiling is enabled — per-phase
//! latency histograms, serializable to JSON, Prometheus text format and
//! OTLP/HTTP-shaped JSON (`resourceMetrics` → `scopeMetrics` → metric
//! points) — one snapshot feeds every export.

use crate::faults::FaultMetrics;
use crate::trace::{OpOutcome, Phase, PhaseAggregate};
use azsim_core::stats::{Histogram, OnlineStats};
use azsim_storage::OpClass;
use serde::Serialize;

/// Counters for one operation class.
#[derive(Clone, Debug, Default)]
pub struct OpCounter {
    /// Successfully completed operations.
    pub completed: u64,
    /// Operations rejected with `ServerBusy`.
    pub throttled: u64,
    /// Operations that failed with a non-throttle error.
    pub failed: u64,
    /// Payload bytes received from clients.
    pub bytes_up: u64,
    /// Payload bytes sent to clients.
    pub bytes_down: u64,
    /// Server-observed latency of completed operations, in seconds.
    pub latency: OnlineStats,
}

/// Per-class operation accounting for a whole cluster.
///
/// Stored as a fixed array indexed by [`OpClass::index`], so the hot-path
/// `counter_mut` is a bounds-checked array access instead of a hash probe.
/// A bitmask remembers which classes were ever touched, preserving the
/// "`None` until first use" contract of [`ClusterMetrics::counter`].
#[derive(Clone, Debug)]
pub struct ClusterMetrics {
    counters: [OpCounter; OpClass::COUNT],
    touched: u32,
}

const _: () = assert!(OpClass::COUNT <= u32::BITS as usize);

impl Default for ClusterMetrics {
    fn default() -> Self {
        ClusterMetrics {
            counters: std::array::from_fn(|_| OpCounter::default()),
            touched: 0,
        }
    }
}

impl ClusterMetrics {
    /// Fresh metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mutable counter for a class (marked as seen on first use).
    pub fn counter_mut(&mut self, class: OpClass) -> &mut OpCounter {
        let i = class.index();
        self.touched |= 1 << i;
        &mut self.counters[i]
    }

    /// Counter for a class, if any operation of that class was seen.
    pub fn counter(&self, class: OpClass) -> Option<&OpCounter> {
        let i = class.index();
        (self.touched & (1 << i) != 0).then(|| &self.counters[i])
    }

    /// Total completed operations across classes.
    pub fn total_completed(&self) -> u64 {
        self.counters.iter().map(|c| c.completed).sum()
    }

    /// Total throttled operations across classes.
    pub fn total_throttled(&self) -> u64 {
        self.counters.iter().map(|c| c.throttled).sum()
    }

    /// Total payload bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.counters
            .iter()
            .map(|c| c.bytes_up + c.bytes_down)
            .sum()
    }

    /// Iterate over the `(class, counter)` pairs of classes that were seen,
    /// in fixed [`OpClass::index`] order — no allocation, no re-sorting.
    pub fn iter(&self) -> impl Iterator<Item = (OpClass, &OpCounter)> {
        OpClass::ALL
            .iter()
            .filter(|class| self.touched & (1 << class.index()) != 0)
            .map(|class| (*class, &self.counters[class.index()]))
    }
}

/// Summary of one [`OnlineStats`] accumulator, in seconds.
#[derive(Clone, Debug, Serialize)]
pub struct StatSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Mean.
    pub mean_s: f64,
    /// Minimum.
    pub min_s: f64,
    /// Maximum.
    pub max_s: f64,
    /// Sample standard deviation.
    pub stddev_s: f64,
}

impl StatSnapshot {
    fn of(s: &OnlineStats) -> Self {
        StatSnapshot {
            count: s.count(),
            mean_s: s.mean(),
            min_s: s.min(),
            max_s: s.max(),
            stddev_s: s.stddev(),
        }
    }
}

/// Exported per-class counters.
#[derive(Clone, Debug, Serialize)]
pub struct OpSnapshot {
    /// Operation class label (e.g. `queue.put`).
    pub class: String,
    /// Successfully completed operations.
    pub completed: u64,
    /// Throttle rejections.
    pub throttled: u64,
    /// Non-throttle failures (semantic, faulted, dropped).
    pub failed: u64,
    /// Payload bytes client → server.
    pub bytes_up: u64,
    /// Payload bytes server → client.
    pub bytes_down: u64,
    /// Latency summary of completed operations.
    pub latency: StatSnapshot,
}

/// Cluster-wide totals.
#[derive(Clone, Debug, Serialize)]
pub struct TotalsSnapshot {
    /// Completed operations across classes.
    pub completed: u64,
    /// Throttle rejections across classes.
    pub throttled: u64,
    /// Non-throttle failures across classes.
    pub failed: u64,
    /// Payload bytes in either direction.
    pub bytes: u64,
}

/// Exported fault-injection tallies.
#[derive(Clone, Debug, Serialize)]
pub struct FaultSnapshot {
    /// `ServerBusy` rejections injected by storms.
    pub injected_busy: u64,
    /// `ServerFault` rejections from crash windows.
    pub crash_faults: u64,
    /// `ServerFault` rejections from partition blackouts.
    pub blackout_faults: u64,
    /// Requests dropped (client timeouts).
    pub dropped: u64,
    /// Responses lost after server-side execution (ack losses).
    pub ack_losses: u64,
    /// Replicated-write acks cut by a mid-flight crash.
    pub crash_ambiguous: u64,
    /// Client-ambiguous outcomes (drops + ack losses + crash cuts).
    pub ambiguous: u64,
    /// Replica-sync stalls applied.
    pub replica_stalls: u64,
}

/// One row of the per-partition hot-key heatmap.
#[derive(Clone, Debug, Serialize)]
pub struct PartitionHeat {
    /// Partition label (e.g. `queue:mix-shared`, `blob:figures/b0`).
    pub partition: String,
    /// Partition-server index the partition is placed on.
    pub server: usize,
    /// Operations addressed to the partition (including rejected ones).
    pub ops: u64,
    /// Throttle rejections charged to the partition.
    pub throttled: u64,
}

/// Quantile summary of one [`Histogram`], in seconds.
#[derive(Clone, Debug, Serialize)]
pub struct QuantileSnapshot {
    /// Phase label, or `end_to_end`.
    pub phase: String,
    /// Number of observations.
    pub count: u64,
    /// Exact sum of observations.
    pub sum_s: f64,
    /// Mean.
    pub mean_s: f64,
    /// Median.
    pub p50_s: f64,
    /// 95th percentile.
    pub p95_s: f64,
    /// 99th percentile.
    pub p99_s: f64,
    /// 99.9th percentile.
    pub p999_s: f64,
    /// Maximum (exact).
    pub max_s: f64,
}

impl QuantileSnapshot {
    /// Summarize a histogram under a given label.
    pub fn of(phase: impl Into<String>, h: &Histogram) -> Self {
        QuantileSnapshot {
            phase: phase.into(),
            count: h.count(),
            sum_s: h.sum(),
            mean_s: h.mean(),
            p50_s: h.quantile(0.50),
            p95_s: h.quantile(0.95),
            p99_s: h.quantile(0.99),
            p999_s: h.quantile(0.999),
            max_s: h.max(),
        }
    }
}

/// Outcome tallies of one class's traced operations.
#[derive(Clone, Debug, Serialize)]
pub struct OutcomeSnapshot {
    /// Completed successfully.
    pub ok: u64,
    /// Rejected by a throttle.
    pub throttled: u64,
    /// Failed with a semantic error.
    pub failed: u64,
    /// Rejected by an injected fault.
    pub faulted: u64,
    /// Dropped; the client timed out.
    pub timed_out: u64,
}

/// Per-class phase breakdown: end-to-end distribution plus one quantile
/// summary per phase that was actually crossed.
#[derive(Clone, Debug, Serialize)]
pub struct ClassPhaseSnapshot {
    /// Operation class label.
    pub class: String,
    /// Outcome tallies.
    pub outcomes: OutcomeSnapshot,
    /// End-to-end latency distribution (all outcomes).
    pub end_to_end: QuantileSnapshot,
    /// Per-phase distributions, in [`Phase::ALL`] order, phases with zero
    /// observations omitted.
    pub phases: Vec<QuantileSnapshot>,
}

/// Everything the cluster can report about a run, in exportable form.
#[derive(Clone, Debug, Serialize)]
pub struct MetricsSnapshot {
    /// Export-format identifier.
    pub schema: String,
    /// Cluster-wide totals.
    pub totals: TotalsSnapshot,
    /// Per-class counters, in [`OpClass::index`] order.
    pub ops: Vec<OpSnapshot>,
    /// Fault-injection tallies.
    pub faults: FaultSnapshot,
    /// Hottest partitions (up to 64), by descending op count then label.
    pub partitions: Vec<PartitionHeat>,
    /// Per-class phase breakdowns (empty unless phase profiling is on).
    pub phases: Vec<ClassPhaseSnapshot>,
}

/// Convert per-class phase aggregates into their exportable form, in
/// [`OpClass::index`] order.
pub fn phase_snapshots(agg: &PhaseAggregate) -> Vec<ClassPhaseSnapshot> {
    agg.iter()
        .map(|(class, stats)| ClassPhaseSnapshot {
            class: class.label().to_string(),
            outcomes: OutcomeSnapshot {
                ok: stats.outcome_count(OpOutcome::Ok),
                throttled: stats.outcome_count(OpOutcome::Throttled),
                failed: stats.outcome_count(OpOutcome::Error),
                faulted: stats.outcome_count(OpOutcome::Faulted),
                timed_out: stats.outcome_count(OpOutcome::TimedOutLost)
                    + stats.outcome_count(OpOutcome::TimedOutExecuted),
            },
            end_to_end: QuantileSnapshot::of("end_to_end", stats.end_to_end()),
            phases: Phase::ALL
                .iter()
                .filter(|&&p| stats.phase(p).count() > 0)
                .map(|&p| QuantileSnapshot::of(p.label(), stats.phase(p)))
                .collect(),
        })
        .collect()
}

impl MetricsSnapshot {
    /// Schema identifier written into every JSON export.
    pub const SCHEMA: &'static str = "azurebench-metrics/v1";

    /// Assemble a snapshot from the cluster's registries.
    pub fn build(
        metrics: &ClusterMetrics,
        faults: &FaultMetrics,
        partitions: Vec<PartitionHeat>,
        phases: Option<&PhaseAggregate>,
    ) -> Self {
        let ops: Vec<OpSnapshot> = metrics
            .iter()
            .map(|(class, c)| OpSnapshot {
                class: class.label().to_string(),
                completed: c.completed,
                throttled: c.throttled,
                failed: c.failed,
                bytes_up: c.bytes_up,
                bytes_down: c.bytes_down,
                latency: StatSnapshot::of(&c.latency),
            })
            .collect();
        MetricsSnapshot {
            schema: Self::SCHEMA.to_string(),
            totals: TotalsSnapshot {
                completed: metrics.total_completed(),
                throttled: metrics.total_throttled(),
                failed: ops.iter().map(|o| o.failed).sum(),
                bytes: metrics.total_bytes(),
            },
            ops,
            faults: FaultSnapshot {
                injected_busy: faults.injected_busy,
                crash_faults: faults.crash_faults,
                blackout_faults: faults.blackout_faults,
                dropped: faults.dropped,
                ack_losses: faults.ack_losses,
                crash_ambiguous: faults.crash_ambiguous,
                ambiguous: faults.ambiguous(),
                replica_stalls: faults.replica_stalls,
            },
            partitions,
            phases: phases.map(phase_snapshots).unwrap_or_default(),
        }
    }

    /// Serialize to JSON. Deterministic: field order is fixed by the struct
    /// definitions and floats print in shortest-roundtrip form.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serialization is infallible")
    }

    /// Render in Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();

        out.push_str("# TYPE azsim_ops_total counter\n");
        for o in &self.ops {
            for (outcome, v) in [
                ("ok", o.completed),
                ("throttled", o.throttled),
                ("failed", o.failed),
            ] {
                out.push_str(&format!(
                    "azsim_ops_total{{class=\"{}\",outcome=\"{}\"}} {}\n",
                    o.class, outcome, v
                ));
            }
        }

        out.push_str("# TYPE azsim_bytes_total counter\n");
        for o in &self.ops {
            out.push_str(&format!(
                "azsim_bytes_total{{class=\"{}\",direction=\"up\"}} {}\n",
                o.class, o.bytes_up
            ));
            out.push_str(&format!(
                "azsim_bytes_total{{class=\"{}\",direction=\"down\"}} {}\n",
                o.class, o.bytes_down
            ));
        }

        out.push_str("# TYPE azsim_fault_injections_total counter\n");
        for (kind, v) in [
            ("busy", self.faults.injected_busy),
            ("crash", self.faults.crash_faults),
            ("blackout", self.faults.blackout_faults),
            ("drop", self.faults.dropped),
            ("ack_loss", self.faults.ack_losses),
            ("crash_ambiguous", self.faults.crash_ambiguous),
            ("replica_stall", self.faults.replica_stalls),
        ] {
            out.push_str(&format!(
                "azsim_fault_injections_total{{kind=\"{kind}\"}} {v}\n"
            ));
        }

        out.push_str("# TYPE azsim_ambiguous_outcomes_total counter\n");
        out.push_str(&format!(
            "azsim_ambiguous_outcomes_total {}\n",
            self.faults.ambiguous
        ));

        out.push_str("# TYPE azsim_partition_ops_total counter\n");
        for h in &self.partitions {
            // `partition` embeds user-chosen container/queue/table names, so
            // it is the one label that can carry exposition-breaking bytes;
            // every other label value is a fixed enum name or a number.
            out.push_str(&format!(
                "azsim_partition_ops_total{{partition=\"{}\",server=\"{}\"}} {}\n",
                escape_label(&h.partition),
                h.server,
                h.ops
            ));
        }

        // Phase latencies as Prometheus summaries: one series per quantile
        // plus the _sum/_count pair.
        out.push_str("# TYPE azsim_phase_latency_seconds summary\n");
        for c in &self.phases {
            let mut emit = |q: &QuantileSnapshot| {
                for (quantile, v) in [
                    ("0.5", q.p50_s),
                    ("0.95", q.p95_s),
                    ("0.99", q.p99_s),
                    ("0.999", q.p999_s),
                ] {
                    out.push_str(&format!(
                        "azsim_phase_latency_seconds{{class=\"{}\",phase=\"{}\",quantile=\"{}\"}} {:?}\n",
                        c.class, q.phase, quantile, v
                    ));
                }
                out.push_str(&format!(
                    "azsim_phase_latency_seconds_sum{{class=\"{}\",phase=\"{}\"}} {:?}\n",
                    c.class, q.phase, q.sum_s
                ));
                out.push_str(&format!(
                    "azsim_phase_latency_seconds_count{{class=\"{}\",phase=\"{}\"}} {}\n",
                    c.class, q.phase, q.count
                ));
            };
            emit(&c.end_to_end);
            for q in &c.phases {
                emit(q);
            }
        }
        out
    }

    /// Render as OTLP/HTTP-shaped JSON (the `ExportMetricsServiceRequest`
    /// wire shape: `resourceMetrics` → `resource`/`scopeMetrics` →
    /// `scope`/`metrics`), hand-encoded offline — no collector, no new
    /// crates. Cumulative sums carry `asInt` (OTLP encodes int64 as a JSON
    /// string); phase latencies export as OTLP summaries with the same
    /// quantiles as the Prometheus view. Timestamps are `"0"`: the
    /// simulation runs in virtual time, and a deterministic export must
    /// not embed wall clocks. `resource` attributes are appended after
    /// `service.name=azurebench`, letting callers tag host/run provenance.
    pub fn to_otlp_json(&self, resource: &[(&str, &str)]) -> String {
        let mut attrs = vec![otlp_attr("service.name", "azurebench")];
        attrs.extend(resource.iter().map(|(k, v)| otlp_attr(k, v)));

        let mut metrics = Vec::new();

        let mut points = Vec::new();
        for o in &self.ops {
            for (outcome, v) in [
                ("ok", o.completed),
                ("throttled", o.throttled),
                ("failed", o.failed),
            ] {
                points.push(otlp_int_point(
                    &[otlp_attr("class", &o.class), otlp_attr("outcome", outcome)],
                    v,
                ));
            }
        }
        metrics.push(otlp_sum("azsim.ops", "{operation}", &points));

        let mut points = Vec::new();
        for o in &self.ops {
            for (direction, v) in [("up", o.bytes_up), ("down", o.bytes_down)] {
                points.push(otlp_int_point(
                    &[
                        otlp_attr("class", &o.class),
                        otlp_attr("direction", direction),
                    ],
                    v,
                ));
            }
        }
        metrics.push(otlp_sum("azsim.bytes", "By", &points));

        let mut points = Vec::new();
        for (kind, v) in [
            ("busy", self.faults.injected_busy),
            ("crash", self.faults.crash_faults),
            ("blackout", self.faults.blackout_faults),
            ("drop", self.faults.dropped),
            ("ack_loss", self.faults.ack_losses),
            ("crash_ambiguous", self.faults.crash_ambiguous),
            ("replica_stall", self.faults.replica_stalls),
        ] {
            points.push(otlp_int_point(&[otlp_attr("kind", kind)], v));
        }
        metrics.push(otlp_sum("azsim.fault.injections", "{fault}", &points));
        metrics.push(otlp_sum(
            "azsim.ambiguous.outcomes",
            "{operation}",
            &[otlp_int_point(&[], self.faults.ambiguous)],
        ));

        let mut points = Vec::new();
        for h in &self.partitions {
            points.push(otlp_int_point(
                &[
                    otlp_attr("partition", &h.partition),
                    otlp_attr("server", &h.server.to_string()),
                ],
                h.ops,
            ));
        }
        metrics.push(otlp_sum("azsim.partition.ops", "{operation}", &points));

        let mut points = Vec::new();
        for c in &self.phases {
            let mut emit = |q: &QuantileSnapshot| {
                points.push(otlp_summary_point(
                    &[otlp_attr("class", &c.class), otlp_attr("phase", &q.phase)],
                    q,
                ));
            };
            emit(&c.end_to_end);
            for q in &c.phases {
                emit(q);
            }
        }
        metrics.push(format!(
            "{{\"name\":\"azsim.phase.latency\",\"unit\":\"s\",\
             \"summary\":{{\"dataPoints\":[{}]}}}}",
            points.join(",")
        ));

        format!(
            "{{\"resourceMetrics\":[{{\"resource\":{{\"attributes\":[{}]}},\
             \"scopeMetrics\":[{{\"scope\":{{\"name\":\"azsim_fabric.metrics\",\
             \"version\":\"{}\"}},\"metrics\":[{}]}}]}}]}}",
            attrs.join(","),
            self.schema,
            metrics.join(",")
        )
    }
}

/// One OTLP string attribute: `{"key":…,"value":{"stringValue":…}}`.
fn otlp_attr(key: &str, value: &str) -> String {
    let mut s = String::from("{\"key\":");
    serde::ser::write_escaped(key, &mut s);
    s.push_str(",\"value\":{\"stringValue\":");
    serde::ser::write_escaped(value, &mut s);
    s.push_str("}}");
    s
}

/// One cumulative integer data point (int64 rides as a JSON string on the
/// OTLP/HTTP wire).
fn otlp_int_point(attrs: &[String], v: u64) -> String {
    format!(
        "{{\"attributes\":[{}],\"startTimeUnixNano\":\"0\",\"timeUnixNano\":\"0\",\
         \"asInt\":\"{v}\"}}",
        attrs.join(",")
    )
}

/// One cumulative sum metric.
fn otlp_sum(name: &str, unit: &str, points: &[String]) -> String {
    format!(
        "{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"sum\":{{\"aggregationTemporality\":2,\
         \"isMonotonic\":true,\"dataPoints\":[{}]}}}}",
        points.join(",")
    )
}

/// One summary data point mirroring the Prometheus summary view, with the
/// exact maximum exported as the 1.0 quantile.
fn otlp_summary_point(attrs: &[String], q: &QuantileSnapshot) -> String {
    let quantiles = [
        (0.5, q.p50_s),
        (0.95, q.p95_s),
        (0.99, q.p99_s),
        (0.999, q.p999_s),
        (1.0, q.max_s),
    ]
    .iter()
    .map(|&(quantile, v)| format!("{{\"quantile\":{quantile:?},\"value\":{v:?}}}"))
    .collect::<Vec<_>>()
    .join(",");
    format!(
        "{{\"attributes\":[{}],\"startTimeUnixNano\":\"0\",\"timeUnixNano\":\"0\",\
         \"count\":\"{}\",\"sum\":{:?},\"quantileValues\":[{quantiles}]}}",
        attrs.join(","),
        q.count,
        q.sum_s
    )
}

/// Escape a label value for the Prometheus text exposition format:
/// backslash, double quote and line feed must be backslash-escaped inside
/// the quoted value or the scrape line is truncated/corrupted.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = ClusterMetrics::new();
        {
            let c = m.counter_mut(OpClass::QueuePut);
            c.completed += 2;
            c.bytes_up += 100;
            c.latency.record(0.01);
        }
        m.counter_mut(OpClass::QueueGet).throttled += 1;
        assert_eq!(m.total_completed(), 2);
        assert_eq!(m.total_throttled(), 1);
        assert_eq!(m.total_bytes(), 100);
        assert_eq!(m.counter(OpClass::QueuePut).unwrap().completed, 2);
        assert!(m.counter(OpClass::TableInsert).is_none());
    }

    #[test]
    fn iter_is_deterministically_ordered() {
        let mut m = ClusterMetrics::new();
        m.counter_mut(OpClass::TableInsert).completed = 1;
        m.counter_mut(OpClass::BlobDownload).completed = 1;
        m.counter_mut(OpClass::QueuePut).completed = 1;
        // Only touched classes appear, in OpClass declaration-index order.
        let classes: Vec<OpClass> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(
            classes,
            vec![
                OpClass::BlobDownload,
                OpClass::QueuePut,
                OpClass::TableInsert
            ]
        );
        let indices: Vec<usize> = classes.iter().map(|c| c.index()).collect();
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        assert_eq!(indices, sorted);
    }

    fn sample_snapshot() -> MetricsSnapshot {
        let mut m = ClusterMetrics::new();
        {
            let c = m.counter_mut(OpClass::QueuePut);
            c.completed = 3;
            c.throttled = 1;
            c.bytes_up = 300;
            c.latency.record(0.010);
            c.latency.record(0.020);
            c.latency.record(0.030);
        }
        let mut agg = PhaseAggregate::new();
        let mut phases = crate::trace::PhaseBreadcrumb::new();
        phases.add(Phase::Service, std::time::Duration::from_millis(5));
        phases.add(Phase::Transfer, std::time::Duration::from_millis(2));
        agg.record(&crate::trace::OpRecord {
            issued: azsim_core::SimTime(0),
            completed: azsim_core::SimTime(7_000_000),
            actor: 0,
            class: OpClass::QueuePut,
            partition: 0,
            outcome: OpOutcome::Ok,
            throttled: false,
            bytes_up: 100,
            bytes_down: 0,
            phases,
        });
        MetricsSnapshot::build(
            &m,
            &FaultMetrics::default(),
            vec![PartitionHeat {
                partition: "queue:hot".into(),
                server: 2,
                ops: 4,
                throttled: 1,
            }],
            Some(&agg),
        )
    }

    #[test]
    fn snapshot_json_is_schema_tagged_and_deterministic() {
        let snap = sample_snapshot();
        let json = snap.to_json();
        assert!(json.starts_with("{\"schema\":\"azurebench-metrics/v1\""));
        assert!(json.contains("\"class\":\"queue.put\""));
        assert!(json.contains("\"partition\":\"queue:hot\""));
        assert!(json.contains("\"phase\":\"service\""));
        // Same inputs serialize byte-identically (shortest-roundtrip floats).
        assert_eq!(json, sample_snapshot().to_json());
    }

    #[test]
    fn hostile_partition_labels_are_escaped() {
        let snap = MetricsSnapshot::build(
            &ClusterMetrics::new(),
            &FaultMetrics::default(),
            vec![PartitionHeat {
                partition: "queue:evil\"},inject=\"1\\\nnew".into(),
                server: 0,
                ops: 1,
                throttled: 0,
            }],
            None,
        );
        let prom = snap.to_prometheus();
        assert!(prom.contains(
            "azsim_partition_ops_total{partition=\"queue:evil\\\"},inject=\\\"1\\\\\\nnew\",server=\"0\"} 1"
        ));
        // No label value may smuggle a raw quote, backslash or newline into
        // the exposition stream: every line must still parse as
        // name{labels} value (or a label-free name value).
        for line in prom.lines().filter(|l| !l.starts_with('#')) {
            assert!(line.matches('{').count() <= 1, "corrupt line: {line}");
            assert!(
                line.ends_with(" 1") || line.ends_with(" 0"),
                "corrupt line: {line}"
            );
        }
    }

    #[test]
    fn snapshot_prometheus_exposes_every_family() {
        let prom = sample_snapshot().to_prometheus();
        for family in [
            "azsim_ops_total",
            "azsim_bytes_total",
            "azsim_fault_injections_total",
            "azsim_partition_ops_total",
            "azsim_phase_latency_seconds",
        ] {
            assert!(
                prom.contains(&format!("# TYPE {family} ")),
                "{family} TYPE line missing"
            );
        }
        assert!(prom.contains("azsim_ops_total{class=\"queue.put\",outcome=\"ok\"} 3"));
        assert!(prom.contains("azsim_ops_total{class=\"queue.put\",outcome=\"throttled\"} 1"));
        assert!(prom.contains("azsim_partition_ops_total{partition=\"queue:hot\",server=\"2\"} 4"));
        assert!(prom.contains(
            "azsim_phase_latency_seconds_count{class=\"queue.put\",phase=\"service\"} 1"
        ));
        assert!(prom.contains("quantile=\"0.999\""));
    }

    #[test]
    fn otlp_export_is_shaped_and_deterministic() {
        let snap = sample_snapshot();
        let otlp = snap.to_otlp_json(&[("host.name", "ci-runner")]);
        // The ExportMetricsServiceRequest wire shape, outermost first.
        assert!(otlp.starts_with("{\"resourceMetrics\":[{\"resource\":"));
        assert!(
            otlp.contains("{\"key\":\"service.name\",\"value\":{\"stringValue\":\"azurebench\"}}")
        );
        assert!(otlp.contains("{\"key\":\"host.name\",\"value\":{\"stringValue\":\"ci-runner\"}}"));
        assert!(otlp.contains(
            "\"scope\":{\"name\":\"azsim_fabric.metrics\",\"version\":\"azurebench-metrics/v1\"}"
        ));
        // Cumulative monotonic sums with int64-as-string points.
        assert!(otlp.contains("\"name\":\"azsim.ops\""));
        assert!(otlp.contains("\"aggregationTemporality\":2,\"isMonotonic\":true"));
        assert!(otlp.contains("\"asInt\":\"3\""));
        assert!(otlp.contains("{\"key\":\"outcome\",\"value\":{\"stringValue\":\"throttled\"}}"));
        // The summary mirrors the Prometheus quantiles plus the exact max.
        assert!(otlp.contains("\"name\":\"azsim.phase.latency\""));
        assert!(otlp.contains("\"quantile\":0.999"));
        assert!(otlp.contains("\"quantile\":1.0"));
        // Virtual time: no wall-clock timestamps, ever.
        assert!(otlp.contains("\"timeUnixNano\":\"0\""));
        // Same snapshot → byte-identical export.
        assert_eq!(
            otlp,
            sample_snapshot().to_otlp_json(&[("host.name", "ci-runner")])
        );
        // It parses as JSON (the shim parser is strict about structure).
        serde::value::parse(otlp.as_bytes()).expect("OTLP export parses");
    }

    #[test]
    fn otlp_prometheus_and_json_derive_from_one_snapshot() {
        // One snapshot value feeds all three exports: the counts any two
        // exports report for the same series must agree.
        let snap = sample_snapshot();
        let (json, prom, otlp) = (snap.to_json(), snap.to_prometheus(), snap.to_otlp_json(&[]));
        assert!(json.contains("\"completed\":3"));
        assert!(prom.contains("azsim_ops_total{class=\"queue.put\",outcome=\"ok\"} 3"));
        assert!(otlp.contains("\"asInt\":\"3\""));
        assert!(prom.contains("azsim_partition_ops_total{partition=\"queue:hot\",server=\"2\"} 4"));
        assert!(otlp.contains("{\"key\":\"partition\",\"value\":{\"stringValue\":\"queue:hot\"}}"));
    }

    #[test]
    fn phase_snapshots_omit_empty_phases() {
        let snap = sample_snapshot();
        assert_eq!(snap.phases.len(), 1);
        let class = &snap.phases[0];
        assert_eq!(class.class, "queue.put");
        assert_eq!(class.outcomes.ok, 1);
        let labels: Vec<&str> = class.phases.iter().map(|q| q.phase.as_str()).collect();
        // Only the phases that saw time appear, in Phase::ALL order.
        assert_eq!(labels, vec!["service", "transfer"]);
        assert_eq!(class.end_to_end.count, 1);
    }

    #[test]
    fn phase_snapshots_sum_both_timeout_kinds() {
        let mut agg = PhaseAggregate::new();
        for outcome in [
            OpOutcome::TimedOutLost,
            OpOutcome::TimedOutExecuted,
            OpOutcome::Error,
        ] {
            agg.record(&crate::trace::OpRecord {
                issued: azsim_core::SimTime(0),
                completed: azsim_core::SimTime(1_000),
                actor: 0,
                class: OpClass::QueuePut,
                partition: 0,
                outcome,
                throttled: false,
                bytes_up: 0,
                bytes_down: 0,
                phases: crate::trace::PhaseBreadcrumb::new(),
            });
        }
        let outcomes = &phase_snapshots(&agg)[0].outcomes;
        assert_eq!((outcomes.timed_out, outcomes.failed), (2, 1));
    }
}
