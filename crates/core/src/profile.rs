//! `figures profile`: flame-style attribution of where virtual time goes.
//!
//! Runs the mixed blob/queue/table workload over a worker ladder with
//! phase profiling enabled (streaming aggregation — no records retained),
//! folds client-side retry waits in as `retry_backoff` spans, and merges
//! the per-point aggregates into one per-class, per-phase breakdown. The
//! result exports as a rendered table, deterministic JSON
//! (`results/profile.json`) and Prometheus text format, so the next
//! performance PR can see *which stage* — queue wait, service, replica
//! sync, transfer — produces each latency knee.
//!
//! The workload deliberately includes a queue shared by every worker: at
//! the top of the ladder its 500 msg/s bucket throttles, which exercises
//! the retry path and populates the `retry_backoff` phase.

use crate::config::BenchConfig;
use crate::payload::PayloadGen;
use crate::sweep::sweep_points;
use azsim_client::{
    BlobClient, Environment, QueueClient, ResilientPolicy, RetrySpan, TableClient, VirtualEnv,
};
use azsim_core::Simulation;
use azsim_fabric::metrics::{phase_snapshots, ClassPhaseSnapshot};
use azsim_fabric::{MetricsSnapshot, Phase, PhaseAggregate};
use azsim_storage::{Entity, PropValue};
use serde::Serialize;
use std::rc::Rc;

/// Schema identifier written into every profile JSON export.
pub const PROFILE_SCHEMA: &str = "azurebench-profile/v1";

/// One ladder point of the profile run.
pub struct ProfilePoint {
    /// Worker count at this point.
    pub workers: usize,
    /// Requests the runtime processed.
    pub requests: u64,
    /// Virtual end time of the point, seconds.
    pub end_time_s: f64,
    /// Client-side retry waits recorded at this point.
    pub retries: u64,
    /// The cluster's exported metrics (includes this point's phase stats).
    pub snapshot: MetricsSnapshot,
    aggregate: PhaseAggregate,
}

/// The full profile: every ladder point plus the cross-ladder merge.
pub struct ProfileReport {
    /// Workload scale factor the run used.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Mixed-workload iterations per worker.
    pub ops_per_worker: usize,
    /// Ladder points, in input order.
    pub points: Vec<ProfilePoint>,
    merged: PhaseAggregate,
}

#[derive(Serialize)]
struct ProfileConfigDoc {
    scale: f64,
    seed: u64,
    ops_per_worker: u64,
    ladder: Vec<u64>,
}

#[derive(Serialize)]
struct ProfilePointDoc {
    workers: u64,
    requests: u64,
    end_time_s: f64,
    retries: u64,
    snapshot: MetricsSnapshot,
}

#[derive(Serialize)]
struct ReconciliationDoc {
    phase_sum_s: f64,
    end_to_end_sum_s: f64,
    relative_gap: f64,
}

#[derive(Serialize)]
struct ProfileDoc {
    schema: String,
    config: ProfileConfigDoc,
    points: Vec<ProfilePointDoc>,
    merged_phases: Vec<ClassPhaseSnapshot>,
    reconciliation: ReconciliationDoc,
}

/// Run one ladder point: `workers` role instances driving the mixed
/// workload through a span-logging [`ResilientPolicy`].
fn run_point(cfg: &BenchConfig, workers: usize, ops_per_worker: usize) -> ProfilePoint {
    let seed = cfg.seed;
    let mut cluster = crate::exec::build_cluster(cfg);
    cluster.enable_phase_profiling();
    let sim = Simulation::new(cluster, seed);
    let report = sim.run_workers(workers, move |ctx| async move {
        let env = VirtualEnv::new(&ctx);
        let me = env.instance();
        let policy = Rc::new(ResilientPolicy::new(seed ^ me as u64).with_span_log());
        let shared = QueueClient::new(&env, "profile-shared").with_policy(policy.clone());
        shared.create().await.unwrap();
        let own = QueueClient::new(&env, format!("profile-{me}")).with_policy(policy.clone());
        own.create().await.unwrap();
        let blobs = BlobClient::new(&env, "profile").with_policy(policy.clone());
        blobs.create_container().await.unwrap();
        let table = TableClient::new(&env, "profile").with_policy(policy.clone());
        table.create_table().await.unwrap();
        let mut gen = PayloadGen::new(seed, me as u64);

        for i in 0..ops_per_worker {
            // The shared queue contends across all workers (throttles and
            // retries at the top of the ladder); errors after retry
            // exhaustion are tolerated — they still show up in the trace.
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
            let _ = table
                .update(
                    Entity::new(format!("p{me}"), i.to_string())
                        .with("v", PropValue::Binary(gen.bytes(2 << 10))),
                )
                .await;
        }
        policy.take_retry_spans()
    });

    let mut model = report.model;
    let spans: Vec<RetrySpan> = report.results.into_iter().flatten().collect();
    let retries = spans.len() as u64;
    // Retry waits are client-side; fold them into the aggregate as the
    // retry_backoff phase (worker order is deterministic).
    if let Some(agg) = model.tracer_mut().and_then(|t| t.phase_stats_mut()) {
        for s in &spans {
            agg.record_retry(s.class, s.wait);
        }
    }
    let aggregate = model
        .tracer()
        .and_then(|t| t.phase_stats())
        .cloned()
        .unwrap_or_default();
    ProfilePoint {
        workers,
        requests: report.requests,
        end_time_s: report.end_time.as_secs_f64(),
        retries,
        snapshot: model.snapshot(),
        aggregate,
    }
}

/// Profile the mixed workload over `ladder` worker counts. Points run on
/// the sweep engine (`cfg.sweep_threads`); the merge happens in ladder
/// order, so the result is byte-identical for any thread count.
pub fn run_profile(cfg: &BenchConfig, ladder: &[usize], ops_per_worker: usize) -> ProfileReport {
    let points = sweep_points(ladder, cfg.sweep_threads, |&w| {
        run_point(cfg, w, ops_per_worker)
    });
    let mut merged = PhaseAggregate::new();
    for p in &points {
        merged.merge(&p.aggregate);
    }
    ProfileReport {
        scale: cfg.scale,
        seed: cfg.seed,
        ops_per_worker,
        points,
        merged,
    }
}

impl ProfileReport {
    /// The cross-ladder per-class, per-phase aggregate.
    pub fn merged(&self) -> &PhaseAggregate {
        &self.merged
    }

    /// `(sum of server-side phase sums, sum of end-to-end sums)` across all
    /// classes, in seconds. Breadcrumbs partition each record's latency
    /// exactly, so the two differ only by float accumulation error.
    pub fn reconciliation(&self) -> (f64, f64) {
        let mut phase_sum = 0.0;
        let mut e2e_sum = 0.0;
        for (_, stats) in self.merged.iter() {
            phase_sum += stats.phase_sum();
            e2e_sum += stats.end_to_end().sum();
        }
        (phase_sum, e2e_sum)
    }

    /// Render the per-phase breakdown table: one block per class with the
    /// end-to-end distribution first, then each phase with its share of
    /// the class's total time.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<24} | {:<14} | {:>7} | {:>9} | {:>9} | {:>9} | {:>9} | {:>7}\n",
            "op", "phase", "count", "mean ms", "p50 ms", "p95 ms", "p99 ms", "share %"
        );
        for (class, stats) in self.merged.iter() {
            let e2e = stats.end_to_end();
            let e2e_sum = e2e.sum();
            let mut row = |label: &str, h: &azsim_core::stats::Histogram, share: f64| {
                out.push_str(&format!(
                    "{:<24} | {:<14} | {:>7} | {:>9.3} | {:>9.3} | {:>9.3} | {:>9.3} | {:>7.1}\n",
                    class.label(),
                    label,
                    h.count(),
                    h.mean() * 1e3,
                    h.quantile(0.50) * 1e3,
                    h.quantile(0.95) * 1e3,
                    h.quantile(0.99) * 1e3,
                    share,
                ));
            };
            row("end_to_end", e2e, 100.0);
            for p in Phase::ALL {
                let h = stats.phase(p);
                if h.count() > 0 {
                    let share = if e2e_sum > 0.0 {
                        h.sum() / e2e_sum * 100.0
                    } else {
                        0.0
                    };
                    row(p.label(), h, share);
                }
            }
        }
        let (phase_sum, e2e_sum) = self.reconciliation();
        if e2e_sum > 0.0 {
            out.push_str(&format!(
                "(phase sums cover {:.4}% of {:.3}s total end-to-end time; \
                 retry_backoff is client-side and excluded)\n",
                phase_sum / e2e_sum * 100.0,
                e2e_sum
            ));
        }
        out
    }

    fn doc(&self) -> ProfileDoc {
        let (phase_sum, e2e_sum) = self.reconciliation();
        ProfileDoc {
            schema: PROFILE_SCHEMA.to_string(),
            config: ProfileConfigDoc {
                scale: self.scale,
                seed: self.seed,
                ops_per_worker: self.ops_per_worker as u64,
                ladder: self.points.iter().map(|p| p.workers as u64).collect(),
            },
            points: self
                .points
                .iter()
                .map(|p| ProfilePointDoc {
                    workers: p.workers as u64,
                    requests: p.requests,
                    end_time_s: p.end_time_s,
                    retries: p.retries,
                    snapshot: p.snapshot.clone(),
                })
                .collect(),
            merged_phases: phase_snapshots(&self.merged),
            reconciliation: ReconciliationDoc {
                phase_sum_s: phase_sum,
                end_to_end_sum_s: e2e_sum,
                relative_gap: if e2e_sum > 0.0 {
                    (e2e_sum - phase_sum).abs() / e2e_sum
                } else {
                    0.0
                },
            },
        }
    }

    /// Serialize the whole profile to JSON. Deterministic: fixed field
    /// order, shortest-roundtrip floats, merge in ladder order — the same
    /// config and seed give byte-identical output at any `--threads`.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.doc()).expect("profile serialization is infallible")
    }

    /// Prometheus text exposition of the top ladder point (the most loaded
    /// cluster: counters, fault tallies, partition heat and its phase
    /// summaries).
    pub fn to_prometheus(&self) -> String {
        self.points
            .last()
            .map(|p| p.snapshot.to_prometheus())
            .unwrap_or_default()
    }

    /// OTLP-shaped JSON of the same top-ladder-point snapshot the
    /// Prometheus export renders — one `MetricsSnapshot`, three wire
    /// formats. Run provenance (scale, seed, worker count) rides as
    /// resource attributes.
    pub fn to_otlp(&self) -> String {
        self.points
            .last()
            .map(|p| {
                p.snapshot.to_otlp_json(&[
                    ("azurebench.scale", &format!("{:?}", self.scale)),
                    ("azurebench.seed", &self.seed.to_string()),
                    ("azurebench.workers", &p.workers.to_string()),
                ])
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use azsim_fabric::OpOutcome;

    fn small_profile() -> ProfileReport {
        let cfg = BenchConfig::paper().with_scale(0.05).with_sweep_threads(1);
        run_profile(&cfg, &[1, 4], 10)
    }

    #[test]
    fn phases_reconcile_with_end_to_end() {
        let r = small_profile();
        let (phase_sum, e2e_sum) = r.reconciliation();
        assert!(e2e_sum > 0.0);
        // Exact partition up to float accumulation.
        assert!(
            (phase_sum - e2e_sum).abs() <= 1e-9 * e2e_sum.max(1.0),
            "phase sum {phase_sum} vs end-to-end {e2e_sum}"
        );
    }

    #[test]
    fn covers_all_services_and_orders_quantiles() {
        let r = small_profile();
        for class in [
            azsim_storage::OpClass::QueuePut,
            azsim_storage::OpClass::BlobUploadSingle,
            azsim_storage::OpClass::TableInsert,
        ] {
            let stats = r.merged().class(class).expect("class covered");
            let e2e = stats.end_to_end();
            assert!(e2e.count() > 0);
            assert!(e2e.quantile(0.5) <= e2e.quantile(0.95));
            assert!(e2e.quantile(0.95) <= e2e.quantile(0.99));
            assert!(stats.outcome_count(OpOutcome::Ok) > 0);
        }
    }

    #[test]
    fn otlp_export_matches_schema_and_shares_the_snapshot() {
        let r = small_profile();
        let otlp = r.to_otlp();
        let doc = serde::value::parse(otlp.as_bytes()).expect("OTLP export parses");
        let errors = crate::schema::validate_against_file(
            &doc,
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../schemas/otlp_metrics.schema.json"
            ),
        );
        assert!(errors.is_empty(), "{errors:?}");
        // Same top-ladder snapshot feeds Prometheus and OTLP: the total
        // completed count appears in both.
        let completed = r.points.last().unwrap().snapshot.totals.completed;
        assert!(r.to_prometheus().contains(&format!("outcome=\"ok\"}} {}", {
            let snap = &r.points.last().unwrap().snapshot;
            snap.ops.first().unwrap().completed
        })));
        assert!(completed > 0);
        assert!(otlp.contains("azurebench.workers"));
    }

    #[test]
    fn json_and_prometheus_have_required_structure() {
        let r = small_profile();
        let json = r.to_json();
        assert!(json.starts_with('{'));
        assert!(json.contains("\"schema\":\"azurebench-profile/v1\""));
        assert!(json.contains("\"merged_phases\""));
        assert!(json.contains("\"reconciliation\""));
        let prom = r.to_prometheus();
        for family in [
            "azsim_ops_total",
            "azsim_bytes_total",
            "azsim_fault_injections_total",
            "azsim_partition_ops_total",
            "azsim_phase_latency_seconds",
        ] {
            assert!(prom.contains(family), "{family} missing");
        }
        let table = r.render();
        assert!(table.contains("end_to_end"));
        assert!(table.contains("service"));
    }
}
