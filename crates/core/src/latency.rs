//! Latency-distribution reporting.
//!
//! The paper reports per-operation *means*; with the fabric's tracer we
//! can additionally report full latency distributions (p50/p95/p99) per
//! operation class — the shape modern storage benchmarks (YCSB, CosBench)
//! report. [`profile_mixed`] drives a representative mixed workload with
//! tracing enabled and summarizes it. Distributions are held in
//! [`Samples`]' HDR-style histograms, so the report is O(1) memory in the
//! number of traced operations.

use crate::config::BenchConfig;
use crate::payload::PayloadGen;
use azsim_client::{BlobClient, Environment, QueueClient, TableClient, VirtualEnv};
use azsim_core::stats::Samples;
use azsim_core::Simulation;
use azsim_fabric::{OpOutcome, Tracer};
use azsim_storage::{Entity, OpClass, PropValue};
use std::collections::HashMap;

/// Per-class latency distributions harvested from a trace.
#[derive(Debug, Default)]
pub struct LatencyReport {
    per_class: HashMap<OpClass, Samples>,
    throttled: u64,
    failed: u64,
    faulted: u64,
    timed_out: u64,
}

impl LatencyReport {
    /// Build a report from a trace buffer (successful ops only; throttles
    /// and the three failure kinds are counted separately, so
    /// fault-injection runs can tell timeouts from server faults from
    /// semantic errors).
    pub fn from_trace(tracer: &Tracer) -> Self {
        let mut report = LatencyReport::default();
        for r in tracer.records() {
            match r.outcome {
                OpOutcome::Ok => report
                    .per_class
                    .entry(r.class)
                    .or_default()
                    .record(r.latency().as_secs_f64()),
                OpOutcome::Throttled => report.throttled += 1,
                OpOutcome::Error => report.failed += 1,
                OpOutcome::Faulted => report.faulted += 1,
                OpOutcome::TimedOutLost | OpOutcome::TimedOutExecuted => report.timed_out += 1,
            }
        }
        report
    }

    /// Distribution for one class, if observed.
    pub fn samples(&self, class: OpClass) -> Option<&Samples> {
        self.per_class.get(&class)
    }

    /// Number of throttled operations in the trace.
    pub fn throttled(&self) -> u64 {
        self.throttled
    }

    /// Number of semantically failed operations in the trace.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Number of operations rejected by injected server faults.
    pub fn faulted(&self) -> u64 {
        self.faulted
    }

    /// Number of operations dropped by fault injection (client timeouts).
    pub fn timed_out(&self) -> u64 {
        self.timed_out
    }

    /// Render an aligned per-class table (count, mean, p50, p95, p99, max),
    /// classes in label order, latencies in milliseconds.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<24} | {:>7} | {:>9} | {:>9} | {:>9} | {:>9} | {:>9}\n",
            "op", "count", "mean ms", "p50 ms", "p95 ms", "p99 ms", "max ms"
        );
        let mut classes: Vec<OpClass> = self.per_class.keys().copied().collect();
        classes.sort_by_key(|c| c.label());
        for class in classes {
            let s = &self.per_class[&class];
            out.push_str(&format!(
                "{:<24} | {:>7} | {:>9.3} | {:>9.3} | {:>9.3} | {:>9.3} | {:>9.3}\n",
                class.label(),
                s.len(),
                s.mean() * 1e3,
                s.quantile(0.50) * 1e3,
                s.quantile(0.95) * 1e3,
                s.quantile(0.99) * 1e3,
                s.quantile(1.0) * 1e3,
            ));
        }
        let excluded = self.throttled + self.failed + self.faulted + self.timed_out;
        if excluded > 0 {
            out.push_str(&format!(
                "({} throttled, {} failed, {} faulted, {} timed-out ops excluded)\n",
                self.throttled, self.failed, self.faulted, self.timed_out
            ));
        }
        out
    }
}

/// Drive a mixed blob/queue/table workload with tracing enabled and
/// return its latency distributions. Deterministic under `cfg.seed`.
pub fn profile_mixed(cfg: &BenchConfig, workers: usize, ops_per_worker: usize) -> LatencyReport {
    let seed = cfg.seed;
    let mut cluster = crate::exec::build_cluster(cfg);
    cluster.enable_tracing(workers * ops_per_worker * 8 + 1024);
    let sim = Simulation::new(cluster, seed);
    let report = sim.run_workers(workers, move |ctx| async move {
        let env = VirtualEnv::new(&ctx);
        let me = env.instance();
        let blobs = BlobClient::new(&env, "mix");
        blobs.create_container().await.unwrap();
        let queue = QueueClient::new(&env, format!("mix-{me}"));
        queue.create().await.unwrap();
        let table = TableClient::new(&env, "mix");
        table.create_table().await.unwrap();
        let mut gen = PayloadGen::new(seed, me as u64);

        for i in 0..ops_per_worker {
            // One representative op of each service per iteration.
            queue.put_message(gen.bytes(8 << 10)).await.unwrap();
            if let Some(m) = queue.get_message().await.unwrap() {
                queue.delete_message(&m).await.unwrap();
            }
            blobs
                .upload(&format!("b-{me}-{i}"), gen.bytes(64 << 10))
                .await
                .unwrap();
            let _ = blobs.download(&format!("b-{me}-{i}")).await.unwrap();
            table
                .insert(
                    Entity::new(format!("p{me}"), i.to_string())
                        .with("v", PropValue::Binary(gen.bytes(4 << 10))),
                )
                .await
                .unwrap();
            let _ = table
                .query(&format!("p{me}"), &i.to_string())
                .await
                .unwrap();
        }
    });
    LatencyReport::from_trace(report.model.tracer().expect("tracing enabled"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use azsim_core::SimTime;
    use azsim_fabric::{OpRecord, PhaseBreadcrumb};

    #[test]
    fn mixed_profile_covers_all_three_services() {
        let cfg = BenchConfig::paper();
        let r = profile_mixed(&cfg, 4, 10);
        for class in [
            OpClass::QueuePut,
            OpClass::QueueGet,
            OpClass::BlobUploadSingle,
            OpClass::BlobDownload,
            OpClass::TableInsert,
            OpClass::TableQuery,
        ] {
            let s = r
                .samples(class)
                .unwrap_or_else(|| panic!("{class:?} missing"));
            assert_eq!(s.len(), 40, "{class:?}");
            assert!(s.mean() > 0.0);
        }
        assert_eq!(r.failed(), 0);
        assert_eq!(r.faulted(), 0);
        assert_eq!(r.timed_out(), 0);
    }

    #[test]
    fn percentiles_are_ordered() {
        let cfg = BenchConfig::paper();
        let r = profile_mixed(&cfg, 4, 10);
        let s = r.samples(OpClass::QueueGet).unwrap();
        let (p50, p95, p99, max) = (
            s.quantile(0.5),
            s.quantile(0.95),
            s.quantile(0.99),
            s.quantile(1.0),
        );
        assert!(p50 <= p95 && p95 <= p99 && p99 <= max);
        assert!(p50 > 0.0);
    }

    #[test]
    fn render_contains_header_and_classes() {
        let cfg = BenchConfig::paper();
        let r = profile_mixed(&cfg, 2, 5);
        let table = r.render();
        assert!(table.contains("p99 ms"));
        assert!(table.contains("queue.put"));
        assert!(table.contains("table.query"));
    }

    #[test]
    fn report_is_deterministic() {
        let cfg = BenchConfig::paper();
        let a = profile_mixed(&cfg, 3, 8);
        let b = profile_mixed(&cfg, 3, 8);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn failure_kinds_are_counted_separately() {
        // Regression: Failed | Faulted | TimedOut used to collapse into one
        // `failed` counter, hiding what fault injection actually did.
        let mut tracer = Tracer::default();
        tracer.keep_records(16);
        let rec = |outcome| OpRecord {
            issued: SimTime(0),
            completed: SimTime(1_000_000),
            actor: 0,
            class: OpClass::QueuePut,
            partition: 0,
            outcome,
            throttled: false,
            bytes_up: 8,
            bytes_down: 0,
            phases: PhaseBreadcrumb::new(),
        };
        tracer.record(rec(OpOutcome::Ok));
        tracer.record(rec(OpOutcome::Throttled));
        tracer.record(rec(OpOutcome::Error));
        tracer.record(rec(OpOutcome::Error));
        tracer.record(rec(OpOutcome::Faulted));
        tracer.record(rec(OpOutcome::Faulted));
        tracer.record(rec(OpOutcome::Faulted));
        tracer.record(rec(OpOutcome::TimedOutExecuted));

        let r = LatencyReport::from_trace(&tracer);
        assert_eq!(r.throttled(), 1);
        assert_eq!(r.failed(), 2);
        assert_eq!(r.faulted(), 3);
        assert_eq!(r.timed_out(), 1);
        assert_eq!(r.samples(OpClass::QueuePut).unwrap().len(), 1);
        let footer = r.render();
        assert!(footer.contains("1 throttled, 2 failed, 3 faulted, 1 timed-out"));
    }
}
