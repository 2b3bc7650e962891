//! Integration: phase-level observability under chaos.
//!
//! A queue workload runs against a cluster with a seeded [`FaultPlan`]
//! (partition-server crash, `ServerBusy` storm, random drops) and full
//! tracing enabled. The tests pin down the span model's core invariants:
//!
//! * every trace record's phase breadcrumb partitions its latency
//!   *exactly* — integer-nanosecond virtual time leaves no rounding gap;
//! * rejected operations (throttled, faulted, timed-out) carry the
//!   rejection breadcrumb and never claim server-side phase time;
//! * client-side retry waits surface as `retry_backoff` spans that fold
//!   into the aggregate, matching the policy's own retry counter;
//! * the merged profile reconciles: per class, the sum over server-side
//!   phases equals the end-to-end sum up to float accumulation.

use azsim_client::{Environment, QueueClient, ResilientPolicy, RetrySpan, VirtualEnv};
use azsim_core::{SimTime, Simulation};
use azsim_fabric::{
    BusyStorm, Cluster, ClusterParams, FaultPlan, OpOutcome, OpRecord, Phase, PhaseAggregate,
    ServerCrash,
};
use azsim_storage::PartitionKey;
use azurebench::profile::run_profile;
use azurebench::BenchConfig;
use std::rc::Rc;
use std::time::Duration;

const QUEUE: &str = "obs";
const WORKERS: usize = 4;
const OPS: usize = 400;

/// Storm early (t=0.3 s, 0.5 s long), crash the queue's server at t=1.5 s
/// (1.5 s failover), and drop ~2% of requests — enough chaos to exercise
/// every outcome within the workload's few virtual seconds.
fn chaos_plan(params: &ClusterParams) -> FaultPlan {
    let server = PartitionKey::Queue {
        queue: QUEUE.into(),
    }
    .server_index(params.servers);
    FaultPlan {
        seed: 11,
        crashes: vec![ServerCrash {
            server,
            at: SimTime(1_500_000_000),
            failover: Duration::from_millis(1500),
        }],
        busy_storms: vec![BusyStorm {
            at: SimTime(300_000_000),
            duration: Duration::from_millis(500),
            retry_after: Duration::from_millis(100),
        }],
        timeout_prob: 0.02,
        ..FaultPlan::default()
    }
}

/// Drive the chaos workload with tracing on; return the op records and
/// each worker's `(retry spans, policy retry counter)`.
fn run_chaos_traced(seed: u64) -> (Vec<OpRecord>, Vec<(Vec<RetrySpan>, u64)>) {
    let params = ClusterParams::default();
    let plan = chaos_plan(&params);
    let mut cluster = Cluster::new(params);
    cluster.set_fault_plan(plan);
    cluster.enable_tracing(WORKERS * OPS * 4 + 1024);

    let sim = Simulation::new(cluster, seed);
    let report = sim.run_workers(WORKERS, move |ctx| async move {
        let env = VirtualEnv::new(&ctx);
        let me = env.instance();
        let policy = Rc::new(
            ResilientPolicy::new(seed ^ me as u64)
                .with_max_attempts(6)
                .with_span_log(),
        );
        let queue = QueueClient::new(&env, QUEUE).with_policy(policy.clone());
        let _ = queue.create().await;
        for _ in 0..OPS {
            let _ = queue.put_message(bytes::Bytes::from(vec![0u8; 4096])).await;
            if let Ok(Some(m)) = queue.get_message().await {
                let _ = queue.delete_message(&m).await;
            }
        }
        (policy.take_retry_spans(), policy.stats().retries)
    });
    (
        report.model.tracer().unwrap().records().to_vec(),
        report.results,
    )
}

#[test]
fn breadcrumbs_partition_latency_exactly_for_every_outcome() {
    let (records, _) = run_chaos_traced(2012);
    assert!(!records.is_empty());

    let mut seen = [false; OpOutcome::COUNT];
    for r in &records {
        seen[r.outcome as usize] = true;
        // The partition invariant: phases sum to the record's latency with
        // no rounding gap at all (integer-nanosecond virtual time).
        assert_eq!(
            r.phases.total(),
            r.latency(),
            "phase gap in {:?} {:?} record",
            r.class,
            r.outcome
        );
        match r.outcome {
            OpOutcome::Ok | OpOutcome::Error => {
                assert_eq!(
                    r.phases.get(Phase::Rejection),
                    Duration::ZERO,
                    "served ops must not carry rejection time"
                );
                assert!(
                    r.phases.get(Phase::Service) > Duration::ZERO,
                    "served ops must record service time"
                );
            }
            OpOutcome::Throttled
            | OpOutcome::Faulted
            | OpOutcome::TimedOutLost
            | OpOutcome::TimedOutExecuted => {
                assert!(
                    r.phases.get(Phase::Rejection) > Duration::ZERO,
                    "{:?} record must carry the rejection breadcrumb",
                    r.outcome
                );
                for p in [
                    Phase::QueueWait,
                    Phase::Service,
                    Phase::ReplicaSync,
                    Phase::Transfer,
                ] {
                    assert_eq!(
                        r.phases.get(p),
                        Duration::ZERO,
                        "{:?} record must not claim server-side {:?} time",
                        r.outcome,
                        p
                    );
                }
            }
        }
        // Server-side records never contain client-side backoff.
        assert_eq!(r.phases.get(Phase::RetryBackoff), Duration::ZERO);
    }
    // The plan must actually have produced the interesting outcomes.
    for outcome in [
        OpOutcome::Ok,
        OpOutcome::Throttled,
        OpOutcome::Faulted,
        OpOutcome::TimedOutLost,
    ] {
        assert!(seen[outcome as usize], "no {outcome:?} record in trace");
    }
}

#[test]
fn retry_waits_surface_as_retry_phase_spans() {
    let (_, results) = run_chaos_traced(7);
    let mut agg = PhaseAggregate::new();
    let mut total_spans = 0u64;
    let mut total_retries = 0u64;
    for (spans, retries) in &results {
        // The span log and the policy's counter are two views of the same
        // events.
        assert_eq!(spans.len() as u64, *retries);
        total_retries += retries;
        for s in spans {
            assert!(s.wait > Duration::ZERO);
            assert!(s.attempt >= 1);
            agg.record_retry(s.class, s.wait);
            total_spans += 1;
        }
    }
    assert!(
        total_retries > 0,
        "the chaos plan must force at least one retry"
    );
    // Folded into the aggregate, the spans appear as the retry_backoff
    // phase — and only there.
    let mut backoff_count = 0u64;
    for (_, stats) in agg.iter() {
        backoff_count += stats.phase(Phase::RetryBackoff).count();
        assert_eq!(stats.end_to_end().count(), 0);
        assert_eq!(stats.phase(Phase::Service).count(), 0);
    }
    assert_eq!(backoff_count, total_spans);
}

#[test]
fn chaos_trace_replays_identically() {
    let a = run_chaos_traced(99);
    let b = run_chaos_traced(99);
    assert_eq!(a.0.len(), b.0.len());
    for (x, y) in a.0.iter().zip(&b.0) {
        assert_eq!(x.issued, y.issued);
        assert_eq!(x.completed, y.completed);
        assert_eq!(x.outcome, y.outcome);
        assert_eq!(x.phases, y.phases);
    }
    assert_eq!(a.1, b.1);
}

#[test]
fn timeline_counters_reconcile_with_trace_records() {
    // The sampled counter series is a downsampled view of the very same
    // events the tracer retains: summing every `ops.submitted` bucket delta
    // must recover exactly the number of trace records, and the throttle
    // deltas exactly the throttled subset — downsampling loses resolution,
    // never mass.
    let cfg = BenchConfig::quick();
    let report = azurebench::timeline::run_timeline(&cfg, 4, 30);
    let delta_sum = |name: &str| -> f64 {
        report
            .recorder()
            .counters()
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("{name} counter series missing"))
            .series
            .series()
            .iter()
            .map(|(_, b)| b.sum)
            .sum()
    };
    let submitted = delta_sum("ops.submitted");
    assert!(submitted > 0.0, "no submissions sampled");
    assert_eq!(
        submitted as usize,
        report.records().len(),
        "submitted deltas must sum to the traced operation count"
    );
    let throttled = delta_sum("ops.throttled");
    let throttled_records = report.records().iter().filter(|r| r.throttled).count();
    assert_eq!(throttled as usize, throttled_records);
}

#[test]
fn bottleneck_pass_attributes_documented_limits_on_three_figures() {
    // The acceptance bar for the attribution pass: at the top of the
    // ladder, at least three distinct paper figures pin a saturated (or
    // actively throttling) documented limit, and the verdicts name it.
    let cfg = BenchConfig::quick().with_sweep_threads(0);
    let report = azurebench::bottleneck::run_bottlenecks(&cfg, &[64]);
    let attributed: Vec<&str> = report
        .points
        .iter()
        .filter(|p| !p.verdict.contains("no saturated resource"))
        .map(|p| p.figure.as_str())
        .collect();
    assert!(
        attributed.len() >= 3,
        "only {} figures attributed: {attributed:?}",
        attributed.len()
    );
    for figure in ["fig7", "fig6", "fig8", "fig4"] {
        assert!(
            report.points.iter().any(|p| p.figure == figure),
            "missing scenario for {figure}"
        );
    }
    // Every verdict names the top-ranked resource or, when nothing stays
    // time-saturated, the heaviest throttler among the ranked rows.
    for p in &report.points {
        if let Some(top) = p.ranked.first() {
            let throttler = p.ranked.iter().max_by_key(|r| r.throttled);
            let named = p.verdict.contains(&top.resource)
                || p.verdict.contains("no saturated")
                || throttler.is_some_and(|t| t.throttled > 0 && p.verdict.contains(&t.resource));
            assert!(
                named,
                "verdict {:?} names neither {} nor the heaviest throttler",
                p.verdict, top.resource
            );
        }
    }
}

#[test]
fn profile_phases_reconcile_per_class() {
    let cfg = BenchConfig::paper().with_scale(0.05).with_sweep_threads(1);
    let report = run_profile(&cfg, &[1, 2, 4], 12);
    let mut classes = 0;
    for (class, stats) in report.merged().iter() {
        classes += 1;
        let e2e = stats.end_to_end();
        assert!(e2e.count() > 0, "{class:?} empty");
        // Per class, server-side phase time partitions end-to-end time.
        let gap = (stats.phase_sum() - e2e.sum()).abs();
        assert!(
            gap <= 1e-9 * e2e.sum().max(1.0),
            "{class:?}: phase sum {} vs end-to-end {}",
            stats.phase_sum(),
            e2e.sum()
        );
        // Quantiles come out of the histogram ordered.
        let (p50, p95, p99) = (e2e.quantile(0.5), e2e.quantile(0.95), e2e.quantile(0.99));
        assert!(p50 <= p95 && p95 <= p99, "{class:?} quantiles unordered");
    }
    assert!(classes >= 8, "mixed workload should cover many classes");
    let (phase_sum, e2e_sum) = report.reconciliation();
    assert!(e2e_sum > 0.0);
    assert!((phase_sum - e2e_sum).abs() <= 1e-9 * e2e_sum);
}
