//! Integration: fault injection end to end.
//!
//! A bag of tasks is drained from a shared queue while a seeded
//! [`FaultPlan`] crashes the queue's partition server and injects a
//! cluster-wide `ServerBusy` storm. The stack under test spans every
//! layer added for fault tolerance: the fabric's `FaultInjector`, the
//! client's `ResilientPolicy` (jittered backoff, deadlines, breaker) and
//! the framework's visibility-timeout + dead-letter task queue.
//!
//! Guarantees asserted here:
//! * **no task loss** — every submitted task completes despite the faults,
//!   also under the exact fault plans of `figures chaos` (every intensity,
//!   8 workers, 1 000 tasks) and under randomized ones;
//! * **deterministic replay** — two runs with the same seed produce
//!   identical results and identical fault/metric counters.

use azsim_client::{Environment, ResilientPolicy, VirtualEnv};
use azsim_core::{SimTime, Simulation};
use azsim_fabric::{BusyStorm, Cluster, ClusterParams, FaultMetrics, FaultPlan, ServerCrash};
use azsim_framework::{TaskOutcome, TaskQueue};
use azsim_storage::PartitionKey;
use azurebench::chaos::{chaos_plan, run_chaos, CHAOS_QUEUE};
use azurebench::BenchConfig;
use serde::{Deserialize, Serialize};
use std::rc::Rc;
use std::time::Duration;

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Item {
    id: u32,
}

/// The chaos scenario's queue, whose server [`chaos_plan`] crashes.
const QUEUE: &str = CHAOS_QUEUE;
const TASKS: u32 = 60;
const WORKERS: usize = 4;

/// Crash the bag's partition server at t=1 s (3 s failover) and throw a
/// 2 s `ServerBusy` storm at t=4 s, as the failover ends and the drain
/// resumes, plus a sprinkle of dropped requests.
fn crash_and_storm_plan() -> FaultPlan {
    let server = PartitionKey::Queue {
        queue: QUEUE.into(),
    }
    .server_index(ClusterParams::default().servers);
    FaultPlan {
        seed: 7,
        crashes: vec![ServerCrash {
            server,
            at: SimTime::from_secs(1),
            failover: Duration::from_secs(3),
        }],
        busy_storms: vec![BusyStorm {
            at: SimTime::from_secs(4),
            duration: Duration::from_secs(2),
            retry_after: Duration::from_millis(250),
        }],
        timeout_prob: 0.005,
        ..FaultPlan::default()
    }
}

/// One full bag-of-tasks run of `tasks` tasks on `workers` workers under
/// `plan`. Returns the sorted completed ids, the per-run fault counters and
/// the virtual makespan.
fn run_bag(
    plan: FaultPlan,
    tasks: u32,
    workers: usize,
    seed: u64,
) -> (Vec<u32>, FaultMetrics, u64) {
    let mut cluster = Cluster::new(ClusterParams::default());
    cluster.set_fault_plan(plan);

    let sim = Simulation::new(cluster, seed);
    let report = sim.run_workers(workers, move |ctx| async move {
        let env = VirtualEnv::new(&ctx);
        let me = env.instance();
        let policy = Rc::new(
            ResilientPolicy::new(seed ^ me as u64)
                .with_max_attempts(10)
                .with_deadline(Duration::from_secs(120)),
        );
        let tq: TaskQueue<'_, _, Item> = TaskQueue::new(&env, QUEUE)
            .with_visibility(Duration::from_secs(60))
            .with_policy(policy);
        tq.init().await.unwrap();
        if me == 0 {
            for id in 0..tasks {
                while tq.submit(&Item { id }).await.is_err() {
                    env.sleep(Duration::from_secs(1)).await;
                }
            }
            tq.seal().await.unwrap();
        }
        let mut done = Vec::new();
        tq.run_worker(
            async |_| {
                env.sleep(Duration::from_millis(20)).await;
                Ok(())
            },
            async |claimed, outcome| {
                if outcome == TaskOutcome::Completed {
                    done.push(claimed.task.id);
                }
                Ok(())
            },
        )
        .await
        .unwrap();
        (done, env.now().as_nanos())
    });

    let faults = *report.model.fault_metrics();
    let mut ids: Vec<u32> = Vec::new();
    let mut makespan = 0u64;
    for (done, end) in report.results {
        ids.extend(done);
        makespan = makespan.max(end);
    }
    ids.sort_unstable();
    ids.dedup();
    (ids, faults, makespan)
}

/// `figures chaos` at each of its intensities: its plan, 8 workers, 1 000
/// tasks, seed 2012. Every task must be completed at least once.
#[test]
fn figures_chaos_plans_lose_nothing_at_every_intensity() {
    let cfg = BenchConfig::paper();
    let tasks = cfg.scaled(1000) as u32;
    let expect: Vec<u32> = (0..tasks).collect();
    for intensity in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let (ids, _, _) = run_bag(chaos_plan(&cfg, intensity), tasks, 8, cfg.seed);
        assert_eq!(ids, expect, "tasks lost at intensity {intensity}");
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

    /// Any chaos intensity, size, worker count and seed: nothing is lost.
    #[test]
    fn prop_chaos_plans_lose_nothing(
        scale in 0.02f64..0.1,
        workers in 2usize..9,
        intensity in 0.0f64..1.0,
        seed in 0u64..10_000,
    ) {
        let cfg = BenchConfig {
            seed,
            ..BenchConfig::paper().with_scale(scale)
        };
        let tasks = cfg.scaled(1000) as u32;
        let (ids, _, _) = run_bag(chaos_plan(&cfg, intensity), tasks, workers, seed);
        let expect: Vec<u32> = (0..tasks).collect();
        proptest::prop_assert_eq!(ids, expect);
    }
}

#[test]
fn bag_survives_crash_and_storm_without_task_loss() {
    let (ids, faults, _) = run_bag(crash_and_storm_plan(), TASKS, WORKERS, 2012);
    let expect: Vec<u32> = (0..TASKS).collect();
    assert_eq!(ids, expect, "every task must complete at least once");
    assert!(
        faults.crash_faults > 0,
        "the crash window must actually reject requests: {faults:?}"
    );
    assert!(
        faults.injected_busy > 0,
        "the storm must actually reject requests: {faults:?}"
    );
}

#[test]
fn same_seed_replays_identically() {
    let a = run_bag(crash_and_storm_plan(), TASKS, WORKERS, 99);
    let b = run_bag(crash_and_storm_plan(), TASKS, WORKERS, 99);
    assert_eq!(a, b, "same-seed runs must replay bit-identically");
}

#[test]
fn different_seeds_still_lose_nothing() {
    let (ids, _, _) = run_bag(crash_and_storm_plan(), TASKS, WORKERS, 4242);
    assert_eq!(ids.len() as u32, TASKS);
}

#[test]
fn chaos_scenario_is_lossless_and_deterministic() {
    let cfg = BenchConfig::paper().with_scale(0.02);
    let a = run_chaos(&cfg, 3, 0.8);
    assert_eq!(a.lost, 0);
    assert!(a.injected_faults > 0);
    let b = run_chaos(&cfg, 3, 0.8);
    assert_eq!(a, b, "chaos metrics must replay identically");
}
