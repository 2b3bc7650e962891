//! Resilience verification: invariant-checking chaos search with shrinking.
//!
//! The chaos scenario ([`crate::chaos`]) shows the system *degrades
//! gracefully*; this module proves it stays *correct*. A verification run
//! drives a mixed queue + table workload against a [`Cluster`] with
//! ground-truth history recording enabled
//! ([`Cluster::enable_history`]), injects a [`FaultPlan`] that includes
//! **ambiguous outcomes** (`ack_loss_prob`, mid-window crash cuts), and
//! checks invariants against the post-run server state:
//!
//! * **I1 — no acked write lost**: every queue put the producer saw
//!   acknowledged is consumed, still queued, or dead-lettered at the end.
//! * **I2 — at-least-once, duplicates only under ambiguity**: the same
//!   payload arriving in two *distinct* messages is legal only when the
//!   history records a queue put that executed but timed out (the classic
//!   duplicate-on-retry); redeliveries of one message (attempt > 1) are
//!   ordinary at-least-once behaviour.
//! * **I3 — idempotent table read-modify-writes**: each worker applies a
//!   known number of logical increments to its own counter row; the final
//!   value must equal that number exactly. The hardened client uses
//!   [`update_idempotent`] (If-Match + op marker); a naive client that
//!   re-reads and re-applies after an ambiguous `update_if` double-applies
//!   and is caught here.
//! * **I4 — poison accounting**: dead-lettered poison messages are
//!   neither lost nor parked twice without an ambiguous op to blame.
//! * **I5 — read-your-writes**: a worker's read of its own row never
//!   shows fewer increments than it has definitely applied.
//!
//! [`chaos_search`] sweeps randomized fault plans (plus hand-built
//! boundary schedules at window edges) across seeds; on a violation it
//! greedily **shrinks** the failing plan — dropping scheduled events and
//! zeroing probabilities while the violation persists — and the result is
//! serialized as a [`ReproDoc`] (`schemas/repro.schema.json`) that
//! replays the violation deterministically.
//!
//! Everything here is seeded and schedule-independent: the same
//! (config, plan) pair reproduces the same violations bit-for-bit, which
//! is what makes shrinking and committed reproducers possible.

use crate::sweep::sweep_points;
use azsim_client::{
    insert_idempotent, update_idempotent, Environment, QueueClient, ResilientPolicy,
    RetryBudgetConfig, TableClient, VirtualEnv,
};
use azsim_core::rng::stream_rng;
use azsim_core::{SimTime, Simulation};
use azsim_fabric::{
    BackendKind, BusyStorm, Cluster, ClusterParams, FaultPlan, OpOutcome, PartitionBlackout,
    ServerCrash,
};
use azsim_framework::TaskQueue;
use azsim_storage::{Entity, EtagCondition, OpClass, PartitionKey, PropValue, StorageError};
use bytes::Bytes;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

/// Shared work queue (its partition server is a preferred crash target).
pub const VERIFY_QUEUE: &str = "verify-tasks";
/// Table holding the per-worker counter rows and the schema version row.
pub const VERIFY_TABLE: &str = "verify";
/// Partition of the counter rows.
const COUNTER_PARTITION: &str = "counters";
/// Property holding the counter value.
const COUNTER_PROP: &str = "v";
/// Simulated per-task processing time.
const TASK_WORK: Duration = Duration::from_millis(10);
/// Pause before re-trying a logical step that exhausted its policy.
const RETRY_PAUSE: Duration = Duration::from_secs(1);

/// One work item on the shared queue.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct VerifyTask {
    /// Payload id, unique within a run.
    pub id: u32,
}

/// Workload shape of one verification run. `Copy` and serializable so a
/// reproducer can carry it verbatim.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct VerifyConfig {
    /// Workload seed (worker jitter streams; independent of the plan's
    /// fault-draw seed).
    pub seed: u64,
    /// Concurrent workers (worker 0 is also the producer).
    pub workers: usize,
    /// Well-formed queue payloads submitted.
    pub items: u32,
    /// Logical counter increments per worker.
    pub increments: u32,
    /// Undecodable poison messages submitted.
    pub poison: u32,
    /// `true` = idempotent client (If-Match + op marker, read-back insert
    /// resolution, retry budget); `false` = naive blind retry, the policy
    /// the harness must catch.
    pub hardened: bool,
    /// Storage backend the run simulates. Invariant I5 (read-your-writes)
    /// is checked against this backend's *declared* consistency: a backend
    /// with a non-zero `read_staleness` window is allowed to serve a stale
    /// read within that window, so the probe waits the window out and
    /// re-reads before flagging — relaxed, never skipped.
    pub backend: BackendKind,
}

impl VerifyConfig {
    /// A small, fast configuration for sweeps and CI.
    pub fn quick(hardened: bool) -> Self {
        VerifyConfig {
            seed: 2012,
            workers: 3,
            items: 30,
            increments: 8,
            poison: 2,
            hardened,
            backend: BackendKind::Was,
        }
    }
}

/// One invariant violation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// Invariant label (`acked-write-lost`, `dup-without-ambiguity`,
    /// `counter-double-apply`, `counter-lost-update`, `counter-row-lost`,
    /// `poison-lost`, `poison-double-parked`, `read-your-writes`).
    pub invariant: String,
    /// Human-readable evidence.
    pub detail: String,
}

impl Violation {
    fn new(invariant: &str, detail: String) -> Self {
        Violation {
            invariant: invariant.to_owned(),
            detail,
        }
    }
}

/// Result of one verification run.
#[derive(Clone, Debug, PartialEq)]
pub struct VerifyOutcome {
    /// All invariant violations found (empty = the run is correct).
    pub violations: Vec<Violation>,
    /// Operations recorded in the ground-truth history.
    pub ops: usize,
    /// Timeouts that secretly executed (each a potential duplicate).
    pub ambiguous_executed: usize,
    /// Timeouts that never executed.
    pub ambiguous_lost: usize,
    /// Distinct payload ids processed at least once.
    pub consumed_distinct: usize,
    /// Total processings (duplicates included).
    pub consumed_total: usize,
    /// Poison copies parked on the dead-letter queue at the end.
    pub poison_parked: usize,
    /// Well-formed payloads still sitting in the main queue at the end.
    pub remaining_in_queue: usize,
    /// Virtual end time of the run, in seconds.
    pub end_s: f64,
}

fn counter_value(e: &Entity) -> i64 {
    match e.properties.get(COUNTER_PROP) {
        Some(PropValue::I64(v)) => *v,
        _ => 0,
    }
}

fn bump(e: &mut Entity) {
    let v = counter_value(e);
    e.properties
        .insert(COUNTER_PROP.to_owned(), PropValue::I64(v + 1));
}

fn poison_payload(k: u32) -> String {
    // Leading '!' guarantees the JSON decode fails → dead-letter path.
    format!("!poison-{k}")
}

/// Run the verification workload once under `plan` and check every
/// invariant against the recorded history and the final server state.
pub fn run_verify(cfg: &VerifyConfig, plan: &FaultPlan) -> VerifyOutcome {
    let cfg = *cfg;
    let mut cluster = Cluster::new(ClusterParams::for_backend(cfg.backend.profile()));
    cluster.enable_history();
    if !plan.is_inert() {
        cluster.set_fault_plan(plan.clone());
    }

    let sim = Simulation::new(cluster, cfg.seed);
    let report = sim.run_workers(cfg.workers, move |ctx| async move {
        let env = VirtualEnv::new(&ctx);
        let me = env.instance();
        let mut policy = ResilientPolicy::new(cfg.seed ^ me as u64)
            .with_max_attempts(8)
            .with_deadline(Duration::from_secs(120));
        if cfg.hardened {
            // Budgeted retries: ack-loss storms cannot amplify into retry
            // storms; exhaustion surfaces the op's own error and the
            // logical-step loops below re-issue after a pause.
            policy = policy.with_retry_budget(RetryBudgetConfig {
                capacity: 32,
                refill_per_success: 1.0,
            });
        }
        let policy = Rc::new(policy);

        let tq: TaskQueue<'_, _, VerifyTask> = TaskQueue::new(&env, VERIFY_QUEUE)
            .with_visibility(Duration::from_secs(90))
            .with_max_attempts(5)
            .with_policy(policy.clone());
        while tq.init().await.is_err() {
            env.sleep(RETRY_PAUSE).await;
        }

        let mut acked: Vec<u32> = Vec::new();
        let mut acked_poison: Vec<u32> = Vec::new();
        if me == 0 {
            for id in 0..cfg.items {
                // Re-submitting after an ambiguous error may duplicate the
                // payload; that's exactly what I2 accounts for.
                while tq.submit(&VerifyTask { id }).await.is_err() {
                    env.sleep(RETRY_PAUSE).await;
                }
                acked.push(id);
            }
            let raw = QueueClient::new(&env, VERIFY_QUEUE).with_policy(policy.clone());
            for k in 0..cfg.poison {
                while raw
                    .put_message(Bytes::from(poison_payload(k)))
                    .await
                    .is_err()
                {
                    env.sleep(RETRY_PAUSE).await;
                }
                acked_poison.push(k);
            }
            while tq.seal().await.is_err() {
                env.sleep(RETRY_PAUSE).await;
            }
        }

        // --- Table side: per-worker counter row, `increments` logical
        // read-modify-writes, hardened or naive. ---
        let table = TableClient::new(&env, VERIFY_TABLE).with_policy(policy.clone());
        while table.create_table().await.is_err() {
            env.sleep(RETRY_PAUSE).await;
        }
        let row = format!("w{me}");
        let init = Entity::new(COUNTER_PARTITION, &row).with(COUNTER_PROP, PropValue::I64(0));
        loop {
            let done = if cfg.hardened {
                insert_idempotent(&table, &init).await.is_ok()
            } else {
                matches!(
                    table.insert(init.clone()).await,
                    Ok(_) | Err(StorageError::AlreadyExists)
                )
            };
            if done {
                break;
            }
            env.sleep(RETRY_PAUSE).await;
        }

        let mut ryw: Vec<String> = Vec::new();
        let mut applied: i64 = 0;
        for k in 0..cfg.increments {
            if cfg.hardened {
                let op_id = format!("w{me}-i{k}");
                while update_idempotent(&table, COUNTER_PARTITION, &row, &op_id, bump)
                    .await
                    .is_err()
                {
                    env.sleep(RETRY_PAUSE).await;
                }
            } else {
                // Naive read-modify-write: on *any* failed conditional
                // update — including a `PreconditionFailed` produced by a
                // blind retry of an update that secretly executed — re-read
                // and re-apply the increment. This is the duplicate-on-
                // retry bug the harness must catch.
                loop {
                    let Ok(Some((mut e, tag))) = table.query(COUNTER_PARTITION, &row).await else {
                        env.sleep(RETRY_PAUSE).await;
                        continue;
                    };
                    bump(&mut e);
                    match table.update_if(e, EtagCondition::Match(tag)).await {
                        Ok(_) => break,
                        Err(StorageError::PreconditionFailed) => continue,
                        Err(_) => env.sleep(RETRY_PAUSE).await,
                    }
                }
            }
            applied += 1;
            // I5 probe: our own definitely-applied increments must be
            // visible to our next read. Transient read failures make no
            // visibility claim and are skipped. A backend declaring a
            // bounded `read_staleness` window may legally serve a stale
            // value inside that window — so the probe waits the declared
            // window out and re-reads before calling it a violation
            // (relaxed to the declared consistency level, never skipped).
            let staleness = cfg.backend.profile().read_staleness;
            if let Ok(Some((e, _))) = table.query(COUNTER_PARTITION, &row).await {
                let mut seen = counter_value(&e);
                if seen < applied && staleness > Duration::ZERO {
                    env.sleep(staleness).await;
                    if let Ok(Some((e2, _))) = table.query(COUNTER_PARTITION, &row).await {
                        seen = counter_value(&e2);
                    }
                }
                if seen < applied {
                    let note = if staleness > Duration::ZERO {
                        format!(" (declared staleness {staleness:?} already waited out)")
                    } else {
                        String::new()
                    };
                    ryw.push(format!(
                        "worker {me} read {seen} after applying {applied} increments{note}"
                    ));
                }
            }
        }

        // --- Drain the shared queue (all workers, producer included). ---
        let mut consumed: Vec<(u32, u32)> = Vec::new();
        tq.run_worker(
            async |claimed| {
                env.sleep(TASK_WORK).await;
                consumed.push((claimed.task.id, claimed.attempt));
                Ok(())
            },
            async |_, _| Ok(()),
        )
        .await
        .expect("only a semantic storage error ends the drain");
        (consumed, acked, acked_poison, ryw)
    });

    // --- Gather evidence: history, final queue audits, final table rows. ---
    let end = report.end_time;
    let history = report
        .model
        .tracer()
        .expect("history recording was enabled")
        .records();
    let main_audit = report
        .model
        .queue_audit(end, VERIFY_QUEUE)
        .unwrap_or_default();
    let poison_audit = report
        .model
        .queue_audit(end, &format!("{VERIFY_QUEUE}-poison"))
        .unwrap_or_default();

    let mut remaining_items: Vec<u32> = Vec::new();
    let mut remaining_poison: Vec<String> = Vec::new();
    for m in &main_audit {
        if let Ok(t) = serde_json::from_slice::<VerifyTask>(&m.data) {
            remaining_items.push(t.id);
        } else if let Ok(s) = std::str::from_utf8(&m.data) {
            remaining_poison.push(s.to_owned());
        }
    }
    let mut parked: HashMap<String, usize> = HashMap::new();
    for m in &poison_audit {
        if let Ok(s) = std::str::from_utf8(&m.data) {
            *parked.entry(s.to_owned()).or_insert(0) += 1;
        }
    }

    let mut consumed_first: HashMap<u32, usize> = HashMap::new(); // id → #(attempt == 1)
    let mut consumed_any: HashMap<u32, usize> = HashMap::new();
    let mut acked_items: Vec<u32> = Vec::new();
    let mut acked_poison: Vec<u32> = Vec::new();
    let mut violations: Vec<Violation> = Vec::new();
    for (consumed, acked, poison, ryw) in report.results {
        for (id, attempt) in consumed {
            *consumed_any.entry(id).or_insert(0) += 1;
            if attempt == 1 {
                *consumed_first.entry(id).or_insert(0) += 1;
            }
        }
        acked_items.extend(acked);
        acked_poison.extend(poison);
        violations.extend(
            ryw.into_iter()
                .map(|d| Violation::new("read-your-writes", d)),
        );
    }

    let (mut ambiguous_put, mut ambiguous_executed, mut ambiguous_lost) = (false, 0, 0);
    for r in history {
        match r.outcome {
            OpOutcome::TimedOutExecuted => {
                ambiguous_executed += 1;
                ambiguous_put |= r.class == OpClass::QueuePut;
            }
            OpOutcome::TimedOutLost => ambiguous_lost += 1,
            _ => {}
        }
    }
    let any_ambiguous = ambiguous_executed > 0;

    // I1: no acked queue write lost.
    for &id in &acked_items {
        let seen = consumed_any.contains_key(&id)
            || remaining_items.contains(&id)
            || poison_audit
                .iter()
                .any(|m| serde_json::from_slice::<VerifyTask>(&m.data).is_ok_and(|t| t.id == id));
        if !seen {
            violations.push(Violation::new(
                "acked-write-lost",
                format!("payload {id} was acked but is neither consumed, queued, nor parked"),
            ));
        }
    }

    // I2: distinct-message duplicates only under an ambiguous put.
    for (&id, &firsts) in &consumed_first {
        if firsts > 1 && !ambiguous_put {
            violations.push(Violation::new(
                "dup-without-ambiguity",
                format!(
                    "payload {id} arrived in {firsts} distinct messages with no ambiguous put in the history"
                ),
            ));
        }
    }

    // I3: every counter row holds exactly its worker's increment count.
    for w in 0..cfg.workers {
        let row = format!("w{w}");
        match report
            .model
            .table_entity(VERIFY_TABLE, COUNTER_PARTITION, &row)
        {
            None => violations.push(Violation::new(
                "counter-row-lost",
                format!("counter row {row} vanished after an acked insert"),
            )),
            Some(e) => {
                let v = counter_value(&e);
                let want = cfg.increments as i64;
                if v > want {
                    violations.push(Violation::new(
                        "counter-double-apply",
                        format!("row {row} holds {v} after {want} logical increments"),
                    ));
                } else if v < want {
                    violations.push(Violation::new(
                        "counter-lost-update",
                        format!("row {row} holds {v} after {want} logical increments"),
                    ));
                }
            }
        }
    }

    // I4: poison messages are parked (or still queued), never more than
    // once without ambiguity, and never handed to workers as tasks.
    for &k in &acked_poison {
        let payload = poison_payload(k);
        let parked_n = parked.get(&payload).copied().unwrap_or(0);
        let still_queued = remaining_poison.contains(&payload);
        if parked_n == 0 && !still_queued {
            violations.push(Violation::new(
                "poison-lost",
                format!("poison message {payload:?} is neither parked nor queued"),
            ));
        }
        if parked_n > 1 && !any_ambiguous {
            violations.push(Violation::new(
                "poison-double-parked",
                format!("poison message {payload:?} parked {parked_n} times with no ambiguity"),
            ));
        }
    }

    VerifyOutcome {
        violations,
        ops: history.len(),
        ambiguous_executed,
        ambiguous_lost,
        consumed_distinct: consumed_any.len(),
        consumed_total: consumed_any.values().sum(),
        poison_parked: poison_audit.len(),
        remaining_in_queue: remaining_items.len(),
        end_s: end.as_secs_f64(),
    }
}

// ---------------------------------------------------------------------------
// Plan generation: randomized schedules + hand-built boundary schedules.
// ---------------------------------------------------------------------------

/// Derive a randomized fault plan from `seed`. Every plan carries some
/// ack-loss probability — ambiguity is the point of the search — plus a
/// random mix of crashes, storms and drop/stall probabilities, all within
/// bounds that keep runs terminating briskly.
pub fn random_plan(seed: u64, servers: usize) -> FaultPlan {
    let mut rng = stream_rng(seed, 0xC4A05);
    let mut plan = FaultPlan {
        seed,
        timeout: Duration::from_secs(5),
        // Crashes drawn below ambiguously cut in-flight replicated acks.
        crash_cuts_acks: true,
        ..FaultPlan::default()
    };
    let queue_server = PartitionKey::Queue {
        queue: VERIFY_QUEUE.into(),
    }
    .server_index(servers);
    for _ in 0..rng.random_range(0..=1u32) {
        // Half the crashes hit the server everyone depends on.
        let server = if rng.random_range(0..2u32) == 0 {
            queue_server
        } else {
            rng.random_range(0..servers)
        };
        plan.crashes.push(ServerCrash {
            server,
            at: SimTime::from_millis(rng.random_range(500..20_000u64)),
            failover: Duration::from_millis(rng.random_range(1_000..6_000u64)),
        });
    }
    for _ in 0..rng.random_range(0..=2u32) {
        plan.busy_storms.push(BusyStorm {
            at: SimTime::from_millis(rng.random_range(1_000..40_000u64)),
            duration: Duration::from_millis(rng.random_range(500..3_000u64)),
            retry_after: Duration::from_millis(200),
        });
    }
    plan.timeout_prob = rng.random_range(0.0..0.01);
    plan.ack_loss_prob = rng.random_range(0.01..0.08);
    plan.replica_stall_prob = rng.random_range(0.0..0.05);
    plan
}

/// Hand-built schedules that poke at window edges: a crash landing on the
/// exact end instant of a storm, a blackout of the shared queue's
/// partition, and a pure ambiguity storm with no scheduled windows.
pub fn boundary_plans(servers: usize) -> Vec<FaultPlan> {
    let queue_server = PartitionKey::Queue {
        queue: VERIFY_QUEUE.into(),
    }
    .server_index(servers);
    let storm = BusyStorm {
        at: SimTime::from_secs(4),
        duration: Duration::from_secs(2),
        retry_after: Duration::from_millis(250),
    };
    // Crash opens on the half-open boundary instant where the storm ends:
    // a request admitted at exactly t=6s leaves the storm and enters the
    // crash window in the same tick.
    let edge_crash = ServerCrash {
        server: queue_server,
        at: SimTime::from_secs(6),
        failover: Duration::from_secs(3),
    };
    vec![
        FaultPlan {
            seed: 0xB0 | 1,
            busy_storms: vec![storm.clone()],
            crashes: vec![edge_crash],
            crash_cuts_acks: true,
            ack_loss_prob: 0.1,
            timeout: Duration::from_secs(5),
            ..FaultPlan::default()
        },
        FaultPlan {
            seed: 0xB0 | 2,
            blackouts: vec![PartitionBlackout {
                partition: PartitionKey::Queue {
                    queue: VERIFY_QUEUE.into(),
                },
                at: storm.at,
                duration: Duration::from_secs(4),
            }],
            busy_storms: vec![storm],
            ack_loss_prob: 0.05,
            timeout: Duration::from_secs(5),
            ..FaultPlan::default()
        },
        FaultPlan {
            seed: 0xB0 | 3,
            ack_loss_prob: 0.15,
            timeout_prob: 0.02,
            timeout: Duration::from_secs(5),
            ..FaultPlan::default()
        },
    ]
}

// ---------------------------------------------------------------------------
// Search and shrinking.
// ---------------------------------------------------------------------------

/// A violation found by [`chaos_search`], with its minimized plan.
#[derive(Clone, Debug)]
pub struct FailureCase {
    /// The plan that first exposed the violation.
    pub plan: FaultPlan,
    /// The greedily shrunk plan (still failing).
    pub shrunk: FaultPlan,
    /// Violations the shrunk plan reproduces.
    pub violations: Vec<Violation>,
}

/// Result of a chaos search.
#[derive(Clone, Debug)]
pub struct SearchReport {
    /// Verification runs executed (boundary plans + one per seed).
    pub runs: usize,
    /// How many of those were hand-built boundary schedules.
    pub boundary_runs: usize,
    /// First failure found, if any, already shrunk.
    pub failure: Option<FailureCase>,
}

/// Sweep boundary schedules plus one randomized plan per seed, checking
/// invariants for each; on the first violation, shrink the plan and
/// return the minimized reproducer.
pub fn chaos_search(cfg: &VerifyConfig, seeds: &[u64], threads: usize) -> SearchReport {
    let servers = ClusterParams::default().servers;
    let mut plans = boundary_plans(servers);
    let boundary_runs = plans.len();
    plans.extend(seeds.iter().map(|&s| random_plan(s, servers)));
    let runs = plans.len();
    let results = sweep_points(&plans, threads, |plan| run_verify(cfg, plan).violations);
    let failure = plans
        .iter()
        .zip(&results)
        .find(|(_, v)| !v.is_empty())
        .map(|(plan, _)| {
            let shrunk = shrink_plan(cfg, plan);
            let violations = run_verify(cfg, &shrunk).violations;
            FailureCase {
                plan: plan.clone(),
                shrunk,
                violations,
            }
        });
    SearchReport {
        runs,
        boundary_runs,
        failure,
    }
}

/// Number of active ingredients in a plan (shrinking's progress measure).
pub fn plan_events(p: &FaultPlan) -> usize {
    p.crashes.len()
        + p.blackouts.len()
        + p.busy_storms.len()
        + usize::from(p.timeout_prob > 0.0)
        + usize::from(p.ack_loss_prob > 0.0)
        + usize::from(p.replica_stall_prob > 0.0)
        + usize::from(p.crash_cuts_acks && !p.crashes.is_empty())
}

/// One-step simplifications of `p`: drop each scheduled event, zero each
/// probability. Every candidate is strictly smaller by [`plan_events`],
/// so greedy shrinking terminates.
fn shrink_candidates(p: &FaultPlan) -> Vec<FaultPlan> {
    let mut out = Vec::new();
    for i in 0..p.crashes.len() {
        let mut c = p.clone();
        c.crashes.remove(i);
        out.push(c);
    }
    for i in 0..p.blackouts.len() {
        let mut c = p.clone();
        c.blackouts.remove(i);
        out.push(c);
    }
    for i in 0..p.busy_storms.len() {
        let mut c = p.clone();
        c.busy_storms.remove(i);
        out.push(c);
    }
    if p.timeout_prob > 0.0 {
        let mut c = p.clone();
        c.timeout_prob = 0.0;
        out.push(c);
    }
    if p.replica_stall_prob > 0.0 {
        let mut c = p.clone();
        c.replica_stall_prob = 0.0;
        out.push(c);
    }
    if p.ack_loss_prob > 0.0 {
        let mut c = p.clone();
        c.ack_loss_prob = 0.0;
        out.push(c);
    }
    if p.crash_cuts_acks && !p.crashes.is_empty() {
        let mut c = p.clone();
        c.crash_cuts_acks = false;
        out.push(c);
    }
    out
}

/// Greedy delta-debugging over the plan's ingredients: repeatedly take
/// the first one-step simplification that still violates an invariant,
/// until none does. Deterministic — same failing plan, same minimum.
pub fn shrink_plan(cfg: &VerifyConfig, plan: &FaultPlan) -> FaultPlan {
    let mut best = plan.clone();
    'outer: loop {
        for candidate in shrink_candidates(&best) {
            if !run_verify(cfg, &candidate).violations.is_empty() {
                best = candidate;
                continue 'outer;
            }
        }
        return best;
    }
}

// ---------------------------------------------------------------------------
// Reproducer documents (schemas/repro.schema.json).
// ---------------------------------------------------------------------------

/// Version tag of the reproducer JSON layout.
pub const REPRO_VERSION: &str = "azurebench-repro/v1";

/// Serializable [`ServerCrash`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CrashSpec {
    /// Crashed server index.
    pub server: usize,
    /// Crash instant, ns of virtual time.
    pub at_ns: u64,
    /// Failover window length, ns.
    pub failover_ns: u64,
}

/// Serializable [`BusyStorm`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StormSpec {
    /// Window start, ns of virtual time.
    pub at_ns: u64,
    /// Window length, ns.
    pub duration_ns: u64,
    /// Retry hint attached to injected rejections, ns.
    pub retry_after_ns: u64,
}

/// Serializable queue-partition [`PartitionBlackout`] (the only blackout
/// shape the plan generators emit).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QueueBlackoutSpec {
    /// Name of the blacked-out queue.
    pub queue: String,
    /// Window start, ns of virtual time.
    pub at_ns: u64,
    /// Window length, ns.
    pub duration_ns: u64,
}

/// Serializable mirror of [`FaultPlan`], with durations in integral ns so
/// round-trips are exact.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlanSpec {
    /// Fault-draw seed.
    pub seed: u64,
    /// Scheduled crashes.
    pub crashes: Vec<CrashSpec>,
    /// Whether crashes ambiguously cut in-flight replicated acks.
    pub crash_cuts_acks: bool,
    /// Scheduled queue-partition blackouts.
    pub queue_blackouts: Vec<QueueBlackoutSpec>,
    /// Scheduled throttle storms.
    pub busy_storms: Vec<StormSpec>,
    /// Request-drop probability.
    pub timeout_prob: f64,
    /// Client-observed wait for dropped requests / lost acks, ns.
    pub timeout_ns: u64,
    /// Lost-ack probability.
    pub ack_loss_prob: f64,
    /// Replica-stall probability.
    pub replica_stall_prob: f64,
    /// Stall extra latency, ns.
    pub replica_stall_ns: u64,
}

impl PlanSpec {
    /// Capture a plan. Non-queue blackouts (which no generator in this
    /// module produces) are not representable and are rejected loudly
    /// rather than silently dropped.
    pub fn from_plan(p: &FaultPlan) -> PlanSpec {
        PlanSpec {
            seed: p.seed,
            crash_cuts_acks: p.crash_cuts_acks,
            crashes: p
                .crashes
                .iter()
                .map(|c| CrashSpec {
                    server: c.server,
                    at_ns: c.at.as_nanos(),
                    failover_ns: c.failover.as_nanos() as u64,
                })
                .collect(),
            queue_blackouts: p
                .blackouts
                .iter()
                .map(|b| match &b.partition {
                    PartitionKey::Queue { queue } => QueueBlackoutSpec {
                        queue: queue.clone(),
                        at_ns: b.at.as_nanos(),
                        duration_ns: b.duration.as_nanos() as u64,
                    },
                    other => panic!("unrepresentable blackout partition {other:?}"),
                })
                .collect(),
            busy_storms: p
                .busy_storms
                .iter()
                .map(|s| StormSpec {
                    at_ns: s.at.as_nanos(),
                    duration_ns: s.duration.as_nanos() as u64,
                    retry_after_ns: s.retry_after.as_nanos() as u64,
                })
                .collect(),
            timeout_prob: p.timeout_prob,
            timeout_ns: p.timeout.as_nanos() as u64,
            ack_loss_prob: p.ack_loss_prob,
            replica_stall_prob: p.replica_stall_prob,
            replica_stall_ns: p.replica_stall.as_nanos() as u64,
        }
    }

    /// Rebuild the executable plan.
    pub fn to_plan(&self) -> FaultPlan {
        FaultPlan {
            seed: self.seed,
            crash_cuts_acks: self.crash_cuts_acks,
            crashes: self
                .crashes
                .iter()
                .map(|c| ServerCrash {
                    server: c.server,
                    at: SimTime(c.at_ns),
                    failover: Duration::from_nanos(c.failover_ns),
                })
                .collect(),
            blackouts: self
                .queue_blackouts
                .iter()
                .map(|b| PartitionBlackout {
                    partition: PartitionKey::Queue {
                        queue: b.queue.clone(),
                    },
                    at: SimTime(b.at_ns),
                    duration: Duration::from_nanos(b.duration_ns),
                })
                .collect(),
            busy_storms: self
                .busy_storms
                .iter()
                .map(|s| BusyStorm {
                    at: SimTime(s.at_ns),
                    duration: Duration::from_nanos(s.duration_ns),
                    retry_after: Duration::from_nanos(s.retry_after_ns),
                })
                .collect(),
            timeout_prob: self.timeout_prob,
            timeout: Duration::from_nanos(self.timeout_ns),
            ack_loss_prob: self.ack_loss_prob,
            replica_stall_prob: self.replica_stall_prob,
            replica_stall: Duration::from_nanos(self.replica_stall_ns),
        }
    }
}

/// A committed reproducer: enough to replay one invariant violation
/// deterministically (`results/repro-*.json`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReproDoc {
    /// Layout version ([`REPRO_VERSION`]).
    pub version: String,
    /// Workload shape of the failing run.
    pub config: VerifyConfig,
    /// The (shrunk) fault plan.
    pub plan: PlanSpec,
    /// Violations this document reproduces.
    pub violations: Vec<Violation>,
}

impl ReproDoc {
    /// Package a failure case.
    pub fn new(cfg: &VerifyConfig, case: &FailureCase) -> ReproDoc {
        ReproDoc {
            version: REPRO_VERSION.to_owned(),
            config: *cfg,
            plan: PlanSpec::from_plan(&case.shrunk),
            violations: case.violations.clone(),
        }
    }

    /// Re-run the recorded configuration and plan.
    pub fn replay(&self) -> VerifyOutcome {
        run_verify(&self.config, &self.plan.to_plan())
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("repro docs always serialize")
    }

    /// Parse from JSON.
    pub fn from_json(json: &str) -> Result<ReproDoc, String> {
        serde_json::from_str(json).map_err(|e| format!("bad repro doc: {e:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(hardened: bool) -> VerifyConfig {
        VerifyConfig {
            seed: 2012,
            workers: 2,
            items: 10,
            increments: 4,
            poison: 1,
            hardened,
            backend: BackendKind::Was,
        }
    }

    #[test]
    fn inert_plan_run_is_clean_and_unambiguous() {
        let out = run_verify(&tiny(true), &FaultPlan::default());
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.ambiguous_executed, 0);
        assert_eq!(out.ambiguous_lost, 0);
        assert_eq!(out.consumed_distinct, 10);
        assert!(out.ops > 0, "history must record operations");
    }

    #[test]
    fn verify_runs_replay_identically() {
        let cfg = tiny(true);
        let plan = random_plan(7, ClusterParams::default().servers);
        let a = run_verify(&cfg, &plan);
        let b = run_verify(&cfg, &plan);
        assert_eq!(a, b, "same config + plan must replay bit-identically");
    }

    #[test]
    fn random_plans_always_carry_ambiguity() {
        for seed in 0..20 {
            let p = random_plan(seed, 64);
            assert!(p.ack_loss_prob > 0.0, "seed {seed}");
            assert!(!p.is_inert());
        }
    }

    #[test]
    fn plan_spec_roundtrips_exactly() {
        let servers = ClusterParams::default().servers;
        for plan in boundary_plans(servers)
            .into_iter()
            .chain((0..5).map(|s| random_plan(s, servers)))
        {
            let spec = PlanSpec::from_plan(&plan);
            assert_eq!(spec.to_plan(), plan);
        }
    }

    #[test]
    fn repro_doc_roundtrips_through_json() {
        let cfg = tiny(false);
        let case = FailureCase {
            plan: random_plan(3, 64),
            shrunk: random_plan(3, 64),
            violations: vec![Violation::new(
                "counter-double-apply",
                "row w0 holds 5".into(),
            )],
        };
        let doc = ReproDoc::new(&cfg, &case);
        let back = ReproDoc::from_json(&doc.to_json()).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.version, REPRO_VERSION);
    }

    #[test]
    fn shrink_candidates_strictly_reduce() {
        let plan = boundary_plans(64).remove(0);
        let n = plan_events(&plan);
        for c in shrink_candidates(&plan) {
            assert!(plan_events(&c) < n);
        }
    }
}
