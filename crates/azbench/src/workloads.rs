//! The five workloads. Each repetition is one fixed unit of work driven
//! through the library's public functions only, wrapped in spans, and
//! returns every artifact it emitted so the caller can fingerprint them.
//!
//! All workloads are closed loops in virtual time (each simulated worker
//! waits for its reply); on the host each repetition is a fixed batch, so
//! throughput is "logical simulated ops per host second at this size".
//! Everything runs serial (`sweep_threads = 1`, `shards = 1`).

use crate::spans::Spans;
use azsim_client::{Environment, QueueClient, VirtualEnv};
use azsim_core::runtime::{ActorId, Model};
use azsim_core::{SimTime, Simulation};
use azsim_fabric::Cluster;
use azurebench::payload::PayloadGen;
use azurebench::{
    alg1_blob, alg3_queue, alg4_queue, alg5_table, chaos, profile, timeline, verify, BenchConfig,
    Figure,
};
use std::path::Path;
use std::time::Duration;

/// One emitted artifact: file name and content.
pub type Artifact = (String, String);

/// What a repetition runs with.
pub struct Env<'a> {
    pub seed: u64,
    /// Tiny sizes for the tier-1 smoke test (no references apply).
    pub smoke: bool,
    /// Directory the repetition writes its artifacts into.
    pub out: &'a Path,
    pub spans: &'a mut Spans,
}

impl Env<'_> {
    /// The paper configuration at `scale`, serial, with this run's seed;
    /// the smoke variant shrinks the ladder too.
    fn cfg(&self, scale: f64) -> BenchConfig {
        let mut cfg = BenchConfig::paper().with_scale(scale).with_sweep_threads(1);
        if self.smoke {
            cfg = cfg.with_workers(SMOKE_LADDER.to_vec());
        }
        cfg.seed = self.seed;
        cfg
    }

    /// `to_csv` + `render_table` + file write for each figure.
    fn emit_figures(&mut self, figs: &[Figure]) -> Vec<Artifact> {
        let out = self.out;
        self.spans.span("core.report.emit", |_| {
            figs.iter()
                .flat_map(|f| {
                    [
                        (format!("{}.csv", f.id), f.to_csv()),
                        (format!("{}.txt", f.id), f.render_table()),
                    ]
                })
                .inspect(|a| write_artifact(out, a))
                .collect()
        })
    }

    /// File write for artifacts that are already rendered.
    fn emit(&mut self, span: &str, arts: Vec<Artifact>) -> Vec<Artifact> {
        let out = self.out;
        self.spans.span(span, |_| {
            arts.iter().for_each(|a| write_artifact(out, a));
            arts
        })
    }
}

fn write_artifact(out: &Path, (name, body): &Artifact) {
    let path = out.join(name);
    std::fs::write(&path, body).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// One workload: its name (the `why` lives in `BENCHMARK.json`), the
/// logical op count of one repetition, and the repetition itself.
pub struct Workload {
    pub name: &'static str,
    pub ops: fn(smoke: bool) -> u64,
    pub rep: fn(&mut Env) -> Vec<Artifact>,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "queue-fanout",
        ops: queue_fanout_ops,
        rep: queue_fanout,
    },
    Workload {
        name: "contended-knee",
        ops: contended_knee_ops,
        rep: contended_knee,
    },
    Workload {
        name: "blob-bytes",
        ops: blob_bytes_ops,
        rep: blob_bytes,
    },
    Workload {
        name: "observed-mixed",
        ops: observed_mixed_ops,
        rep: observed_mixed,
    },
    Workload {
        name: "engine-null",
        ops: engine_null_ops,
        rep: engine_null,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

const SMOKE_LADDER: [usize; 2] = [1, 4];

/// The worker ladder the drivers sweep: the paper's, or the smoke one.
fn ladder(smoke: bool) -> Vec<usize> {
    if smoke {
        SMOKE_LADDER.to_vec()
    } else {
        BenchConfig::paper().workers
    }
}

/// Pick the full or the smoke value of a size.
fn sized<T>(smoke: bool, full: T, tiny: T) -> T {
    if smoke {
        tiny
    } else {
        full
    }
}

// ---------------------------------------------------------------------------
// queue-fanout: Algorithm 3 + Algorithm 4 at the paper configuration.
// ---------------------------------------------------------------------------

fn queue_fanout_scale(smoke: bool) -> f64 {
    sized(smoke, 1.0, 0.005)
}

fn queue_fanout(env: &mut Env) -> Vec<Artifact> {
    let cfg = env.cfg(queue_fanout_scale(env.smoke));
    let mut figs = env.spans.span("core.alg3", |_| alg3_queue::figure_6(&cfg));
    figs.extend(env.spans.span("core.alg4", |_| alg4_queue::figure_7(&cfg)));
    env.emit_figures(&figs)
}

/// Alg. 3: per worker create + delete queue and, per message size,
/// put + peek + get + delete of its share. Alg. 4: per worker create and,
/// per think time, put + peek + get + delete per iteration.
fn queue_fanout_ops(smoke: bool) -> u64 {
    let cfg = BenchConfig::paper().with_scale(queue_fanout_scale(smoke));
    let total = cfg.queue_messages_total();
    let (sizes, thinks) = (cfg.message_sizes().len(), cfg.think_times_secs().len());
    ladder(smoke)
        .iter()
        .map(|&w| {
            let alg3 = w * (2 + sizes * 4 * (total / w).max(1));
            let alg4 = w * (1 + thinks * 4 * (total / 10 / w).max(1));
            (alg3 + alg4) as u64
        })
        .sum()
}

// ---------------------------------------------------------------------------
// contended-knee: Algorithm 5 past the front-end knee + a hot queue at its
// 500 msg/s bucket.
// ---------------------------------------------------------------------------

fn knee_scale(smoke: bool) -> f64 {
    sized(smoke, 0.5, 0.01)
}

/// Hot-queue shape: (workers, put/get/delete iterations per worker).
fn hot_queue_shape(smoke: bool) -> (usize, usize) {
    sized(smoke, (96, 5_000), (8, 40))
}

/// What the hot-queue closed loop leaves behind; every field is exact
/// under a fixed seed.
pub struct HotQueueOutcome {
    pub requests: u64,
    pub completed: u64,
    pub throttled: u64,
    pub end_time: SimTime,
}

/// The paper's headline mechanism, which no paper figure reaches: many
/// workers on **one** queue, so the per-queue token bucket rejects, the
/// client sleeps `retry_after` and the retry wave comes back. 8 KB
/// put / get / delete per iteration, default `RetryPolicy`.
pub fn hot_queue(seed: u64, workers: usize, iters: usize) -> HotQueueOutcome {
    let report =
        Simulation::new(Cluster::with_defaults(), seed).run_workers(workers, |ctx| async move {
            let env = VirtualEnv::new(&ctx);
            let queue = QueueClient::new(&env, "hot");
            queue.create().await.expect("create hot queue");
            let mut gen = PayloadGen::new(seed, env.instance() as u64);
            for _ in 0..iters {
                queue.put_message(gen.bytes(8 << 10)).await.expect("put");
                let msg = queue
                    .get_message()
                    .await
                    .expect("get")
                    .expect("own put is still queued");
                queue.delete_message(&msg).await.expect("delete");
            }
        });
    HotQueueOutcome {
        requests: report.requests,
        completed: report.model.metrics().total_completed(),
        throttled: report.model.metrics().total_throttled(),
        end_time: report.end_time,
    }
}

fn contended_knee(env: &mut Env) -> Vec<Artifact> {
    let cfg = env.cfg(knee_scale(env.smoke));
    let figs = env.spans.span("core.alg5", |_| alg5_table::figure_8(&cfg));
    let (workers, iters) = hot_queue_shape(env.smoke);
    let seed = env.seed;
    let hot = env
        .spans
        .span("core.hotqueue", |_| hot_queue(seed, workers, iters));
    let mut arts = env.emit_figures(&figs);
    arts.extend(env.emit(
        "core.report.emit",
        vec![(
            "hot-queue.txt".to_owned(),
            format!(
                "requests {}\ntotal_completed {}\ntotal_throttled {}\nend_time_ns {}\n",
                hot.requests,
                hot.completed,
                hot.throttled,
                hot.end_time.as_nanos()
            ),
        )],
    ));
    arts
}

/// Alg. 5: per worker create table and, per entity size, insert + query +
/// update + delete of its entities. Hot queue: create + 3 ops per
/// iteration (retries not counted).
fn contended_knee_ops(smoke: bool) -> u64 {
    let cfg = BenchConfig::paper().with_scale(knee_scale(smoke));
    let per_worker = 1 + cfg.entity_sizes().len() * 4 * cfg.table_entities();
    let alg5: usize = ladder(smoke).iter().map(|&w| w * per_worker).sum();
    let (workers, iters) = hot_queue_shape(smoke);
    (alg5 + workers * (1 + 3 * iters)) as u64
}

// ---------------------------------------------------------------------------
// blob-bytes: Algorithm 1, byte-dominated.
// ---------------------------------------------------------------------------

fn blob_scale(smoke: bool) -> f64 {
    sized(smoke, 0.3, 0.02)
}

fn blob_bytes(env: &mut Env) -> Vec<Artifact> {
    let cfg = env.cfg(blob_scale(env.smoke));
    let figs = env
        .spans
        .span("core.alg1", |_| alg1_blob::figures_4_and_5(&cfg));
    env.emit_figures(&figs)
}

/// Alg. 1 per ladder point: per worker create container; per repeat one
/// page-blob create, every chunk put as a page and as a block, one block
/// list, every worker reading every chunk both ways, two whole-blob
/// downloads per worker and two deletes. Barrier traffic is not counted.
fn blob_bytes_ops(smoke: bool) -> u64 {
    let cfg = BenchConfig::paper().with_scale(blob_scale(smoke));
    let (chunks, repeats) = (cfg.blob_chunks(), cfg.blob_repeats());
    ladder(smoke)
        .iter()
        .map(|&w| (w + repeats * (4 + 2 * chunks + 2 * w * chunks + 2 * w)) as u64)
        .sum()
}

// ---------------------------------------------------------------------------
// observed-mixed: the same Cluster hot path with every recorder live, then
// every export format.
// ---------------------------------------------------------------------------

/// Sizes of the four bodies of `observed-mixed`.
struct Observed {
    profile_ops: usize,
    /// `run_timeline(workers, ops)`: at full size deliberately more blob
    /// partitions than the 64 × 512 gauge-bucket budget holds.
    timeline: (usize, usize),
    chaos_scale: f64,
    chaos_workers: usize,
    verify_plans: u64,
}

const CHAOS_INTENSITIES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

fn observed(smoke: bool) -> Observed {
    sized(
        smoke,
        Observed {
            profile_ops: 200,
            timeline: (32, 270),
            chaos_scale: 50.0,
            chaos_workers: 32,
            verify_plans: 2_500,
        },
        Observed {
            profile_ops: 4,
            timeline: (4, 8),
            chaos_scale: 0.05,
            chaos_workers: 4,
            verify_plans: 4,
        },
    )
}

fn observed_mixed(env: &mut Env) -> Vec<Artifact> {
    let size = observed(env.smoke);
    let cfg = env.cfg(1.0);
    let mut arts = Vec::new();

    let report = env.spans.span("core.profile", |_| {
        profile::run_profile(&cfg, &cfg.workers, size.profile_ops)
    });
    arts.extend(env.spans.span("core.profile.export", |_| {
        vec![
            ("profile.json".to_owned(), report.to_json()),
            ("profile.prom".to_owned(), report.to_prometheus()),
            ("profile.otlp.json".to_owned(), report.to_otlp()),
        ]
    }));
    drop(report);

    let (workers, ops) = size.timeline;
    let report = env.spans.span("core.timeline", |_| {
        timeline::run_timeline(&cfg, workers, ops)
    });
    arts.extend(env.spans.span("core.timeline.export", |_| {
        vec![
            ("timeline.json".to_owned(), report.to_json()),
            ("timeline.csv".to_owned(), report.to_csv()),
            ("timeline.trace.json".to_owned(), report.to_chrome_trace()),
            ("metrics.prom".to_owned(), report.to_prometheus()),
            ("metrics.otlp.json".to_owned(), report.to_otlp()),
        ]
    }));
    drop(report);
    let mut arts = env.emit("core.report.emit", arts);

    let chaos_cfg = env.cfg(size.chaos_scale);
    let figs = env.spans.span("core.chaos", |_| {
        chaos::figure_chaos(&chaos_cfg, size.chaos_workers, &CHAOS_INTENSITIES)
    });
    arts.extend(env.emit_figures(&figs));

    let vcfg = verify::VerifyConfig {
        seed: env.seed,
        ..verify::VerifyConfig::quick(true)
    };
    let plan_seeds: Vec<u64> = (0..size.verify_plans).collect();
    let search = env.spans.span("core.verify", |_| {
        verify::chaos_search(&vcfg, &plan_seeds, 1)
    });
    arts.extend(env.emit(
        "core.report.emit",
        vec![(
            "verify.txt".to_owned(),
            format!(
                "runs {}\nboundary_runs {}\nviolations {}\n",
                search.runs,
                search.boundary_runs,
                search.failure.map_or(0, |f| f.violations.len())
            ),
        )],
    ));
    arts
}

/// Verification runs one repetition makes (boundary plans + seeded ones).
pub fn verify_runs(smoke: bool) -> u64 {
    let boundary = verify::boundary_plans(azsim_fabric::ClusterParams::default().servers).len();
    boundary as u64 + observed(smoke).verify_plans
}

/// Profile: 4 creates + 10 mixed ops per iteration per worker; timeline:
/// 4 creates + 9 per iteration; chaos: submit + claim + complete per task
/// per intensity; verify: per plan, 3 ops per queue item and read + write
/// per counter increment.
fn observed_mixed_ops(smoke: bool) -> u64 {
    let size = observed(smoke);
    let profile: usize = ladder(smoke)
        .iter()
        .map(|&w| w * (4 + 10 * size.profile_ops))
        .sum();
    let (tw, tops) = size.timeline;
    let timeline = tw * (4 + 9 * tops);
    let tasks = BenchConfig::paper()
        .with_scale(size.chaos_scale)
        .scaled(1000);
    let chaos = CHAOS_INTENSITIES.len() * tasks * 3;
    let v = verify::VerifyConfig::quick(true);
    let per_plan = 3 * (v.items + v.poison) as u64 + 2 * v.workers as u64 * v.increments as u64;
    (profile + timeline + chaos) as u64 + verify_runs(smoke) * per_plan
}

// ---------------------------------------------------------------------------
// engine-null: heap + executor only.
// ---------------------------------------------------------------------------

/// A free model: every request completes in 1 µs of virtual time, so the
/// cost measured is the engine itself.
pub struct NullModel;

impl Model for NullModel {
    type Req = u64;
    type Resp = u64;
    fn handle(&mut self, now: SimTime, _actor: ActorId, req: u64) -> (SimTime, u64) {
        (now + Duration::from_micros(1), req)
    }
}

impl azsim_core::ShardableModel for NullModel {
    fn split(self, partitions: u32) -> Vec<Self> {
        (0..partitions).map(|_| NullModel).collect()
    }
    fn merge(_parts: Vec<Self>) -> Self {
        NullModel
    }
}

/// `(actors, calls per actor)`: tuples of the `figures bench` ladder.
fn engine_rungs(smoke: bool) -> &'static [(usize, u64)] {
    sized(
        smoke,
        &[(128, 50_000), (10_000, 2_560), (100_000, 256)],
        &[(8, 500), (100, 40), (1_000, 4)],
    )
}

fn engine_null(env: &mut Env) -> Vec<Artifact> {
    let mut body = String::new();
    for &(actors, per_actor) in engine_rungs(env.smoke) {
        let report = env.spans.span("core.engine", |_| {
            Simulation::new(NullModel, 1).run_workers(actors, |ctx| async move {
                let mut acc = 0u64;
                for i in 0..per_actor {
                    acc = acc.wrapping_add(ctx.call(i).await);
                }
                acc
            })
        });
        let sum = report
            .results
            .iter()
            .fold(0u64, |acc, &r| acc.wrapping_add(r));
        // Closed forms: every actor echoes 0..per_actor, 1 µs apiece.
        let want_sum = (actors as u64).wrapping_mul(per_actor * (per_actor - 1) / 2);
        assert_eq!(report.requests, actors as u64 * per_actor, "requests");
        assert_eq!(report.end_time.as_nanos(), per_actor * 1_000, "end time");
        assert_eq!(sum, want_sum, "sum of replies");
        body.push_str(&format!(
            "actors {actors} per_actor {per_actor} requests {} end_time_ns {} sum {sum}\n",
            report.requests,
            report.end_time.as_nanos()
        ));
    }
    env.emit("core.report.emit", vec![("engine.txt".to_owned(), body)])
}

fn engine_null_ops(smoke: bool) -> u64 {
    engine_rungs(smoke)
        .iter()
        .map(|&(actors, per_actor)| actors as u64 * per_actor)
        .sum()
}
