//! `figures bottleneck`: automated bottleneck attribution.
//!
//! Each scenario drives one figure's workload shape against the cluster
//! with the gauge timeline enabled, then asks [`Cluster::resource_usage`]
//! for the time-weighted saturation of every modelled resource — token
//! buckets (fraction of the run with less than one token), partition
//! FIFOs and shared pipes (busy-time utilization). Ranking those rows
//! yields a one-line verdict per ladder point, e.g.
//!
//! ```text
//! fig7-put @ 64 workers: bucket:queue:fig7-shared saturated 97% of steady state
//! ```
//!
//! which names the *documented* limit behind each figure's knee: the
//! 500 msg/s per-queue bucket (Fig. 7), the 5 000 tx/s account bucket
//! (Fig. 6 at high worker counts), the shared table front-end pipe
//! (Fig. 8, large entities) and the 60 MB/s per-blob write pipe (Fig. 4).
//! Two non-figure scenarios widen coverage: `chaos-drain` drains the
//! shared chaos queue under the standard fault template (the queue bucket
//! must stay the binding limit even while its partition server crashes
//! and busy storms rage) and `ycsb-hot` hammers a Zipfian-skewed table
//! (the hottest partition's server FIFO binds, not the front-end).
//! Points run on the sweep engine and the report renders in point order,
//! so JSON and markdown are byte-identical at any `--threads`.

use crate::chaos::{chaos_plan, CHAOS_QUEUE};
use crate::config::BenchConfig;
use crate::payload::PayloadGen;
use crate::sweep::sweep_points;
use crate::timeline::DEFAULT_RESOLUTION;
use crate::ycsb::{record_key, Zipfian};
use azsim_client::{
    BlobClient, Environment, QueueClient, ResilientPolicy, TableClient, VirtualEnv,
};
use azsim_core::Simulation;
use azsim_fabric::{Cluster, ResourceUsage};
use azsim_storage::{Entity, PropValue};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;

/// Schema identifier written into every bottleneck JSON export.
pub const BOTTLENECK_SCHEMA: &str = "azurebench-bottleneck/v1";

/// A ranked resource must be at least this saturated for the verdict to
/// name it; below, the point is reported as unsaturated (no knee yet).
const VERDICT_THRESHOLD: f64 = 0.5;

/// How many ranked resources each point retains in the export.
const TOP_K: usize = 8;

/// One workload shape whose binding limit the pass attributes.
#[derive(Clone, Copy)]
struct Scenario {
    /// Stable scenario id (used in verdicts and JSON).
    id: &'static str,
    /// The paper figure whose shape this reproduces.
    figure: &'static str,
    /// The documented limit the shape is expected to hit at scale.
    expected: &'static str,
}

const SCENARIOS: [Scenario; 6] = [
    Scenario {
        id: "fig7-put",
        figure: "fig7",
        expected: "per-queue 500 msg/s bucket",
    },
    Scenario {
        id: "fig6-own",
        figure: "fig6",
        expected: "account 5000 tx/s bucket",
    },
    Scenario {
        id: "fig8-insert",
        figure: "fig8",
        expected: "shared table front-end pipe",
    },
    Scenario {
        id: "fig4-page",
        figure: "fig4",
        expected: "per-blob 60 MB/s write pipe",
    },
    Scenario {
        id: "chaos-drain",
        figure: "chaos",
        expected: "per-queue 500 msg/s bucket under chaos faults",
    },
    Scenario {
        id: "ycsb-hot",
        figure: "ycsb",
        expected: "hottest table partition (Zipfian skew)",
    },
];

/// One `(scenario, workers)` attribution result.
#[derive(Clone, Serialize)]
pub struct BottleneckPoint {
    /// Scenario id (e.g. `fig7-put`).
    pub scenario: String,
    /// Figure the scenario reproduces.
    pub figure: String,
    /// Documented limit the scenario targets.
    pub expected: String,
    /// Worker count of the point.
    pub workers: u64,
    /// Requests the runtime processed.
    pub requests: u64,
    /// Virtual end time, seconds.
    pub end_time_s: f64,
    /// The verdict line.
    pub verdict: String,
    /// Resources ranked by saturation, most saturated first.
    pub ranked: Vec<ResourceUsage>,
}

/// The full attribution report.
pub struct BottleneckReport {
    /// Workload scale the run used.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Worker ladder each scenario swept.
    pub ladder: Vec<usize>,
    /// All points, in (scenario, ladder) order.
    pub points: Vec<BottleneckPoint>,
}

#[derive(Serialize)]
struct BottleneckConfigDoc {
    scale: f64,
    seed: u64,
    ladder: Vec<u64>,
}

#[derive(Serialize)]
struct BottleneckDoc {
    schema: String,
    config: BottleneckConfigDoc,
    points: Vec<BottleneckPoint>,
}

/// Rank usage rows: saturation first, throttle count as tie-break, label
/// last so the order is total (and therefore deterministic).
fn rank(mut usage: Vec<ResourceUsage>) -> Vec<ResourceUsage> {
    usage.sort_by(|a, b| {
        b.saturation
            .total_cmp(&a.saturation)
            .then_with(|| b.throttled.cmp(&a.throttled))
            .then_with(|| a.resource.cmp(&b.resource))
    });
    usage.truncate(TOP_K);
    usage
}

fn verdict(scenario: &str, workers: usize, ranked: &[ResourceUsage]) -> String {
    // A token bucket riding *at* its limit admits and rejects in
    // alternation, so its `fill < 1` time fraction approximates the
    // rejection rate, not 100 % — when nothing is time-saturated, the
    // heaviest throttler (not the busiest FIFO) is the evidence.
    let throttler = ranked
        .iter()
        .filter(|r| r.throttled > 0)
        .max_by(|a, b| a.throttled.cmp(&b.throttled));
    match ranked.first() {
        Some(top) if top.saturation >= VERDICT_THRESHOLD => format!(
            "{scenario} @ {workers} workers: {} saturated {:.0}% of steady state{}",
            top.resource,
            top.saturation * 100.0,
            if top.throttled > 0 {
                format!(", throttling {} requests", top.throttled)
            } else {
                String::new()
            }
        ),
        Some(_) if throttler.is_some() => {
            let t = throttler.unwrap();
            format!(
                "{scenario} @ {workers} workers: {} throttled {} requests \
                 (saturated {:.0}% of steady state)",
                t.resource,
                t.throttled,
                t.saturation * 100.0
            )
        }
        Some(top) => format!(
            "{scenario} @ {workers} workers: no saturated resource (max {} at {:.0}%)",
            top.resource,
            top.saturation * 100.0
        ),
        None => format!("{scenario} @ {workers} workers: no resource observed"),
    }
}

/// Run one scenario at one worker count and attribute its bottleneck.
fn run_point(cfg: &BenchConfig, scenario: Scenario, workers: usize) -> BottleneckPoint {
    let seed = cfg.seed;
    let mut cluster = Cluster::new(cfg.params.clone());
    cluster.enable_timeline(DEFAULT_RESOLUTION);
    // The chaos scenario runs under the standard chaos fault template at
    // half intensity: crash of the queue's partition server, periodic
    // busy storms, request drops and replica stalls.
    if scenario.id == "chaos-drain" {
        cluster.set_fault_plan(chaos_plan(cfg, 0.5));
    }
    let sim = Simulation::new(cluster, seed);
    // Floors keep the pressure high enough to saturate the documented limits
    // even at test scales: the queue scenarios must outrun the 500 msg/s
    // bucket (plus its 50-token burst) for a sustained stretch.
    let queue_ops = cfg.scaled(200).max(60);
    let blob_ops = cfg.scaled(30).max(6);
    let id = scenario.id;
    let report = sim.run_workers(workers, move |ctx| async move {
        let env = VirtualEnv::new(&ctx);
        let me = env.instance();
        let mut gen = PayloadGen::new(seed, me as u64);
        // The queue scenarios run open-loop: rejections return immediately
        // (no retry sleeps), so the offered load stays pinned above the
        // documented target instead of oscillating around it — that is the
        // steady state whose saturation the verdict reports.
        let open_loop = || {
            ResilientPolicy::new(seed ^ me as u64)
                .with_max_attempts(1)
                .with_breaker(None)
        };
        match id {
            // Every worker floods ONE queue with 32 KB puts: the paper's
            // shared-queue experiment, bound by the per-queue bucket.
            "fig7-put" => {
                let q = QueueClient::new(&env, "fig7-shared").with_policy(open_loop());
                q.create().await.unwrap();
                for _ in 0..queue_ops {
                    let _ = q.put_message(gen.bytes(32 << 10)).await;
                }
            }
            // One queue per worker, small put-only traffic (~105 ops/s per
            // worker): no single queue saturates, but the *account*
            // transaction bucket does once the ladder passes ~50 workers.
            "fig6-own" => {
                let q = QueueClient::new(&env, format!("fig6-{me}")).with_policy(open_loop());
                q.create().await.unwrap();
                for _ in 0..queue_ops * 2 {
                    let _ = q.put_message(gen.bytes(1 << 10)).await;
                }
            }
            // Large entities into per-worker partitions: the shared table
            // front-end data path binds before any partition bucket.
            "fig8-insert" => {
                let t = TableClient::new(&env, "fig8");
                t.create_table().await.unwrap();
                for i in 0..queue_ops {
                    let _ = t
                        .insert(
                            Entity::new(format!("p{me}"), i.to_string())
                                .with("v", PropValue::Binary(gen.bytes(32 << 10))),
                        )
                        .await;
                }
            }
            // Every worker writes 1 MB pages into ONE page blob: the
            // documented per-blob write target binds.
            "fig4-page" => {
                let b = BlobClient::new(&env, "bottleneck");
                let _ = b.create_container().await;
                let total = 4u64 << 30;
                let _ = b.create_page_blob("pb", total).await;
                for i in 0..blob_ops {
                    let offset = ((me * blob_ops + i) as u64) << 20;
                    let _ = b.put_page("pb", offset % total, gen.bytes(1 << 20)).await;
                }
            }
            // Drain the shared chaos queue (put → get → delete) while the
            // fault plan crashes its server and raises busy storms: the
            // documented per-queue bucket must still be what binds.
            "chaos-drain" => {
                let q = QueueClient::new(&env, CHAOS_QUEUE).with_policy(open_loop());
                q.create().await.unwrap();
                for _ in 0..queue_ops {
                    let _ = q.put_message(gen.bytes(1 << 10)).await;
                    if let Ok(Some(msg)) = q.get_message().await {
                        let _ = q.delete_message(&msg).await;
                    }
                }
            }
            // Zipfian-skewed blind updates over a small keyspace: the
            // hottest partition's entities/s bucket binds, not the shared
            // front-end pipe (values are tiny).
            "ycsb-hot" => {
                let t = TableClient::new(&env, "ycsb");
                t.create_table().await.unwrap();
                let records: u64 = 256;
                let mut i = me as u64;
                while i < records {
                    let (p, r) = record_key(i);
                    let _ = t
                        .insert(Entity::new(p, r).with("v", PropValue::Binary(gen.bytes(64))))
                        .await;
                    i += workers as u64;
                }
                let zipf = Zipfian::new(records, 0.99);
                let mut rng =
                    SmallRng::seed_from_u64(azsim_core::rng::derive_seed(seed, 0x4242 ^ me as u64));
                for _ in 0..queue_ops * 2 {
                    let (p, r) = record_key(zipf.next(&mut rng));
                    let _ = t
                        .update(Entity::new(p, r).with("v", PropValue::Binary(gen.bytes(64))))
                        .await;
                }
            }
            other => panic!("unknown scenario {other}"),
        }
    });
    let ranked = rank(report.model.resource_usage(report.end_time));
    BottleneckPoint {
        scenario: scenario.id.to_string(),
        figure: scenario.figure.to_string(),
        expected: scenario.expected.to_string(),
        workers: workers as u64,
        requests: report.requests,
        end_time_s: report.end_time.as_secs_f64(),
        verdict: verdict(scenario.id, workers, &ranked),
        ranked,
    }
}

/// Attribute bottlenecks for every scenario across `ladder` worker counts.
/// Points are independent simulations and run on the sweep engine; results
/// collect in (scenario, ladder) order regardless of thread count.
pub fn run_bottlenecks(cfg: &BenchConfig, ladder: &[usize]) -> BottleneckReport {
    let grid: Vec<(Scenario, usize)> = SCENARIOS
        .iter()
        .flat_map(|&s| ladder.iter().map(move |&w| (s, w)))
        .collect();
    let points = sweep_points(&grid, cfg.sweep_threads, |&(s, w)| run_point(cfg, s, w));
    BottleneckReport {
        scale: cfg.scale,
        seed: cfg.seed,
        ladder: ladder.to_vec(),
        points,
    }
}

impl BottleneckReport {
    /// The point for one `(scenario, workers)` pair, if present.
    pub fn point(&self, scenario: &str, workers: usize) -> Option<&BottleneckPoint> {
        self.points
            .iter()
            .find(|p| p.scenario == scenario && p.workers == workers as u64)
    }

    /// Serialize to JSON (`azurebench-bottleneck/v1`). Deterministic:
    /// fixed point order and shortest-roundtrip floats.
    pub fn to_json(&self) -> String {
        let doc = BottleneckDoc {
            schema: BOTTLENECK_SCHEMA.to_string(),
            config: BottleneckConfigDoc {
                scale: self.scale,
                seed: self.seed,
                ladder: self.ladder.iter().map(|&w| w as u64).collect(),
            },
            points: self.points.clone(),
        };
        serde_json::to_string(&doc).expect("bottleneck serialization is infallible")
    }

    /// Render the attribution table as markdown.
    pub fn render_markdown(&self) -> String {
        let mut out = String::from(
            "| figure | scenario | workers | bottleneck | kind | saturation | throttled | runner-up |\n\
             |---|---|---|---|---|---|---|---|\n",
        );
        for p in &self.points {
            let (bottleneck, kind, sat, throttled) = match p.ranked.first() {
                Some(t) => (
                    t.resource.as_str(),
                    t.kind.as_str(),
                    format!("{:.1}%", t.saturation * 100.0),
                    t.throttled,
                ),
                None => ("-", "-", "-".to_string(), 0),
            };
            let runner_up = p
                .ranked
                .get(1)
                .map(|r| format!("{} ({:.1}%)", r.resource, r.saturation * 100.0))
                .unwrap_or_else(|| "-".to_string());
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} | {} |\n",
                p.figure, p.scenario, p.workers, bottleneck, kind, sat, throttled, runner_up
            ));
        }
        out.push('\n');
        for p in &self.points {
            out.push_str(&format!("- {}\n", p.verdict));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_queue_attributes_the_queue_bucket() {
        let cfg = BenchConfig::quick().with_sweep_threads(1);
        let r = run_bottlenecks(&cfg, &[64]);
        let p = r.point("fig7-put", 64).unwrap();
        let top = p.ranked.first().unwrap();
        assert_eq!(top.resource, "bucket:queue:fig7-shared");
        assert!(top.saturation > 0.8, "saturation {}", top.saturation);
        assert!(top.throttled > 0);
        assert!(p.verdict.contains("bucket:queue:fig7-shared"));

        // The per-account transaction bucket rides *at* its limit in the
        // own-queue scenario: it rejects thousands of requests while its
        // time-weighted fill recovers between waves, so the verdict leans
        // on the throttle count instead of the saturation fraction.
        let own = r.point("fig6-own", 64).unwrap();
        let own_top = own.ranked.first().unwrap();
        assert_eq!(own_top.resource, "account_tx");
        assert!(own_top.throttled > 0, "throttled {}", own_top.throttled);
        assert!(
            own.verdict.contains("account_tx") && own.verdict.contains("throttled"),
            "verdict: {}",
            own.verdict
        );

        // The table and blob scenarios pin their documented pipes.
        let tbl = r.point("fig8-insert", 64).unwrap();
        assert_eq!(tbl.ranked.first().unwrap().resource, "pipe:table_frontend");
        let blob = r.point("fig4-page", 64).unwrap();
        assert!(
            blob.ranked
                .first()
                .unwrap()
                .resource
                .starts_with("pipe:blob-write:"),
            "top: {}",
            blob.ranked.first().unwrap().resource
        );
    }

    #[test]
    fn chaos_and_ycsb_scenarios_attribute_their_limits() {
        let cfg = BenchConfig::quick().with_sweep_threads(1);
        let r = run_bottlenecks(&cfg, &[64]);

        // Under the chaos fault template nothing stays time-saturated
        // (storms and the failover pause the whole loop), but the shared
        // queue's bucket rejects thousands of requests — the verdict names
        // the heaviest throttler, not the busiest FIFO.
        let chaos = r.point("chaos-drain", 64).unwrap();
        let bucket = chaos
            .ranked
            .iter()
            .find(|u| u.resource == "bucket:queue:chaos-tasks")
            .expect("chaos queue bucket is ranked");
        assert!(bucket.throttled > 1_000, "throttled {}", bucket.throttled);
        assert!(
            chaos.verdict.contains("bucket:queue:chaos-tasks")
                && chaos.verdict.contains("throttled"),
            "verdict: {}",
            chaos.verdict
        );

        // Zipfian skew concentrates updates on rank 0's partition: its
        // FIFO saturates while its 15 siblings idle along far below.
        let hot = r.point("ycsb-hot", 64).unwrap();
        let top = hot.ranked.first().unwrap();
        assert_eq!(top.resource, "fifo:table:ycsb/part-00");
        assert!(top.saturation > 0.8, "saturation {}", top.saturation);
        assert!(hot.verdict.contains("fifo:table:ycsb/part-00"));
    }

    #[test]
    fn json_and_markdown_are_deterministic_across_threads() {
        let serial = BenchConfig::quick().with_sweep_threads(1);
        let parallel = BenchConfig::quick().with_sweep_threads(4);
        let a = run_bottlenecks(&serial, &[2, 8]);
        let b = run_bottlenecks(&parallel, &[2, 8]);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.render_markdown(), b.render_markdown());
        assert!(a.to_json().contains(BOTTLENECK_SCHEMA));
    }

    #[test]
    fn unsaturated_points_say_so() {
        let cfg = BenchConfig::quick().with_sweep_threads(1);
        let r = run_bottlenecks(&cfg, &[1]);
        // One worker against its own queue saturates nothing.
        let p = r.point("fig6-own", 1).unwrap();
        assert!(
            p.verdict.contains("no saturated resource"),
            "verdict: {}",
            p.verdict
        );
    }
}
