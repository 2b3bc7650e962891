//! Multi-tenant fleet scenario: the partition-parallel workload.
//!
//! Every figure in the paper runs against **one** storage account, which is
//! fully coupled (shared account pipes and transaction bucket) and
//! therefore pins the whole simulation to one shard. This scenario models
//! what the paper's cloud actually hosts — many tenants, each with its own
//! account — and is the workload where the sharded executor's parallelism
//! is real: partition = tenant, lookahead = the front-end one-way leg, and
//! workers occasionally reach across to a neighbour tenant's account
//! (paying that leg each way) so the shards genuinely exchange messages
//! rather than free-running.
//!
//! The scenario is bit-deterministic across shard counts like everything
//! else: `figures fleet --shards 4` emits the same CSV as `--shards 1`
//! (checked by `tests/figures_sharded.rs`).

use crate::{BenchConfig, Figure, Series};
use azsim_client::{FleetEnv, QueueClient};
use azsim_core::shard::ShardedSimulation;
use azsim_core::SimTime;
use azsim_fabric::Fleet;

/// Outcome of one fleet run.
pub struct FleetResult {
    /// Tenant (account) count.
    pub tenants: u32,
    /// Workers homed on each tenant.
    pub workers_per_tenant: usize,
    /// Operations completed across all tenants.
    pub completed: u64,
    /// Operations a worker addressed to a foreign tenant.
    pub cross_ops: u64,
    /// Virtual completion time.
    pub end_time: SimTime,
    /// Completed operations per tenant, indexed by tenant id.
    pub per_tenant_completed: Vec<u64>,
    /// Events processed by each executor shard.
    pub shard_events: Vec<u64>,
    /// Fingerprint of the `(time, actor, seq)` observable history —
    /// identical at every shard count.
    pub history_hash: Option<u64>,
}

impl FleetResult {
    /// Completed operations per virtual second.
    pub fn throughput(&self) -> f64 {
        let secs = self.end_time.as_nanos() as f64 / 1e9;
        if secs > 0.0 {
            self.completed as f64 / secs
        } else {
            0.0
        }
    }
}

/// Run `tenants × workers_per_tenant` workers: each worker drives a queue
/// producer/consumer loop on its home tenant and sends every fourth message
/// to the next tenant over, exercising the cross-partition (cross-shard)
/// path. The executor shard count comes from `cfg.shards`.
pub fn run_fleet(cfg: &BenchConfig, tenants: u32, workers_per_tenant: usize) -> FleetResult {
    let mut params = cfg.params.clone();
    params.seed = cfg.seed;
    let fleet = Fleet::new(params, tenants);
    let plan = fleet.plan(workers_per_tenant, cfg.shards);
    let ops = cfg.scaled(120).max(8);

    let report = ShardedSimulation::new(fleet, cfg.seed, plan)
        .record_history()
        .run_workers(move |ctx| async move {
            let me = ctx.id().0;
            let home = me as u32 % tenants;
            let neighbour = (home + 1) % tenants;
            let env = FleetEnv::new(&ctx, home);
            let own = QueueClient::new(&env, format!("fleet-{me}"));
            own.create().await.unwrap();
            let far_env = env.for_tenant(neighbour);
            let far = QueueClient::new(&far_env, format!("fleet-{me}"));
            if neighbour != home {
                far.create().await.unwrap();
            }
            let payload = bytes::Bytes::from(vec![0x5au8; 4 << 10]);
            let mut cross = 0u64;
            for i in 0..ops {
                if tenants > 1 && i % 4 == 3 {
                    far.put_message(payload.clone()).await.unwrap();
                    cross += 1;
                } else {
                    own.put_message(payload.clone()).await.unwrap();
                }
                if i % 2 == 1 {
                    // Drain our own queue at half rate to keep state bounded.
                    let _ = own.get_message().await.unwrap();
                }
            }
            cross
        });

    let per_tenant_completed: Vec<u64> = report
        .model
        .iter()
        .map(|(_, c)| c.metrics().total_completed())
        .collect();
    FleetResult {
        tenants,
        workers_per_tenant,
        completed: report.model.total_completed(),
        cross_ops: report.results.iter().sum(),
        end_time: report.end_time,
        per_tenant_completed,
        shard_events: report.shard_events,
        history_hash: report.history_hash,
    }
}

/// Tenant ladder swept by the `fleet` figure target.
pub const TENANT_LADDER: [u32; 4] = [1, 2, 4, 8];

/// Shard ladder swept by the fleet *scaling* figure.
pub const SHARD_LADDER: [u32; 4] = [1, 2, 4, 8];

/// The `fleet` target's figures: the tenant-ladder throughput figure, plus
/// the shard-ladder scaling figure.
pub fn figure_fleet(cfg: &BenchConfig) -> Vec<Figure> {
    let workers_per_tenant = 4;
    let mut throughput = Series::new("ops-per-vsec");
    let mut cross = Series::new("cross-tenant-ops");
    for &tenants in &TENANT_LADDER {
        let r = run_fleet(cfg, tenants, workers_per_tenant);
        throughput.push(tenants as f64, r.throughput());
        cross.push(tenants as f64, r.cross_ops as f64);
    }
    let mut fig = Figure::new(
        "fleet",
        format!("Multi-tenant fleet throughput ({workers_per_tenant} workers/tenant)"),
        "tenants",
        "ops/s (virtual)",
    );
    fig.series.push(throughput);
    fig.series.push(cross);
    vec![fig, figure_fleet_scaling(cfg)]
}

/// The fleet scaling figure: the same fleet workload at a fixed tenant and
/// worker count, swept over the executor shard ladder (ignoring
/// `cfg.shards`, so the emitted CSV is identical no matter which executor
/// the rest of the run used). Every series is deterministic and therefore
/// committable as a golden: `ops-per-vsec` is the virtual throughput,
/// bit-identical at every shard count — the executor's determinism
/// guarantee made visible as a flat line; `events-max-shard` is the
/// busiest shard's event count, which falls as shards are added and shows
/// the striped plan actually spreading load; `history-stable` is 1 when
/// the `(time, actor, seq)` observable-history fingerprint matches the
/// serial reference. Wall-clock scaling is measured by `azbench`
/// (`simcore.shard.*`), never committed in goldens.
pub fn figure_fleet_scaling(cfg: &BenchConfig) -> Figure {
    let (tenants, workers_per_tenant) = (8u32, 4usize);
    let mut throughput = Series::new("ops-per-vsec");
    let mut max_shard = Series::new("events-max-shard");
    let mut stable = Series::new("history-stable");
    let mut reference: Option<Option<u64>> = None;
    for &shards in &SHARD_LADDER {
        let r = run_fleet(
            &cfg.clone().with_shards(shards),
            tenants,
            workers_per_tenant,
        );
        let hash = r.history_hash;
        let ok = match &reference {
            None => {
                reference = Some(hash);
                true
            }
            Some(base) => *base == hash,
        };
        throughput.push(shards as f64, r.throughput());
        max_shard.push(
            shards as f64,
            *r.shard_events.iter().max().unwrap_or(&0) as f64,
        );
        stable.push(shards as f64, if ok { 1.0 } else { 0.0 });
    }
    let mut fig = Figure::new(
        "fleet-scaling",
        format!(
            "Fleet shard scaling ({tenants} tenants x {workers_per_tenant} workers, \
             deterministic series)"
        ),
        "shards",
        "ops/s (virtual)",
    );
    fig.series.push(throughput);
    fig.series.push(max_shard);
    fig.series.push(stable);
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BenchConfig {
        BenchConfig::quick().with_scale(0.02)
    }

    #[test]
    fn fleet_run_is_identical_at_every_shard_count() {
        let serial = run_fleet(&tiny(), 4, 2);
        assert!(serial.completed > 0);
        assert!(serial.cross_ops > 0, "workload must cross tenants");
        for shards in [2u32, 4] {
            let shd = run_fleet(&tiny().with_shards(shards), 4, 2);
            assert_eq!(serial.history_hash, shd.history_hash);
            assert_eq!(serial.end_time, shd.end_time);
            assert_eq!(serial.completed, shd.completed);
            assert_eq!(serial.per_tenant_completed, shd.per_tenant_completed);
            assert_eq!(serial.cross_ops, shd.cross_ops);
            assert_eq!(shd.shard_events.len(), shards as usize);
            assert_eq!(
                shd.shard_events.iter().sum::<u64>(),
                serial.shard_events.iter().sum::<u64>()
            );
        }
    }

    #[test]
    fn single_tenant_fleet_has_no_cross_ops() {
        let r = run_fleet(&tiny(), 1, 2);
        assert_eq!(r.cross_ops, 0);
        assert!(r.completed > 0);
    }

    #[test]
    fn scaling_figure_is_flat_stable_and_spreads_load() {
        let fig = figure_fleet_scaling(&tiny());
        assert_eq!(fig.id, "fleet-scaling");
        let [vops, max_shard, stable] = &fig.series[..] else {
            panic!("expected 3 series, got {}", fig.series.len());
        };
        assert_eq!(vops.points.len(), SHARD_LADDER.len());
        // Virtual throughput is bit-identical at every shard count.
        let first = vops.points[0].1;
        assert!(first > 0.0);
        assert!(vops.points.iter().all(|&(_, y)| y == first));
        // The history fingerprint matched the serial reference everywhere.
        assert!(stable.points.iter().all(|&(_, y)| y == 1.0));
        // Adding shards strictly sheds load off the busiest shard (until
        // the tenant count stops dividing further).
        let loads: Vec<f64> = max_shard.points.iter().map(|&(_, y)| y).collect();
        assert!(
            loads.windows(2).all(|w| w[1] <= w[0]),
            "busiest-shard load must not grow with shards: {loads:?}"
        );
        assert!(loads[loads.len() - 1] < loads[0]);
    }

    #[test]
    fn scaling_figure_ignores_the_ambient_shard_count() {
        let a = figure_fleet_scaling(&tiny());
        let b = figure_fleet_scaling(&tiny().with_shards(4));
        assert_eq!(a.to_csv(), b.to_csv());
    }
}
