//! Multi-account fleet: the partition-separable model for sharded runs.
//!
//! A single [`Cluster`] is one storage account, and inside an account every
//! request crosses the shared account pipes and transaction bucket — fully
//! coupled, impossible to split. Across accounts the paper's architecture
//! shares nothing below the load balancer: account `A`'s partitions,
//! pipes and throttles never touch account `B`'s. A [`Fleet`] models `T`
//! tenants as `T` independent clusters and exposes the account boundary as
//! the **virtual partition** boundary, which is exactly what the sharded
//! executor needs:
//!
//! * `partition_of` a [`FleetReq`] is its tenant id — a pure function of
//!   the request.
//! * A call to a foreign tenant pays the front-end one-way leg (half the
//!   modeled front-end RTT) in each direction — the cost of leaving your
//!   co-located account — and that same leg is the conservative lookahead
//!   between shards.
//! * `split` hands each partition its own cluster; no state is shared, so
//!   parallel execution is exact, not approximate.

use crate::cluster::Cluster;
use crate::params::ClusterParams;
use azsim_core::rng::derive_seed;
use azsim_core::runtime::{ActorId, Model};
use azsim_core::shard::{ShardPlan, ShardableModel};
use azsim_core::SimTime;
use azsim_storage::{StorageOk, StorageRequest, StorageResult};
use std::sync::Arc;
use std::time::Duration;

/// A request addressed to one tenant of the fleet.
#[derive(Clone, Debug)]
pub struct FleetReq {
    /// Target tenant (storage account), `0..tenants`.
    pub tenant: u32,
    /// The storage operation to run on that tenant's cluster.
    pub req: Arc<StorageRequest>,
}

/// `T` independent storage accounts, one [`Cluster`] each.
///
/// After a `split`, a sub-fleet holds a contiguous run of tenants starting
/// at `first` (the executor only ever routes a tenant's requests to the
/// sub-fleet owning it).
pub struct Fleet {
    tenants: Vec<Cluster>,
    first: u32,
    /// One-way front-end leg paid by cross-tenant calls (= lookahead hop).
    hop: Duration,
}

impl Fleet {
    /// Build `tenants` independent clusters from shared parameters. Each
    /// tenant's cluster gets its own derived seed so queue fuzz and fault
    /// draws stay uncorrelated across accounts.
    pub fn new(params: ClusterParams, tenants: u32) -> Self {
        assert!(tenants >= 1, "a fleet needs at least one tenant");
        let hop = params.frontend_rtt / 2;
        let tenants = (0..tenants)
            .map(|t| {
                let mut p = params.clone();
                p.seed = derive_seed(params.seed, t as u64);
                Cluster::new(p)
            })
            .collect();
        Fleet {
            tenants,
            first: 0,
            hop,
        }
    }

    /// Number of tenants in this (sub-)fleet.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether the fleet has no tenants (never true for a built fleet).
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// The one-way cross-tenant network leg, also the lookahead hop.
    pub fn hop(&self) -> Duration {
        self.hop
    }

    /// Tenant `t`'s cluster (global tenant id).
    pub fn tenant(&self, t: u32) -> &Cluster {
        &self.tenants[(t - self.first) as usize]
    }

    /// Iterate `(tenant id, cluster)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Cluster)> {
        self.tenants
            .iter()
            .enumerate()
            .map(|(i, c)| (self.first + i as u32, c))
    }

    /// Completed operations summed over every tenant.
    pub fn total_completed(&self) -> u64 {
        self.tenants
            .iter()
            .map(|c| c.metrics().total_completed())
            .sum()
    }

    /// Throttled operations summed over every tenant.
    pub fn total_throttled(&self) -> u64 {
        self.tenants
            .iter()
            .map(|c| c.metrics().total_throttled())
            .sum()
    }

    /// The canonical plan for this fleet: `workers_per_tenant` actors homed
    /// on each tenant (actor `a` → tenant `a % tenants`, the executor's
    /// striped layout), partitions dealt over `shards` shards, and the
    /// front-end leg as the lookahead hop.
    pub fn plan(&self, workers_per_tenant: usize, shards: u32) -> ShardPlan {
        ShardPlan::striped(
            workers_per_tenant * self.tenants.len(),
            self.tenants.len() as u32,
            shards,
        )
        .with_hop(self.hop)
    }
}

impl Model for Fleet {
    type Req = FleetReq;
    type Resp = StorageResult<StorageOk>;

    fn handle(
        &mut self,
        now: SimTime,
        actor: ActorId,
        req: FleetReq,
    ) -> (SimTime, StorageResult<StorageOk>) {
        let t = (req.tenant - self.first) as usize;
        self.tenants[t].handle(now, actor, req.req)
    }

    fn partition_of(&self, req: &FleetReq) -> Option<u32> {
        Some(req.tenant)
    }
}

impl ShardableModel for Fleet {
    fn split(self, partitions: u32) -> Vec<Self> {
        assert_eq!(
            partitions as usize,
            self.tenants.len(),
            "fleet plans must use one partition per tenant"
        );
        let hop = self.hop;
        let base = self.first;
        self.tenants
            .into_iter()
            .enumerate()
            .map(|(i, c)| Fleet {
                tenants: vec![c],
                first: base + i as u32,
                hop,
            })
            .collect()
    }

    fn merge(parts: Vec<Self>) -> Self {
        let hop = parts[0].hop;
        let first = parts[0].first;
        let mut tenants = Vec::with_capacity(parts.len());
        for (i, part) in parts.into_iter().enumerate() {
            assert_eq!(
                part.first as usize,
                first as usize + i,
                "fleet parts merged out of tenant order"
            );
            tenants.extend(part.tenants);
        }
        Fleet {
            tenants,
            first,
            hop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use azsim_core::{ShardedSimulation, Simulation};
    use bytes::Bytes;

    fn put(queue: &str, bytes: usize) -> StorageRequest {
        StorageRequest::PutMessage {
            queue: queue.into(),
            data: Bytes::from(vec![7u8; bytes]),
            ttl: None,
        }
    }

    /// Workers mostly hit their home tenant but spill every fourth op to a
    /// neighbour, exercising the cross-partition legs.
    async fn worker(ctx: azsim_core::ActorCtx<Fleet>, tenants: u32, ops: u32) -> (u64, u64) {
        let home = ctx.id().0 as u32 % tenants;
        for tenant in [home, (home + 1) % tenants] {
            ctx.call(FleetReq {
                tenant,
                req: StorageRequest::CreateQueue {
                    queue: format!("q{}", ctx.id().0),
                }
                .into(),
            })
            .await
            .expect("create queue");
        }
        let mut ok = 0u64;
        let mut end = 0u64;
        for i in 0..ops {
            let tenant = if i % 4 == 3 {
                (home + 1) % tenants
            } else {
                home
            };
            let r = ctx
                .call(FleetReq {
                    tenant,
                    req: put(&format!("q{}", ctx.id().0), 256).into(),
                })
                .await;
            if r.is_ok() {
                ok += 1;
            }
            end = ctx.now().as_nanos();
        }
        (ok, end)
    }

    #[test]
    fn fleet_tenants_have_uncorrelated_seeds() {
        let f = Fleet::new(ClusterParams::default(), 3);
        let seeds: Vec<u64> = f.iter().map(|(_, c)| c.params().seed).collect();
        assert_eq!(seeds.len(), 3);
        assert!(seeds[0] != seeds[1] && seeds[1] != seeds[2]);
    }

    #[test]
    fn sharded_fleet_matches_serial_bit_for_bit() {
        let tenants = 4u32;
        let run = |shards: u32| {
            let fleet = Fleet::new(ClusterParams::default(), tenants);
            let plan = fleet.plan(2, shards);
            ShardedSimulation::new(fleet, 42, plan)
                .record_history()
                .run_workers(|ctx| worker(ctx, tenants, 12))
        };
        let fleet = Fleet::new(ClusterParams::default(), tenants);
        let plan = fleet.plan(2, 1);
        let serial = Simulation::new(fleet, 42)
            .with_plan(&plan)
            .record_history()
            .run_workers(plan.actors(), |ctx| worker(ctx, tenants, 12));
        for shards in [1u32, 2, 4] {
            let shd = run(shards);
            assert_eq!(
                serial.results, shd.results,
                "results diverged at {shards} shards"
            );
            assert_eq!(serial.end_time, shd.end_time);
            assert_eq!(serial.history_hash, shd.history_hash);
            assert_eq!(serial.model.total_completed(), shd.model.total_completed());
            for t in 0..tenants {
                assert_eq!(
                    serial.model.tenant(t).metrics().total_completed(),
                    shd.model.tenant(t).metrics().total_completed(),
                    "tenant {t} metrics diverged at {shards} shards"
                );
            }
        }
        // The spill pattern really does cross tenants.
        assert!(serial.model.total_completed() > 0);
    }

    #[test]
    fn cross_tenant_calls_pay_the_frontend_leg() {
        // One worker runs create+put against a foreign tenant vs its home
        // tenant: each foreign call pays the one-way leg both directions,
        // so the pair finishes exactly 2 ops * 2 legs * hop later.
        let each = |tenant: u32| -> u64 {
            let fleet = Fleet::new(ClusterParams::default(), 2);
            let plan = fleet.plan(1, 1);
            let rep =
                Simulation::new(fleet, 7)
                    .with_plan(&plan)
                    .run_workers(2, move |ctx| async move {
                        if ctx.id().0 == 0 {
                            ctx.call(FleetReq {
                                tenant,
                                req: StorageRequest::CreateQueue { queue: "q".into() }.into(),
                            })
                            .await
                            .expect("create succeeds");
                            ctx.call(FleetReq {
                                tenant,
                                req: put("q", 64).into(),
                            })
                            .await
                            .expect("put succeeds");
                            ctx.now().as_nanos()
                        } else {
                            0
                        }
                    });
            rep.results[0]
        };
        let home = each(0);
        let foreign = each(1);
        let fleet = Fleet::new(ClusterParams::default(), 2);
        let legs = 4 * fleet.hop().as_nanos() as u64;
        assert_eq!(foreign - home, legs, "foreign calls must pay hop each way");
    }
}
