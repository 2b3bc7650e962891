//! Executor selection: run a figure scenario serially or sharded.
//!
//! Every figure driver funnels its simulation through
//! [`run_cluster_workers`], which picks the executor from
//! [`BenchConfig::shards`](crate::BenchConfig):
//!
//! * `shards == 1` — the serial stackless-coroutine executor, exactly the
//!   path the committed figure CSVs were produced on.
//! * `shards > 1` — the sharded executor under a **colocated** plan: a
//!   [`Cluster`] is one storage account whose requests all share the
//!   account pipes and transaction bucket, so the model itself cannot be
//!   split — every actor and event runs on shard 0 while the remaining
//!   shards idle. This still exercises the full sharded machinery
//!   (routing tables, arena stores, cross-thread merge) and must — and
//!   does, see `tests/figures_sharded.rs` — reproduce the serial figures
//!   bit for bit. Real multi-shard speedup comes from partition-separable
//!   models ([`azsim_fabric::Fleet`]) and the engine ladder, not from a
//!   single coupled account.

use crate::BenchConfig;
use azsim_core::runtime::ActorCtx;
use azsim_core::shard::{ShardPlan, ShardedSimulation};
use azsim_core::{SimReport, Simulation};
use azsim_fabric::Cluster;
use std::future::Future;

/// Build the simulated cluster a figure driver runs against: the
/// configured parameters, including the selected backend profile. Every
/// driver goes through this single seam so backend selection reaches all
/// figures uniformly.
pub fn build_cluster(cfg: &BenchConfig) -> Cluster {
    Cluster::new(cfg.params.clone())
}

/// Run `workers` identical actors against `cluster` on the executor chosen
/// by `cfg.shards`. The emitted report is identical either way; only the
/// executor plumbing differs.
pub fn run_cluster_workers<R, F, Fut>(
    cfg: &BenchConfig,
    cluster: Cluster,
    workers: usize,
    body: F,
) -> SimReport<Cluster, R>
where
    R: Send,
    F: Fn(ActorCtx<Cluster>) -> Fut + Sync,
    Fut: Future<Output = R>,
{
    if cfg.shards <= 1 {
        Simulation::new(cluster, cfg.seed).run_workers(workers, body)
    } else {
        let plan = ShardPlan::colocated(workers).with_shards(cfg.shards);
        ShardedSimulation::new(cluster, cfg.seed, plan).run_workers(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use azsim_storage::StorageRequest;
    use bytes::Bytes;

    #[test]
    fn sharded_figure_path_matches_serial() {
        let run = |shards: u32| {
            let cfg = BenchConfig::quick().with_shards(shards);
            run_cluster_workers(&cfg, Cluster::with_defaults(), 4, |ctx| async move {
                let q = format!("q{}", ctx.id().0);
                ctx.call(StorageRequest::CreateQueue { queue: q.clone() }.into())
                    .await
                    .unwrap();
                for _ in 0..8 {
                    ctx.call(
                        StorageRequest::PutMessage {
                            queue: q.clone(),
                            data: Bytes::from_static(&[9u8; 128]),
                            ttl: None,
                        }
                        .into(),
                    )
                    .await
                    .unwrap();
                }
                ctx.now().as_nanos()
            })
        };
        let serial = run(1);
        for shards in [2u32, 4] {
            let shd = run(shards);
            assert_eq!(serial.results, shd.results);
            assert_eq!(serial.end_time, shd.end_time);
            assert_eq!(
                serial.model.metrics().total_completed(),
                shd.model.metrics().total_completed()
            );
        }
    }
}
