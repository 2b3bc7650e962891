//! Execution environments: where a client's calls actually go.

use azsim_core::runtime::ActorCtx;
use azsim_core::SimTime;
use azsim_fabric::{Cluster, Fleet, FleetReq};
use azsim_storage::{StorageOk, StorageRequest, StorageResult};
use std::future::Future;
use std::sync::Arc;
use std::time::Duration;

/// A place a storage client can run: provides a clock, a sleep primitive
/// and a request executor. Implemented by [`VirtualEnv`] (simulated time)
/// and [`crate::LiveEnv`] (wall-clock time).
///
/// `sleep` and `execute` return futures so the same client code runs on the
/// stackless-coroutine simulator (where awaiting suspends the actor until
/// the event heap delivers the wakeup) and in live mode (where the returned
/// futures are already complete — drive them with [`azsim_core::block_on`]).
/// The methods are declared as `-> impl Future` rather than `async fn` so
/// implementors may return named/ready future types and the trait stays
/// lint-clean; the trait is not object-safe, so clients are generic over
/// `E: Environment` instead of holding `&dyn Environment`.
pub trait Environment {
    /// Current time (virtual in simulation, epoch-relative in live mode).
    fn now(&self) -> SimTime;
    /// Wait for `d` (virtual or scaled-real).
    fn sleep(&self, d: Duration) -> impl Future<Output = ()>;
    /// Execute one storage request to completion. The request is shared,
    /// so a retry loop hands every attempt the same allocation.
    fn execute(&self, req: Arc<StorageRequest>) -> impl Future<Output = StorageResult<StorageOk>>;
    /// The role-instance index this environment belongs to.
    fn instance(&self) -> usize;
}

/// Environment backed by the virtual-time runtime: holds its own clone of a
/// worker's [`ActorCtx`] over the [`Cluster`] model (context handles are
/// cheap `Rc`-backed clones sharing one clock and scheduler state).
pub struct VirtualEnv {
    ctx: ActorCtx<Cluster>,
}

impl VirtualEnv {
    /// Wrap an actor context.
    pub fn new(ctx: &ActorCtx<Cluster>) -> Self {
        VirtualEnv { ctx: ctx.clone() }
    }

    /// The underlying actor context (for direct RNG access etc.).
    pub fn ctx(&self) -> &ActorCtx<Cluster> {
        &self.ctx
    }
}

impl Environment for VirtualEnv {
    fn now(&self) -> SimTime {
        self.ctx.now()
    }

    fn sleep(&self, d: Duration) -> impl Future<Output = ()> {
        self.ctx.sleep(d)
    }

    fn execute(&self, req: Arc<StorageRequest>) -> impl Future<Output = StorageResult<StorageOk>> {
        self.ctx.call(req)
    }

    fn instance(&self) -> usize {
        self.ctx.id().0
    }
}

/// Environment over a multi-account [`Fleet`], pinned to one tenant: every
/// request this environment executes is addressed to `tenant`'s account, so
/// the whole client stack (queue/blob/table clients, retry policies) runs
/// unchanged against any tenant of a sharded fleet. Calls to a foreign
/// tenant (one that is not the actor's home partition in the shard plan)
/// transparently pay the modeled front-end leg each way.
pub struct FleetEnv {
    ctx: ActorCtx<Fleet>,
    tenant: u32,
}

impl FleetEnv {
    /// Wrap an actor context, addressing `tenant`'s account.
    pub fn new(ctx: &ActorCtx<Fleet>, tenant: u32) -> Self {
        FleetEnv {
            ctx: ctx.clone(),
            tenant,
        }
    }

    /// The same actor's view of a different tenant (cheap clone — both
    /// handles share one clock and scheduler state).
    pub fn for_tenant(&self, tenant: u32) -> Self {
        FleetEnv {
            ctx: self.ctx.clone(),
            tenant,
        }
    }

    /// The tenant this environment addresses.
    pub fn tenant(&self) -> u32 {
        self.tenant
    }

    /// The underlying actor context (for direct RNG access etc.).
    pub fn ctx(&self) -> &ActorCtx<Fleet> {
        &self.ctx
    }
}

impl Environment for FleetEnv {
    fn now(&self) -> SimTime {
        self.ctx.now()
    }

    fn sleep(&self, d: Duration) -> impl Future<Output = ()> {
        self.ctx.sleep(d)
    }

    fn execute(&self, req: Arc<StorageRequest>) -> impl Future<Output = StorageResult<StorageOk>> {
        self.ctx.call(FleetReq {
            tenant: self.tenant,
            req,
        })
    }

    fn instance(&self) -> usize {
        self.ctx.id().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use azsim_core::Simulation;
    use bytes::Bytes;

    #[test]
    fn virtual_env_routes_through_simulation() {
        let sim = Simulation::new(Cluster::with_defaults(), 1);
        let report = sim.run_workers(2, |ctx| async move {
            let env = VirtualEnv::new(&ctx);
            assert_eq!(env.instance(), ctx.id().0);
            env.execute(
                StorageRequest::CreateQueue {
                    queue: format!("q{}", env.instance()),
                }
                .into(),
            )
            .await
            .unwrap();
            env.execute(
                StorageRequest::PutMessage {
                    queue: format!("q{}", env.instance()),
                    data: Bytes::from_static(b"hello"),
                    ttl: None,
                }
                .into(),
            )
            .await
            .unwrap();
            let before = env.now();
            env.sleep(Duration::from_secs(1)).await;
            assert_eq!(env.now(), before + Duration::from_secs(1));
            env.now()
        });
        assert!(report.results.iter().all(|t| *t > SimTime::ZERO));
        assert_eq!(report.model.metrics().total_completed(), 4);
    }
}
