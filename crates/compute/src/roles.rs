//! Web/worker role deployments on the virtual-time runtime.

use crate::vm::VmSize;
use azsim_core::runtime::{actor, ActorCtx, ActorFn, ActorFuture, SimReport};
use azsim_core::Simulation;
use azsim_fabric::{Cluster, ClusterParams};
use std::future::Future;
use std::sync::Arc;

/// What a running role instance knows about itself — the analogue of the
/// Azure SDK's `RoleEnvironment` (one role instance cannot automatically
/// query the state of other instances; coordination goes through storage).
#[derive(Clone, Debug)]
pub struct RoleEnvironment {
    /// Role name (e.g. `"web"`, `"worker"`).
    pub role: String,
    /// This instance's index within its role, `0..instance_count`.
    pub instance: usize,
    /// Number of instances of this role.
    pub instance_count: usize,
    /// Global actor id across all roles in the deployment.
    pub actor: usize,
    /// The VM size this instance runs on.
    pub vm: VmSize,
}

struct RoleSpec<'a, R> {
    name: String,
    vm: VmSize,
    instances: usize,
    #[allow(clippy::type_complexity)]
    body: Arc<dyn Fn(ActorCtx<Cluster>, RoleEnvironment) -> ActorFuture<'a, R> + 'a>,
}

/// Builder for a deployment: a cluster plus a heterogeneous set of roles.
///
/// Role bodies are async — awaiting a storage call or a sleep suspends the
/// instance's coroutine until the simulation's event heap delivers the
/// wakeup.
///
/// ```
/// use azsim_compute::{Deployment, VmSize};
/// use azsim_fabric::ClusterParams;
///
/// let report = Deployment::new(ClusterParams::default(), 7)
///     .with_role("worker", 4, VmSize::Small, |_ctx, env| async move {
///         env.instance
///     })
///     .run();
/// assert_eq!(report.results, vec![0, 1, 2, 3]);
/// ```
pub struct Deployment<'a, R> {
    params: ClusterParams,
    seed: u64,
    roles: Vec<RoleSpec<'a, R>>,
}

impl<'a, R: 'a> Deployment<'a, R> {
    /// Start a deployment over a cluster with `params`, deterministic under
    /// `seed`.
    pub fn new(params: ClusterParams, seed: u64) -> Self {
        Deployment {
            params,
            seed,
            roles: Vec::new(),
        }
    }

    /// Add `instances` instances of a role running the async `body` on
    /// `vm`-sized machines.
    pub fn with_role<F, Fut>(
        mut self,
        name: impl Into<String>,
        instances: usize,
        vm: VmSize,
        body: F,
    ) -> Self
    where
        F: Fn(ActorCtx<Cluster>, RoleEnvironment) -> Fut + 'a,
        Fut: Future<Output = R> + 'a,
    {
        self.roles.push(RoleSpec {
            name: name.into(),
            vm,
            instances,
            body: Arc::new(move |ctx, env| Box::pin(body(ctx, env)) as ActorFuture<'a, R>),
        });
        self
    }

    /// Deploy: wire per-instance NIC bandwidths into the cluster and run
    /// every instance to completion in virtual time. Results are indexed by
    /// global actor id (roles in declaration order, instances in index
    /// order).
    pub fn run(self) -> SimReport<Cluster, R> {
        let mut cluster = Cluster::new(self.params);
        let mut actors: Vec<ActorFn<'a, Cluster, R>> = Vec::new();
        let mut actor_id = 0usize;
        for spec in self.roles {
            for instance in 0..spec.instances {
                cluster.set_actor_nic(actor_id, spec.vm.nic_bandwidth());
                let env = RoleEnvironment {
                    role: spec.name.clone(),
                    instance,
                    instance_count: spec.instances,
                    actor: actor_id,
                    vm: spec.vm,
                };
                let body = Arc::clone(&spec.body);
                actors.push(actor(move |ctx: ActorCtx<Cluster>| body(ctx, env)));
                actor_id += 1;
            }
        }
        Simulation::new(cluster, self.seed).run(actors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use azsim_storage::StorageRequest;
    use bytes::Bytes;
    use std::time::Duration;

    #[test]
    fn heterogeneous_roles_get_correct_metadata() {
        let report = Deployment::new(ClusterParams::default(), 1)
            .with_role("web", 1, VmSize::Large, |_ctx, env| async move {
                format!("{}:{}/{}", env.role, env.instance, env.instance_count)
            })
            .with_role("worker", 3, VmSize::Small, |_ctx, env| async move {
                format!("{}:{}/{}", env.role, env.instance, env.instance_count)
            })
            .run();
        assert_eq!(
            report.results,
            vec!["web:0/1", "worker:0/3", "worker:1/3", "worker:2/3"]
        );
    }

    #[test]
    fn vm_size_changes_storage_latency() {
        // The same 1 MB upload is slower from an Extra Small instance
        // (5 Mbit/s shared NIC) than from an Extra Large one (800 Mbit/s).
        let upload_cost = |vm: VmSize| {
            let report = Deployment::new(ClusterParams::default(), 2)
                .with_role("w", 1, vm, |ctx, _env| async move {
                    ctx.call(
                        StorageRequest::CreateContainer {
                            container: "c".into(),
                        }
                        .into(),
                    )
                    .await
                    .unwrap();
                    let t0 = ctx.now();
                    ctx.call(
                        StorageRequest::UploadBlockBlob {
                            container: "c".into(),
                            blob: "b".into(),
                            data: Bytes::from(vec![0u8; 1 << 20]),
                        }
                        .into(),
                    )
                    .await
                    .unwrap();
                    ctx.now() - t0
                })
                .run();
            report.results[0]
        };
        let slow = upload_cost(VmSize::ExtraSmall);
        let fast = upload_cost(VmSize::ExtraLarge);
        assert!(
            slow > fast + Duration::from_millis(100),
            "XS {slow:?} must be much slower than XL {fast:?}"
        );
    }

    #[test]
    fn actor_ids_are_globally_dense() {
        let report = Deployment::new(ClusterParams::default(), 3)
            .with_role("a", 2, VmSize::Small, |ctx, env| async move {
                assert_eq!(ctx.id().0, env.actor);
                env.actor
            })
            .with_role("b", 2, VmSize::Small, |ctx, env| async move {
                assert_eq!(ctx.id().0, env.actor);
                env.actor
            })
            .run();
        assert_eq!(report.results, vec![0, 1, 2, 3]);
    }
}
