//! The termination-indicator queue.
//!
//! Because Azure queues are not FIFO, putting an "end of work" marker on
//! the *task* queue is unsafe — a worker might read it before real tasks
//! and quit early (paper §IV-B). The recommended pattern is a dedicated
//! queue where workers signal completed units and the web role polls the
//! message count to track progress and update the user interface.

use azsim_client::{Environment, QueueClient};
use azsim_storage::StorageResult;
use bytes::Bytes;
use std::time::Duration;

/// A write-mostly signal queue: workers [`signal`](Self::signal) events,
/// the front end [`count`](Self::count)s or
/// [`wait_for`](Self::wait_for)s them.
pub struct TerminationIndicator<'e, E: Environment> {
    queue: QueueClient<'e, E>,
    env: &'e E,
}

impl<'e, E: Environment> TerminationIndicator<'e, E> {
    /// Bind to `queue_name`.
    pub fn new(env: &'e E, queue_name: impl Into<String>) -> Self {
        TerminationIndicator {
            queue: QueueClient::new(env, queue_name),
            env,
        }
    }

    /// Create the underlying queue (idempotent).
    pub async fn init(&self) -> StorageResult<()> {
        self.queue.create().await
    }

    /// Signal one completed unit of work, with a small payload describing
    /// it (phase id, task id — anything the front end may display).
    pub async fn signal(&self, what: impl Into<Bytes>) -> StorageResult<()> {
        self.queue.put_message(what.into()).await
    }

    /// Number of signals so far.
    pub async fn count(&self) -> StorageResult<usize> {
        self.queue.message_count().await
    }

    /// Block until at least `n` signals have been recorded, polling with a
    /// one-second back-off (the paper's pattern for progress reporting).
    pub async fn wait_for(&self, n: usize) -> StorageResult<usize> {
        loop {
            let c = self.count().await?;
            if c >= n {
                return Ok(c);
            }
            self.env.sleep(Duration::from_secs(1)).await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use azsim_client::VirtualEnv;
    use azsim_core::runtime::{actor, ActorCtx, ActorFn};
    use azsim_core::Simulation;
    use azsim_fabric::Cluster;

    #[test]
    fn web_role_observes_worker_progress() {
        let workers = 6usize;
        let sim = Simulation::new(Cluster::with_defaults(), 5);
        let mut actors: Vec<ActorFn<'_, Cluster, usize>> = Vec::new();
        // Web role: waits for all workers.
        actors.push(actor(move |ctx: ActorCtx<Cluster>| async move {
            let env = VirtualEnv::new(&ctx);
            let ind = TerminationIndicator::new(&env, "done");
            ind.init().await.unwrap();
            ind.wait_for(workers).await.unwrap()
        }));
        // Workers: do "work" (sleep), then signal.
        for w in 0..workers {
            actors.push(actor(move |ctx: ActorCtx<Cluster>| async move {
                let env = VirtualEnv::new(&ctx);
                let ind = TerminationIndicator::new(&env, "done");
                ind.init().await.unwrap();
                ctx.sleep(Duration::from_millis(500 * (w as u64 + 1))).await;
                ind.signal(format!("task-{w}").into_bytes()).await.unwrap();
                0
            }));
        }
        let report = sim.run(actors);
        assert_eq!(report.results[0], workers);
        // The web role finished after the slowest worker signaled.
        assert!(report.end_time >= azsim_core::SimTime::from_millis(500 * workers as u64));
    }

    #[test]
    fn count_reflects_signals() {
        let sim = Simulation::new(Cluster::with_defaults(), 6);
        sim.run_workers(1, |ctx| async move {
            let env = VirtualEnv::new(&ctx);
            let ind = TerminationIndicator::new(&env, "done");
            ind.init().await.unwrap();
            assert_eq!(ind.count().await.unwrap(), 0);
            for i in 0..5 {
                ind.signal(vec![i as u8]).await.unwrap();
            }
            assert_eq!(ind.count().await.unwrap(), 5);
            // wait_for returns immediately once satisfied.
            assert_eq!(ind.wait_for(5).await.unwrap(), 5);
        });
    }
}
