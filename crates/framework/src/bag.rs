//! The end-to-end bag-of-tasks pattern (paper Figure 3).
//!
//! A web role submits tasks to the task-assignment queue and seals it;
//! worker roles drain the pool through [`TaskQueue::run_worker`] and signal
//! each completed task on the termination-indicator queue, which the web
//! role may poll for progress. A task is deleted only after it has been
//! processed, so an abandoned task reappears and is re-processed, and the
//! superseded worker's late completion is detected via the pop receipt.
//! Poison tasks go to the task queue's `<name>-poison` queue.

use crate::taskqueue::{TaskOutcome, TaskQueue, WorkerReport};
use crate::termination::TerminationIndicator;
use azsim_client::Environment;
use azsim_storage::StorageResult;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::time::Duration;

/// A bag-of-tasks application: task queue + termination indicator. A task
/// claimed more than 5 times (by default) is a *poison task* — one that
/// crashes every worker that claims it — and is dead-lettered instead of
/// re-delivered forever.
pub struct BagOfTasks<'e, E: Environment, T> {
    /// The task-assignment queue.
    pub tasks: TaskQueue<'e, E, T>,
    /// The termination-indicator queue.
    pub done: TerminationIndicator<'e, E>,
}

impl<'e, E: Environment, T: Serialize + DeserializeOwned> BagOfTasks<'e, E, T> {
    /// Bind to the queues `{base}-tasks` / `{base}-done`.
    pub fn new(env: &'e E, base: &str) -> Self {
        BagOfTasks {
            tasks: TaskQueue::new(env, format!("{base}-tasks")).with_max_attempts(5),
            done: TerminationIndicator::new(env, format!("{base}-done")),
        }
    }

    /// Override the per-task processing window.
    pub fn with_visibility(mut self, d: Duration) -> Self {
        self.tasks = self.tasks.with_visibility(d);
        self
    }

    /// Create all queues (idempotent; every role should call it).
    pub async fn init(&self) -> StorageResult<()> {
        self.tasks.init().await?;
        self.done.init().await
    }

    /// Web-role side: submit every task, then seal the queue; returns how
    /// many were submitted.
    pub async fn submit_all(&self, tasks: impl IntoIterator<Item = T>) -> StorageResult<usize> {
        let mut n = 0;
        for t in tasks {
            self.tasks.submit(&t).await?;
            n += 1;
        }
        self.tasks.seal().await?;
        Ok(n)
    }

    /// Web-role side: block until the sealed queue is empty — every task
    /// completed or dead-lettered.
    pub async fn wait_all(&self) {
        self.tasks.wait_drained().await
    }

    /// Worker-role side: drain the pool until the web role's sealed queue
    /// is empty, signalling the indicator for every completed task.
    ///
    /// `process` receives the task and its attempt number (> 1 on a retry
    /// after some worker crashed or timed out); it may await (e.g. sleep to
    /// model compute time).
    pub async fn run_worker(
        &self,
        mut process: impl AsyncFnMut(&T, u32),
    ) -> StorageResult<WorkerReport> {
        self.tasks
            .run_worker(
                async |c| {
                    process(&c.task, c.attempt).await;
                    Ok(())
                },
                async |c, outcome| {
                    if outcome == TaskOutcome::Completed {
                        self.done
                            .signal(format!("attempt-{}", c.attempt).into_bytes())
                            .await?;
                    }
                    Ok(())
                },
            )
            .await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use azsim_client::{QueueClient, VirtualEnv};
    use azsim_core::runtime::{actor, ActorCtx, ActorFn};
    use azsim_core::Simulation;
    use azsim_fabric::Cluster;
    use serde::Deserialize;

    #[derive(Serialize, Deserialize, Clone, PartialEq, Debug)]
    struct Unit {
        id: u32,
    }

    #[test]
    fn web_plus_workers_complete_everything() {
        let workers = 5usize;
        let n_tasks = 30u32;
        let sim = Simulation::new(Cluster::with_defaults(), 21);
        let mut actors: Vec<ActorFn<'_, Cluster, (usize, usize)>> = Vec::new();
        // Web role.
        actors.push(actor(move |ctx: ActorCtx<Cluster>| async move {
            let env = VirtualEnv::new(&ctx);
            let bag: BagOfTasks<'_, _, Unit> = BagOfTasks::new(&env, "app");
            bag.init().await.unwrap();
            let submitted = bag
                .submit_all((0..n_tasks).map(|id| Unit { id }))
                .await
                .unwrap();
            bag.wait_all().await;
            (submitted, 0)
        }));
        // Worker roles.
        for _ in 0..workers {
            actors.push(actor(move |ctx: ActorCtx<Cluster>| async move {
                let env = VirtualEnv::new(&ctx);
                let bag: BagOfTasks<'_, _, Unit> = BagOfTasks::new(&env, "app");
                bag.init().await.unwrap();
                let r = bag.run_worker(async |_task, _attempt| {}).await.unwrap();
                (r.completed, r.superseded)
            }));
        }
        let report = sim.run(actors);
        let (submitted, _) = report.results[0];
        assert_eq!(submitted, n_tasks as usize);
        let completed: usize = report.results[1..].iter().map(|(c, _)| c).sum();
        assert_eq!(completed, n_tasks as usize);
        let mut model = report.model;
        let done = model
            .queue_store_mut()
            .approximate_count(report.end_time, "app-done")
            .unwrap();
        assert!(done >= n_tasks as usize);
    }

    #[test]
    fn poison_tasks_are_dead_lettered_not_looped_forever() {
        // One task payload deterministically "crashes" its processor: the
        // worker claims it and abandons it. Burn its five allowed
        // deliveries by hand, then run the normal worker loop.
        let sim = Simulation::new(Cluster::with_defaults(), 23);
        sim.run_workers(1, |ctx| async move {
            let env = VirtualEnv::new(&ctx);
            let bag: BagOfTasks<'_, _, Unit> =
                BagOfTasks::new(&env, "poison").with_visibility(Duration::from_secs(2));
            bag.init().await.unwrap();
            bag.submit_all([Unit { id: 666 }, Unit { id: 1 }])
                .await
                .unwrap();
            let mut burned = 0;
            while burned < 5 {
                if let Some(c) = bag.tasks.claim().await.unwrap() {
                    if c.task.id == 666 {
                        burned += 1; // abandon: no complete()
                        ctx.sleep(Duration::from_secs(3)).await; // let it reappear
                    } else {
                        bag.tasks.complete(&c).await.unwrap();
                        bag.done.signal("ok".as_bytes().to_vec()).await.unwrap();
                    }
                } else {
                    ctx.sleep(Duration::from_secs(1)).await;
                }
            }
            // The poison task arrives with attempt 6 > 5: the claim parks it
            // instead of handing it to `process`.
            let mut processed_ids = Vec::new();
            bag.run_worker(async |t: &Unit, _a| processed_ids.push(t.id))
                .await
                .unwrap();
            assert!(
                !processed_ids.contains(&666),
                "poison must not be processed"
            );
            assert_eq!(bag.tasks.dead_lettered(), 1);
            // The task queue's one poison queue holds it for inspection.
            let parked = QueueClient::new(&env, "poison-tasks-poison")
                .get_message()
                .await
                .unwrap()
                .unwrap();
            let parked: Unit = serde_json::from_slice(&parked.data).unwrap();
            assert_eq!(parked.id, 666);
            // And the web role terminates: the sealed queue is empty.
            bag.wait_all().await;
            assert_eq!(bag.done.count().await.unwrap(), 1);
        });
    }

    #[test]
    fn processing_that_outlasts_its_window_is_redone_and_superseded() {
        // Two workers, one task, a 2 s window and 5 s of processing on the
        // first attempt: the task reappears mid-processing and the second
        // worker processes it again. The first worker's late delete is
        // superseded; only the second completes (and signals).
        let sim = Simulation::new(Cluster::with_defaults(), 24);
        let report = sim.run_workers(2, |ctx| async move {
            let env = VirtualEnv::new(&ctx);
            let bag: BagOfTasks<'_, _, Unit> =
                BagOfTasks::new(&env, "slow").with_visibility(Duration::from_secs(2));
            bag.init().await.unwrap();
            if ctx.id().0 == 0 {
                bag.submit_all([Unit { id: 7 }]).await.unwrap();
            }
            let mut runs = 0;
            let r = bag
                .run_worker(async |_t, attempt| {
                    runs += 1;
                    let work = if attempt == 1 { 5_000 } else { 100 };
                    ctx.sleep(Duration::from_millis(work)).await;
                })
                .await
                .unwrap();
            (runs, r)
        });
        let runs: usize = report.results.iter().map(|(n, _)| n).sum();
        let completed: usize = report.results.iter().map(|(_, r)| r.completed).sum();
        let superseded: usize = report.results.iter().map(|(_, r)| r.superseded).sum();
        assert_eq!(runs, 2, "the task must be processed twice");
        assert_eq!((completed, superseded), (1, 1));
        let mut model = report.model;
        let signals = model
            .queue_store_mut()
            .approximate_count(report.end_time, "slow-done")
            .unwrap();
        assert_eq!(signals, 1);
    }

    #[test]
    fn processing_spreads_across_workers() {
        let workers = 4usize;
        let n_tasks = 40u32;
        let sim = Simulation::new(Cluster::with_defaults(), 22);
        let report = sim.run_workers(workers, move |ctx| async move {
            let env = VirtualEnv::new(&ctx);
            let bag: BagOfTasks<'_, _, Unit> = BagOfTasks::new(&env, "spread");
            bag.init().await.unwrap();
            if ctx.id().0 == 0 {
                bag.submit_all((0..n_tasks).map(|id| Unit { id }))
                    .await
                    .unwrap();
            }
            let r = bag
                .run_worker(async |_t, _a| {
                    // Simulate compute so tasks interleave across workers.
                    ctx.sleep(Duration::from_millis(200)).await;
                })
                .await
                .unwrap();
            r.completed
        });
        let total: usize = report.results.iter().sum();
        assert_eq!(total, n_tasks as usize);
        // With 40 tasks, 4 workers and equal task cost, nobody should have
        // grabbed everything.
        assert!(
            report.results.iter().all(|&p| p > 0),
            "work must spread: {:?}",
            report.results
        );
    }
}
