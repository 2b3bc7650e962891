//! Typed task envelopes over a queue.
//!
//! Tasks are serialized as JSON (references to large inputs should go via
//! blob names — the paper's guidance for payloads beyond the 48 KB message
//! limit). A claimed task must be [`completed`](TaskQueue::complete)
//! within its visibility timeout or it reappears for another worker — the
//! built-in fault-tolerance mechanism of the shared-task-pool pattern.
//!
//! ## Poison messages
//!
//! The visibility-timeout loop has a failure mode: a task that *cannot* be
//! processed (malformed payload, or a payload that reliably crashes its
//! worker) is re-delivered forever, wasting a worker slot on every cycle.
//! `TaskQueue` therefore supports **dead-lettering**: undecodable messages
//! — and, when [`with_max_attempts`](TaskQueue::with_max_attempts) is set,
//! messages whose dequeue count exceeds the limit — are moved to a
//! companion `<name>-poison` queue instead of being handed to workers. The
//! poison queue is created lazily on first use, so clean runs pay nothing.
//! It is the framework's one dead-letter path.
//!
//! [`run_worker`](TaskQueue::run_worker) is the framework's one worker
//! loop (paper Figure 3).

use azsim_client::resilience::{classify, ErrorClass};
use azsim_client::{ClientPolicy, Environment, QueueClient};
use azsim_storage::{QueueMessage, StorageError, StorageResult};
use bytes::Bytes;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::cell::Cell;
use std::marker::PhantomData;
use std::time::Duration;

/// A task claimed from the queue; keep it to `complete` (delete) the
/// underlying message.
pub struct ClaimedTask<T> {
    /// The decoded task.
    pub task: T,
    /// How many times this task has been claimed (> 1 means a previous
    /// worker crashed or timed out).
    pub attempt: u32,
    message: QueueMessage,
}

/// First sleep after an empty claim; each further empty claim doubles it.
const FIRST_POLL: Duration = Duration::from_secs(1);
/// Cap on the empty-claim back-off.
const MAX_POLL: Duration = Duration::from_secs(16);

/// What became of one task a [`run_worker`](TaskQueue::run_worker) loop
/// processed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskOutcome {
    /// This worker deleted the task: it is done.
    Completed,
    /// The claim had expired and the task went to another worker
    /// (`PopReceiptMismatch`); that worker's attempt is the one that counts.
    Superseded,
    /// The delete failed transiently or timed out after the policy's
    /// retries. The task may still be queued, in which case it reappears
    /// and is processed again.
    Ambiguous,
}

/// Per-outcome task counts of one worker loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Tasks this worker completed.
    pub completed: usize,
    /// Tasks whose completion was superseded by a re-delivery.
    pub superseded: usize,
    /// Tasks whose completion was ambiguous.
    pub ambiguous: usize,
}

/// A typed task queue for payload type `T`.
pub struct TaskQueue<'e, E: Environment, T> {
    env: &'e E,
    queue: QueueClient<'e, E>,
    poison: QueueClient<'e, E>,
    sealed: QueueClient<'e, E>,
    visibility: Duration,
    max_attempts: Option<u32>,
    dead_lettered: Cell<u64>,
    _marker: PhantomData<fn() -> T>,
}

impl<'e, E: Environment, T: Serialize + DeserializeOwned> TaskQueue<'e, E, T> {
    /// Bind to `queue_name` with a default 2-minute processing window.
    pub fn new(env: &'e E, queue_name: impl Into<String>) -> Self {
        let name = queue_name.into();
        TaskQueue {
            env,
            poison: QueueClient::new(env, format!("{name}-poison")),
            sealed: QueueClient::new(env, format!("{name}-sealed")),
            queue: QueueClient::new(env, name),
            visibility: Duration::from_secs(120),
            max_attempts: None,
            dead_lettered: Cell::new(0),
            _marker: PhantomData,
        }
    }

    /// Change the visibility timeout (the per-task processing window).
    pub fn with_visibility(mut self, d: Duration) -> Self {
        self.visibility = d;
        self
    }

    /// Dead-letter tasks once they have been claimed more than
    /// `max_attempts` times (a claim loop that keeps crashing on one task
    /// stops re-processing it). Default: unlimited redelivery.
    pub fn with_max_attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = Some(max_attempts.max(1));
        self
    }

    /// Replace the retry policy on the underlying queue clients (e.g. a
    /// shared [`azsim_client::ResilientPolicy`] when running under fault
    /// injection). Default: the paper-faithful `RetryPolicy`.
    pub fn with_policy(mut self, policy: impl Into<ClientPolicy>) -> Self {
        let policy: ClientPolicy = policy.into();
        self.queue = self.queue.with_policy(policy.clone());
        self.poison = self.poison.with_policy(policy.clone());
        self.sealed = self.sealed.with_policy(policy);
        self
    }

    /// Create the underlying queue (idempotent).
    pub async fn init(&self) -> StorageResult<()> {
        self.queue.create().await
    }

    /// Submit one task.
    pub async fn submit(&self, task: &T) -> StorageResult<()> {
        let json = serde_json::to_vec(task).map_err(|_| StorageError::MessageTooLarge {
            size: 0, // unserializable tasks shouldn't occur; size unknown
        })?;
        self.queue.put_message(Bytes::from(json)).await
    }

    /// Claim the next task, if any. The task stays invisible to other
    /// workers for the visibility timeout.
    ///
    /// Poison messages (undecodable payloads, or — with
    /// [`with_max_attempts`](TaskQueue::with_max_attempts) — tasks
    /// redelivered too many times) are moved to the `<name>-poison` queue
    /// and skipped; the claim keeps going until it finds a healthy task or
    /// drains the queue.
    pub async fn claim(&self) -> StorageResult<Option<ClaimedTask<T>>> {
        loop {
            let Some(message) = self
                .queue
                .get_message_with_visibility(self.visibility)
                .await?
            else {
                return Ok(None);
            };
            if let Some(max) = self.max_attempts {
                if message.dequeue_count > max {
                    self.dead_letter(&message).await?;
                    continue;
                }
            }
            match serde_json::from_slice::<T>(&message.data) {
                Ok(task) => {
                    return Ok(Some(ClaimedTask {
                        task,
                        attempt: message.dequeue_count,
                        message,
                    }))
                }
                Err(_) => {
                    self.dead_letter(&message).await?;
                    continue;
                }
            }
        }
    }

    /// Move a claimed message to the poison queue and delete the original.
    async fn dead_letter(&self, message: &QueueMessage) -> StorageResult<()> {
        self.poison.create().await?; // idempotent; lazy so clean runs pay nothing
        self.poison.put_message(message.data.clone()).await?;
        self.queue.delete_message(message).await?;
        self.dead_lettered.set(self.dead_lettered.get() + 1);
        Ok(())
    }

    /// Messages this handle has dead-lettered.
    pub fn dead_lettered(&self) -> u64 {
        self.dead_lettered.get()
    }

    /// Messages currently parked in the companion poison queue (across all
    /// handles). Zero if nothing was ever dead-lettered.
    pub async fn dead_letter_count(&self) -> StorageResult<usize> {
        match self.poison.message_count().await {
            Err(StorageError::QueueNotFound(_)) => Ok(0),
            other => other,
        }
    }

    /// Mark a claimed task done (deletes the message). Fails with
    /// [`StorageError::PopReceiptMismatch`] if the task already timed out
    /// and was handed to another worker — the caller must treat its own
    /// work as superseded.
    pub async fn complete(&self, claimed: &ClaimedTask<T>) -> StorageResult<()> {
        self.queue.delete_message(&claimed.message).await
    }

    /// Tasks currently in the queue (visible + in-flight).
    pub async fn pending(&self) -> StorageResult<usize> {
        self.queue.message_count().await
    }

    /// Producer side: declare that no further task will be submitted, so
    /// workers may stop once the queue is empty. The seal is the existence
    /// of the companion `<name>-sealed` queue; creating it is idempotent,
    /// so a retried seal is harmless.
    pub async fn seal(&self) -> StorageResult<()> {
        self.sealed.create().await
    }

    /// `true` once the queue is empty, visible and in flight, and sealed.
    /// A failed probe reads as "not yet".
    async fn drained(&self) -> bool {
        matches!(self.pending().await, Ok(0)) && self.sealed.message_count().await.is_ok()
    }

    /// Block until the queue is sealed and empty: every task was completed
    /// or dead-lettered.
    pub(crate) async fn wait_drained(&self) {
        while !self.drained().await {
            self.env.sleep(FIRST_POLL).await;
        }
    }

    /// Worker side: claim a task, run `process`, *then* complete it and
    /// tell `settled` its [`TaskOutcome`]. A task is deleted only after it
    /// was processed, so delivery is at-least-once. The worker stops only
    /// when its claim came back empty, the producer has [`seal`](Self::seal)ed
    /// the queue and nothing is left in it, visible or in flight: a task
    /// held by a crashed claimant still counts, so someone is there when it
    /// reappears. Empty or failed claims back off from 1 s, doubling to a
    /// 16 s cap. An error from `process` or `settled`, or a semantic error
    /// from a claim or a completion, ends the loop with `Err`.
    pub async fn run_worker(
        &self,
        mut process: impl AsyncFnMut(&ClaimedTask<T>) -> StorageResult<()>,
        mut settled: impl AsyncFnMut(&ClaimedTask<T>, TaskOutcome) -> StorageResult<()>,
    ) -> StorageResult<WorkerReport> {
        let mut report = WorkerReport::default();
        let mut poll = FIRST_POLL;
        loop {
            let claimed = match self.claim().await {
                Ok(Some(claimed)) => claimed,
                Ok(None) if self.drained().await => return Ok(report),
                Err(e) if fatal(&e) => return Err(e),
                _ => {
                    self.env.sleep(poll).await;
                    poll = (poll * 2).min(MAX_POLL);
                    continue;
                }
            };
            poll = FIRST_POLL;
            process(&claimed).await?;
            let outcome = match self.complete(&claimed).await {
                Ok(()) => TaskOutcome::Completed,
                Err(StorageError::PopReceiptMismatch) => TaskOutcome::Superseded,
                Err(e) if fatal(&e) => return Err(e),
                Err(_) => TaskOutcome::Ambiguous,
            };
            match outcome {
                TaskOutcome::Completed => report.completed += 1,
                TaskOutcome::Superseded => report.superseded += 1,
                TaskOutcome::Ambiguous => report.ambiguous += 1,
            }
            settled(&claimed, outcome).await?;
        }
    }
}

/// A semantic error, which ends a worker loop. A stale receipt is not one:
/// on a claim it means a dead-letter delete lost its message to another
/// worker.
fn fatal(e: &StorageError) -> bool {
    classify(e) == ErrorClass::Permanent && *e != StorageError::PopReceiptMismatch
}

#[cfg(test)]
mod tests {
    use super::*;
    use azsim_client::VirtualEnv;
    use azsim_core::Simulation;
    use azsim_fabric::Cluster;
    use serde::Deserialize;

    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    struct Job {
        id: u32,
        input_blob: String,
    }

    #[test]
    fn submit_claim_complete_roundtrip() {
        let sim = Simulation::new(Cluster::with_defaults(), 7);
        sim.run_workers(1, |ctx| async move {
            let env = VirtualEnv::new(&ctx);
            let tq: TaskQueue<'_, _, Job> = TaskQueue::new(&env, "tasks");
            tq.init().await.unwrap();
            tq.submit(&Job {
                id: 7,
                input_blob: "chunk-7".into(),
            })
            .await
            .unwrap();
            assert_eq!(tq.pending().await.unwrap(), 1);
            let claimed = tq.claim().await.unwrap().unwrap();
            assert_eq!(claimed.task.id, 7);
            assert_eq!(claimed.attempt, 1);
            tq.complete(&claimed).await.unwrap();
            assert_eq!(tq.pending().await.unwrap(), 0);
            assert!(tq.claim().await.unwrap().is_none());
        });
    }

    #[test]
    fn abandoned_task_reappears_for_another_worker() {
        let sim = Simulation::new(Cluster::with_defaults(), 8);
        sim.run_workers(1, |ctx| async move {
            let env = VirtualEnv::new(&ctx);
            let tq: TaskQueue<'_, _, Job> =
                TaskQueue::new(&env, "tasks").with_visibility(Duration::from_secs(5));
            tq.init().await.unwrap();
            tq.submit(&Job {
                id: 1,
                input_blob: "x".into(),
            })
            .await
            .unwrap();
            // First claim: "crash" (never complete).
            let first = tq.claim().await.unwrap().unwrap();
            assert_eq!(first.attempt, 1);
            // Within the window nothing is claimable.
            assert!(tq.claim().await.unwrap().is_none());
            // After the window the task is re-delivered.
            ctx.sleep(Duration::from_secs(6)).await;
            let second = tq.claim().await.unwrap().unwrap();
            assert_eq!(second.task, first.task);
            assert_eq!(second.attempt, 2);
            tq.complete(&second).await.unwrap();
            // The crashed claimer's receipt is now useless.
            assert!(matches!(
                tq.complete(&first).await,
                Err(StorageError::PopReceiptMismatch)
            ));
        });
    }

    #[test]
    fn tasks_fan_out_across_workers_exactly_once() {
        let n_workers = 6usize;
        let n_tasks = 40u32;
        let sim = Simulation::new(Cluster::with_defaults(), 9);
        let report = sim.run_workers(n_workers, move |ctx| async move {
            let env = VirtualEnv::new(&ctx);
            let tq: TaskQueue<'_, _, Job> = TaskQueue::new(&env, "tasks");
            tq.init().await.unwrap();
            if ctx.id().0 == 0 {
                for id in 0..n_tasks {
                    tq.submit(&Job {
                        id,
                        input_blob: format!("b{id}"),
                    })
                    .await
                    .unwrap();
                }
                tq.seal().await.unwrap();
            }
            // Everyone (submitter included) drains the pool.
            let mut got = Vec::new();
            tq.run_worker(
                async |_| Ok(()),
                async |c, outcome| {
                    assert_eq!(outcome, TaskOutcome::Completed);
                    got.push(c.task.id);
                    Ok(())
                },
            )
            .await
            .unwrap();
            got
        });
        let mut all: Vec<u32> = report.results.into_iter().flatten().collect();
        all.sort_unstable();
        let expect: Vec<u32> = (0..n_tasks).collect();
        assert_eq!(all, expect, "every task exactly once");
    }

    #[test]
    fn workers_outwait_a_crashed_claimant_on_a_sealed_queue() {
        // Actor 0 submits one task, seals, claims the task and "crashes"
        // (never completes). Actors 1 and 2 are healthy workers: the queue
        // is sealed but not empty, so they must stay until the task
        // reappears after its 30 s window, and one of them completes it.
        let vis = Duration::from_secs(30);
        let sim = Simulation::new(Cluster::with_defaults(), 12);
        let report = sim.run_workers(3, move |ctx| async move {
            let env = VirtualEnv::new(&ctx);
            let tq: TaskQueue<'_, _, Job> = TaskQueue::new(&env, "tasks").with_visibility(vis);
            tq.init().await.unwrap();
            if ctx.id().0 == 0 {
                tq.submit(&Job {
                    id: 5,
                    input_blob: "held".into(),
                })
                .await
                .unwrap();
                tq.seal().await.unwrap();
                assert!(tq.claim().await.unwrap().is_some());
                return (WorkerReport::default(), ctx.now());
            }
            ctx.sleep(Duration::from_millis(100)).await;
            let r = tq
                .run_worker(async |_| Ok(()), async |_, _| Ok(()))
                .await
                .unwrap();
            (r, ctx.now())
        });
        let completed: usize = report.results.iter().map(|(r, _)| r.completed).sum();
        assert_eq!(completed, 1, "the abandoned task must be completed");
        for (_, stopped) in &report.results[1..] {
            assert!(stopped.as_secs_f64() > 30.0, "a worker left at {stopped:?}");
        }
        let mut model = report.model;
        assert_eq!(
            model
                .queue_store_mut()
                .approximate_count(report.end_time, "tasks")
                .unwrap(),
            0
        );
    }

    #[test]
    fn malformed_payloads_are_dead_lettered_not_fatal() {
        let sim = Simulation::new(Cluster::with_defaults(), 10);
        sim.run_workers(1, |ctx| async move {
            let env = VirtualEnv::new(&ctx);
            let tq: TaskQueue<'_, _, Job> = TaskQueue::new(&env, "tasks");
            tq.init().await.unwrap();
            assert_eq!(tq.dead_letter_count().await.unwrap(), 0);
            // A buggy producer wrote garbage ahead of a healthy task.
            let raw = azsim_client::QueueClient::new(&env, "tasks");
            raw.put_message(Bytes::from_static(b"{not json"))
                .await
                .unwrap();
            tq.submit(&Job {
                id: 3,
                input_blob: "b3".into(),
            })
            .await
            .unwrap();
            // The claim skips the poison message and returns the real task.
            let claimed = tq.claim().await.unwrap().unwrap();
            assert_eq!(claimed.task.id, 3);
            tq.complete(&claimed).await.unwrap();
            assert_eq!(tq.dead_lettered(), 1);
            assert_eq!(tq.dead_letter_count().await.unwrap(), 1);
            assert_eq!(tq.pending().await.unwrap(), 0);
        });
    }

    #[test]
    fn repeatedly_redelivered_tasks_are_dead_lettered() {
        let sim = Simulation::new(Cluster::with_defaults(), 11);
        sim.run_workers(1, |ctx| async move {
            let env = VirtualEnv::new(&ctx);
            let tq: TaskQueue<'_, _, Job> = TaskQueue::new(&env, "tasks")
                .with_visibility(Duration::from_secs(1))
                .with_max_attempts(2);
            tq.init().await.unwrap();
            tq.submit(&Job {
                id: 9,
                input_blob: "crashy".into(),
            })
            .await
            .unwrap();
            // Two workers claim and "crash" (never complete).
            for attempt in 1..=2 {
                let c = tq.claim().await.unwrap().unwrap();
                assert_eq!(c.attempt, attempt);
                ctx.sleep(Duration::from_secs(2)).await;
            }
            // The third delivery exceeds max_attempts: parked, not re-run.
            assert!(tq.claim().await.unwrap().is_none());
            assert_eq!(tq.dead_lettered(), 1);
            assert_eq!(tq.dead_letter_count().await.unwrap(), 1);
            assert_eq!(tq.pending().await.unwrap(), 0);
        });
    }
}
