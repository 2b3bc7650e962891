//! `CloudQueue` analogue.

use crate::env::Environment;
use crate::resilience::ClientPolicy;
use azsim_storage::message::PeekedMessage;
use azsim_storage::{QueueMessage, StorageOk, StorageRequest, StorageResult};
use bytes::Bytes;
use std::time::Duration;

/// Default visibility timeout applied by [`QueueClient::get_message`]
/// (the SDK's 30-second default).
pub const DEFAULT_VISIBILITY: Duration = Duration::from_secs(30);

/// A client bound to one queue.
pub struct QueueClient<'e, E: Environment> {
    env: &'e E,
    name: String,
    policy: ClientPolicy,
}

impl<'e, E: Environment> QueueClient<'e, E> {
    /// Bind a client to `name` (the queue need not exist yet).
    pub fn new(env: &'e E, name: impl Into<String>) -> Self {
        QueueClient {
            env,
            name: name.into(),
            policy: ClientPolicy::default(),
        }
    }

    /// Replace the retry policy: a paper-faithful [`crate::RetryPolicy`] or a
    /// [`crate::ResilientPolicy`] (via [`ClientPolicy`]).
    pub fn with_policy(mut self, policy: impl Into<ClientPolicy>) -> Self {
        self.policy = policy.into();
        self
    }

    /// The bound queue name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Create the queue (idempotent).
    pub async fn create(&self) -> StorageResult<()> {
        self.policy
            .run(
                self.env,
                StorageRequest::CreateQueue {
                    queue: self.name.clone(),
                },
            )
            .await
            .map(|_| ())
    }

    /// Delete the queue and all its messages.
    pub async fn delete_queue(&self) -> StorageResult<()> {
        self.policy
            .run(
                self.env,
                StorageRequest::DeleteQueue {
                    queue: self.name.clone(),
                },
            )
            .await
            .map(|_| ())
    }

    /// `PutMessage`: enqueue a payload (≤ 48 KB usable).
    pub async fn put_message(&self, data: Bytes) -> StorageResult<()> {
        self.policy
            .run(
                self.env,
                StorageRequest::PutMessage {
                    queue: self.name.clone(),
                    data,
                    ttl: None,
                },
            )
            .await
            .map(|_| ())
    }

    /// `GetMessage` with the default 30 s visibility timeout.
    pub async fn get_message(&self) -> StorageResult<Option<QueueMessage>> {
        self.get_message_with_visibility(DEFAULT_VISIBILITY).await
    }

    /// `GetMessage` with an explicit visibility timeout.
    pub async fn get_message_with_visibility(
        &self,
        visibility: Duration,
    ) -> StorageResult<Option<QueueMessage>> {
        match self
            .policy
            .run(
                self.env,
                StorageRequest::GetMessage {
                    queue: self.name.clone(),
                    visibility_timeout: visibility,
                },
            )
            .await?
        {
            StorageOk::Message(m) => Ok(m),
            other => unreachable!("unexpected response {other:?}"),
        }
    }

    /// `PeekMessage`: read without claiming.
    pub async fn peek_message(&self) -> StorageResult<Option<PeekedMessage>> {
        match self
            .policy
            .run(
                self.env,
                StorageRequest::PeekMessage {
                    queue: self.name.clone(),
                },
            )
            .await?
        {
            StorageOk::Peeked(m) => Ok(m),
            other => unreachable!("unexpected response {other:?}"),
        }
    }

    /// `DeleteMessage`: remove a claimed message using its pop receipt.
    pub async fn delete_message(&self, msg: &QueueMessage) -> StorageResult<()> {
        self.policy
            .run(
                self.env,
                StorageRequest::DeleteMessage {
                    queue: self.name.clone(),
                    id: msg.id,
                    pop_receipt: msg.pop_receipt,
                },
            )
            .await
            .map(|_| ())
    }

    /// Remove every message without deleting the queue; returns how many
    /// were dropped.
    pub async fn clear(&self) -> StorageResult<usize> {
        match self
            .policy
            .run(
                self.env,
                StorageRequest::ClearQueue {
                    queue: self.name.clone(),
                },
            )
            .await?
        {
            StorageOk::Count(n) => Ok(n),
            other => unreachable!("unexpected response {other:?}"),
        }
    }

    /// Approximate message count (visible + invisible).
    pub async fn message_count(&self) -> StorageResult<usize> {
        match self
            .policy
            .run(
                self.env,
                StorageRequest::GetMessageCount {
                    queue: self.name.clone(),
                },
            )
            .await?
        {
            StorageOk::Count(c) => Ok(c),
            other => unreachable!("unexpected response {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::VirtualEnv;
    use azsim_core::Simulation;
    use azsim_fabric::Cluster;

    #[test]
    fn queue_client_end_to_end_in_simulation() {
        let sim = Simulation::new(Cluster::with_defaults(), 3);
        let report = sim.run_workers(1, |ctx| async move {
            let env = VirtualEnv::new(&ctx);
            let q = QueueClient::new(&env, "jobs");
            q.create().await.unwrap();
            q.put_message(Bytes::from_static(b"task-1")).await.unwrap();
            q.put_message(Bytes::from_static(b"task-2")).await.unwrap();
            assert_eq!(q.message_count().await.unwrap(), 2);

            let peeked = q.peek_message().await.unwrap().unwrap();
            assert_eq!(peeked.dequeue_count, 0);

            let m = q.get_message().await.unwrap().unwrap();
            q.delete_message(&m).await.unwrap();
            assert_eq!(q.message_count().await.unwrap(), 1);
            q.delete_queue().await.unwrap();
            ctx.now()
        });
        assert!(report.results[0] > azsim_core::SimTime::ZERO);
    }

    #[test]
    fn retry_recovers_from_throttling() {
        use azsim_fabric::ClusterParams;
        // A tiny queue rate forces ServerBusy storms; the client must
        // absorb them with one-second sleeps and still complete every put.
        let params = ClusterParams {
            queue_rate: 10.0,
            throttle_burst: 2.0,
            ..ClusterParams::default()
        };
        let sim = Simulation::new(Cluster::new(params), 5);
        let n_msgs = 30u32;
        let report = sim.run_workers(4, move |ctx| async move {
            let env = VirtualEnv::new(&ctx);
            let q = QueueClient::new(&env, "shared");
            q.create().await.unwrap();
            for i in 0..n_msgs {
                q.put_message(Bytes::from(i.to_le_bytes().to_vec()))
                    .await
                    .unwrap();
            }
            ctx.now()
        });
        let throttled = report.model.metrics().total_throttled();
        assert!(throttled > 0, "test must actually exercise throttling");
        let count = report.model.metrics();
        assert_eq!(
            count
                .counter(azsim_storage::OpClass::QueuePut)
                .unwrap()
                .completed,
            4 * n_msgs as u64
        );
        // Retrying costs virtual seconds: the run must span at least the
        // bucket-drain time.
        assert!(report.end_time > azsim_core::SimTime::from_secs(1));
    }
}
