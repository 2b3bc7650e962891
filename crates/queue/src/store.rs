//! The account-level queue namespace.

use crate::queue::SimQueue;
use azsim_core::SimTime;
use azsim_storage::message::{MessageId, PeekedMessage, PopReceipt};
use azsim_storage::{QueueMessage, StorageError, StorageResult};
use bytes::Bytes;
use std::collections::HashMap;
use std::time::Duration;

/// All queue state of one storage account. "A storage account can have
/// unlimited number of uniquely named queues" (paper §IV-B).
#[derive(Clone, Debug)]
pub struct QueueStore {
    queues: HashMap<String, SimQueue>,
    seed: u64,
    fifo_fuzz: f64,
}

impl QueueStore {
    /// Create a store whose queues use deterministic seeds derived from
    /// `seed` and the configured FIFO fuzz probability.
    pub fn new(seed: u64, fifo_fuzz: f64) -> Self {
        QueueStore {
            queues: HashMap::new(),
            seed,
            fifo_fuzz,
        }
    }

    /// Create a queue; idempotent (`CreateIfNotExist` semantics).
    pub fn create_queue(&mut self, name: &str) -> StorageResult<()> {
        if !self.queues.contains_key(name) {
            // Seed each queue from its name so placement of randomness is
            // independent of creation order.
            let qseed = self.seed
                ^ azsim_storage::PartitionKey::Queue {
                    queue: name.to_owned(),
                }
                .stable_hash();
            self.queues
                .insert(name.to_owned(), SimQueue::new(qseed, self.fifo_fuzz));
        }
        Ok(())
    }

    /// Delete a queue and all its messages.
    pub fn delete_queue(&mut self, name: &str) -> StorageResult<()> {
        self.queues
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| StorageError::QueueNotFound(name.to_owned()))
    }

    /// Whether a queue exists.
    pub fn queue_exists(&self, name: &str) -> bool {
        self.queues.contains_key(name)
    }

    fn queue_mut(&mut self, name: &str) -> StorageResult<&mut SimQueue> {
        self.queues
            .get_mut(name)
            .ok_or_else(|| StorageError::QueueNotFound(name.to_owned()))
    }

    /// Enqueue a message.
    pub fn put(
        &mut self,
        now: SimTime,
        name: &str,
        data: Bytes,
        ttl: Option<Duration>,
    ) -> StorageResult<MessageId> {
        self.queue_mut(name)?.put(now, data, ttl)
    }

    /// Dequeue a message with a visibility timeout.
    pub fn get(
        &mut self,
        now: SimTime,
        name: &str,
        visibility: Duration,
    ) -> StorageResult<Option<QueueMessage>> {
        Ok(self.queue_mut(name)?.get(now, visibility))
    }

    /// Peek at the next visible message.
    pub fn peek(&mut self, now: SimTime, name: &str) -> StorageResult<Option<PeekedMessage>> {
        Ok(self.queue_mut(name)?.peek(now))
    }

    /// Delete a claimed message.
    pub fn delete_message(
        &mut self,
        name: &str,
        id: MessageId,
        receipt: PopReceipt,
    ) -> StorageResult<()> {
        self.queue_mut(name)?.delete(id, receipt)
    }

    /// Approximate message count.
    pub fn approximate_count(&mut self, now: SimTime, name: &str) -> StorageResult<usize> {
        Ok(self.queue_mut(name)?.approximate_count(now))
    }

    /// Remove every message from a queue.
    pub fn clear(&mut self, now: SimTime, name: &str) -> StorageResult<usize> {
        Ok(self.queue_mut(name)?.clear(now))
    }

    /// Number of queues in the account.
    pub fn queue_count(&self) -> usize {
        self.queues.len()
    }

    /// Ground-truth audit of one queue's live messages at `now` (see
    /// [`SimQueue::audit`]).
    pub fn audit(
        &self,
        now: SimTime,
        name: &str,
    ) -> StorageResult<Vec<crate::queue::AuditedMessage>> {
        self.queues
            .get(name)
            .map(|q| q.audit(now))
            .ok_or_else(|| StorageError::QueueNotFound(name.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> QueueStore {
        QueueStore::new(1, 0.0)
    }

    #[test]
    fn create_is_idempotent_and_preserves_messages() {
        let mut s = store();
        s.create_queue("q").unwrap();
        s.put(SimTime::ZERO, "q", Bytes::from_static(b"m"), None)
            .unwrap();
        // Re-creating must NOT clear the queue.
        s.create_queue("q").unwrap();
        assert_eq!(s.approximate_count(SimTime::ZERO, "q").unwrap(), 1);
    }

    #[test]
    fn operations_on_missing_queue_fail() {
        let mut s = store();
        assert!(matches!(
            s.put(SimTime::ZERO, "nope", Bytes::new(), None),
            Err(StorageError::QueueNotFound(_))
        ));
        assert!(matches!(
            s.get(SimTime::ZERO, "nope", Duration::from_secs(1)),
            Err(StorageError::QueueNotFound(_))
        ));
        assert!(matches!(
            s.delete_queue("nope"),
            Err(StorageError::QueueNotFound(_))
        ));
    }

    #[test]
    fn delete_queue_drops_messages() {
        let mut s = store();
        s.create_queue("q").unwrap();
        s.put(SimTime::ZERO, "q", Bytes::from_static(b"m"), None)
            .unwrap();
        s.delete_queue("q").unwrap();
        assert!(!s.queue_exists("q"));
        // Re-created queue is empty.
        s.create_queue("q").unwrap();
        assert_eq!(s.approximate_count(SimTime::ZERO, "q").unwrap(), 0);
    }

    #[test]
    fn queues_are_independent() {
        let mut s = store();
        s.create_queue("a").unwrap();
        s.create_queue("b").unwrap();
        s.put(SimTime::ZERO, "a", Bytes::from_static(b"ma"), None)
            .unwrap();
        assert_eq!(s.approximate_count(SimTime::ZERO, "a").unwrap(), 1);
        assert_eq!(s.approximate_count(SimTime::ZERO, "b").unwrap(), 0);
        let m = s
            .get(SimTime::ZERO, "a", Duration::from_secs(1))
            .unwrap()
            .unwrap();
        assert_eq!(m.data, Bytes::from_static(b"ma"));
        assert!(s
            .get(SimTime::ZERO, "b", Duration::from_secs(1))
            .unwrap()
            .is_none());
        assert_eq!(s.queue_count(), 2);
    }
}
