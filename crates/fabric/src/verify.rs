//! Ground-truth operation history for resilience verification.
//!
//! When enabled ([`crate::Cluster::enable_history`]), the cluster records
//! one [`OpRecord`] per submitted request with the one fact no client can
//! observe: whether the state transition **executed**. A dropped request
//! and a lost ack both surface to the client as `StorageError::Timeout`,
//! but only the history knows which timeouts mutated server state — the
//! raw material for the at-least-once / at-most-once invariants checked
//! by `azurebench::verify`.
//!
//! Recording is off by default and costs one branch per operation when
//! off, preserving the inert-plan zero-overhead guarantee.

use azsim_core::SimTime;
use azsim_storage::{OpClass, PartitionKey};

/// How one operation ended, from the server's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpOutcome {
    /// Executed and acknowledged.
    Ok,
    /// Rejected with `ServerBusy`; did not execute.
    Throttled,
    /// Rejected with `ServerFault` (crash/blackout window); did not execute.
    Faulted,
    /// Executed but returned a semantic error (e.g. `AlreadyExists`,
    /// `PreconditionFailed`) — state may or may not have changed, but the
    /// client learned the definite answer.
    Error,
    /// Client observed `Timeout`; the operation **never executed**
    /// (request dropped in flight).
    TimedOutLost,
    /// Client observed `Timeout`; the operation **executed** server-side
    /// (ack lost, or a crash cut an in-flight replicated write).
    TimedOutExecuted,
}

impl OpOutcome {
    /// Whether the state transition ran.
    pub fn executed(self) -> bool {
        matches!(self, OpOutcome::Ok | OpOutcome::TimedOutExecuted)
    }
}

/// Ground truth for one submitted operation.
#[derive(Clone, Debug)]
pub struct OpRecord {
    /// Client-side issue time.
    pub issued: SimTime,
    /// Client-visible completion (for timeouts: when the wait expired).
    pub completed: SimTime,
    /// Submitting actor.
    pub actor: usize,
    /// Operation class.
    pub class: OpClass,
    /// Target partition.
    pub partition: PartitionKey,
    /// Server-side outcome.
    pub outcome: OpOutcome,
}

/// The recorded run history.
#[derive(Debug, Default)]
pub struct History {
    records: Vec<OpRecord>,
}

impl History {
    /// All records, in submission order.
    pub fn records(&self) -> &[OpRecord] {
        &self.records
    }

    /// Append one record.
    pub(crate) fn push(&mut self, rec: OpRecord) {
        self.records.push(rec);
    }

    /// Timeouts that secretly executed — each one is a potential
    /// duplicate if the client retried.
    pub fn ambiguous_executed(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.outcome == OpOutcome::TimedOutExecuted)
            .count()
    }

    /// Timeouts that never executed.
    pub fn ambiguous_lost(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.outcome == OpOutcome::TimedOutLost)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_classification() {
        assert!(OpOutcome::TimedOutExecuted.executed());
        assert!(!OpOutcome::TimedOutLost.executed());
        assert!(OpOutcome::Ok.executed());
        assert!(!OpOutcome::Faulted.executed());
    }

    #[test]
    fn history_counts() {
        let mut h = History::default();
        let rec = |class, outcome| OpRecord {
            issued: SimTime::ZERO,
            completed: SimTime::from_millis(1),
            actor: 0,
            class,
            partition: PartitionKey::Queue { queue: "q".into() },
            outcome,
        };
        h.push(rec(OpClass::QueuePut, OpOutcome::Ok));
        h.push(rec(OpClass::QueuePut, OpOutcome::TimedOutExecuted));
        h.push(rec(OpClass::QueuePut, OpOutcome::TimedOutLost));
        h.push(rec(OpClass::QueueGet, OpOutcome::Faulted));
        assert_eq!(h.ambiguous_executed(), 1);
        assert_eq!(h.ambiguous_lost(), 1);
        assert_eq!(h.records().len(), 4);
    }
}
