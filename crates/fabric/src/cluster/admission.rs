//! Admission, the first stage of the op path: the injected front-end
//! faults, then the backend's declared rate limits — the account
//! transaction bucket, the per-queue / per-table-partition bucket and the
//! per-object update limiter. A request leaves this stage either admitted
//! (carrying an injected lost ack, if one is due) or with one
//! [`Rejection`]; only an admitted request reaches the priced pipeline.

use super::Cluster;
use crate::backend::ThrottleShape;
use crate::faults::FaultDecision;
use crate::trace::OpOutcome;
use azsim_core::resource::{Admission, TokenBucket};
use azsim_core::SimTime;
use azsim_storage::{OpClass, StorageError, StorageRequest};
use std::collections::HashMap;
use std::time::Duration;

/// Per-object mutation rate limiter (GCS-style backends): one token
/// bucket and consecutive-rejection counter per limited object. Blob
/// partitions are already per-object, so the object id is empty there;
/// table mutations key by row so two rows of one partition are limited
/// independently, as GCS documents.
pub(super) struct ObjectUpdateLimiter {
    /// Mutations per second per object.
    rate: f64,
    /// `(slot, object id)` → (bucket, consecutive rejections).
    buckets: HashMap<(usize, String), (TokenBucket, u32)>,
}

impl ObjectUpdateLimiter {
    pub(super) fn new(rate: f64) -> Self {
        ObjectUpdateLimiter {
            rate,
            buckets: HashMap::new(),
        }
    }
}

/// The object a mutation targets under a per-object update limit, or
/// `None` when the class is not update-limited.
fn update_limited_object(req: &StorageRequest) -> Option<String> {
    match req {
        // Blob mutations: the partition slot is the blob, so the slot id
        // alone identifies the object.
        StorageRequest::PutBlock { .. }
        | StorageRequest::PutBlockList { .. }
        | StorageRequest::UploadBlockBlob { .. }
        | StorageRequest::PutPage { .. } => Some(String::new()),
        // Table mutations of an existing row.
        StorageRequest::UpdateEntity { entity, .. } => Some(entity.row_key.clone()),
        StorageRequest::DeleteEntity { row, .. } => Some(row.clone()),
        _ => None,
    }
}

/// A request turned away at the front end, before it reached its
/// partition: how it ends for the client and in every sink.
pub(super) struct Rejection {
    /// When the client holds the answer (or its wait expires).
    pub(super) completed: SimTime,
    pub(super) outcome: OpOutcome,
    /// A rate limit or an injected busy storm turned it away.
    pub(super) throttled: bool,
    pub(super) error: StorageError,
}

impl Rejection {
    fn new(completed: SimTime, outcome: OpOutcome, throttled: bool, error: StorageError) -> Self {
        Rejection {
            completed,
            outcome,
            throttled,
            error,
        }
    }
}

impl Cluster {
    /// Admit or reject one request that reaches the front end at `t`.
    /// `Ok` carries the timeout of an injected lost ack, which does *not*
    /// divert the request: it runs through the pipeline, state transition
    /// and replication, and only its response is lost.
    ///
    /// Faults fire where a real cluster produces them: storms at the front
    /// end, crash/blackout at the partition server, drops anywhere in
    /// between. A rejection round trip takes 1 ms; a dropped request's
    /// client waits out its timeout. Only a rate-limit rejection heats the
    /// partition; an injected storm does not.
    pub(super) fn admit(
        &mut self,
        t: SimTime,
        class: OpClass,
        slot: usize,
        req: &StorageRequest,
    ) -> Result<Option<Duration>, Rejection> {
        let answered = t + Duration::from_millis(1);
        let server = self.slots[slot].server;
        let ack_loss = match self.faults.decide(t, class, &self.slots[slot].key, server) {
            FaultDecision::None => None,
            FaultDecision::AckLoss { elapsed } => Some(elapsed),
            FaultDecision::Busy { retry_after } => {
                let error = StorageError::ServerBusy { retry_after };
                return Err(Rejection::new(answered, OpOutcome::Throttled, true, error));
            }
            FaultDecision::Fault { retry_after } => {
                let error = StorageError::ServerFault { retry_after };
                return Err(Rejection::new(answered, OpOutcome::Faulted, false, error));
            }
            // The request vanishes and changes nothing server-side.
            FaultDecision::Drop { elapsed } => {
                let error = StorageError::Timeout { elapsed };
                return Err(Rejection::new(
                    t + elapsed,
                    OpOutcome::TimedOutLost,
                    false,
                    error,
                ));
            }
        };
        if let Err(error) = self.throttle(t, class, slot, req) {
            self.slots[slot].throttled += 1;
            return Err(match ack_loss {
                // The throttle rejected the request before it executed, but
                // the rejection is the response that gets lost: the client
                // still observes an opaque timeout.
                Some(elapsed) => Rejection::new(
                    t + elapsed,
                    OpOutcome::TimedOutLost,
                    true,
                    StorageError::Timeout { elapsed },
                ),
                None => Rejection::new(answered, OpOutcome::Throttled, true, error),
            });
        }
        Ok(ack_loss)
    }

    /// Check the backend's declared rate limits; the error is the throttle
    /// signal [`ThrottleShape::reject`] shapes.
    ///
    /// The account bucket and the per-object update limiter (GCS) fire
    /// with the backend's declared shape, escalating per consecutive
    /// rejection of the account or of the object. Per-partition buckets
    /// exist only where the profile declares them (WAS) and keep WAS's
    /// deficit-hint shape.
    fn throttle(
        &mut self,
        t: SimTime,
        class: OpClass,
        slot: usize,
        req: &StorageRequest,
    ) -> Result<(), StorageError> {
        if class.is_control() {
            return Ok(());
        }
        let shape = self.params.backend.throttle;
        let hint = self.params.throttle_retry_hint;
        if let Admission::Throttled(w) = self.account_tx.acquire(t, 1.0) {
            self.account_pushback = self.account_pushback.saturating_add(1);
            return Err(shape.reject(self.account_pushback, w, hint));
        }
        // Queue partitions carry the 500 msg/s bucket and table partitions
        // the 500 entities/s bucket; blob scalability is bandwidth-limited
        // (per-blob pipes), not transaction-limited, so blob slots have no
        // bucket at all.
        if let Some(bucket) = self.slots[slot].bucket.as_mut() {
            if let Admission::Throttled(w) = bucket.acquire(t, 1.0) {
                return Err(ThrottleShape::RetryAfterHint.reject(1, w, hint));
            }
        }
        if let Some(lim) = self.object_update.as_mut() {
            if let Some(object) = update_limited_object(req) {
                let rate = lim.rate;
                let (bucket, pushback) = lim
                    .buckets
                    .entry((slot, object))
                    .or_insert_with(|| (TokenBucket::new(rate, 1.0), 0));
                if let Admission::Throttled(w) = bucket.acquire(t, 1.0) {
                    *pushback = pushback.saturating_add(1);
                    return Err(shape.reject(*pushback, w, hint));
                }
                *pushback = 0;
            }
        }
        self.account_pushback = 0;
        Ok(())
    }
}
