//! A single simulated Azure queue.

use azsim_core::rng::stream_rng;
use azsim_core::SimTime;
use azsim_storage::limits::{MAX_MESSAGE_PAYLOAD, MESSAGE_TTL_SECS};
use azsim_storage::message::{MessageId, PeekedMessage, PopReceipt};
use azsim_storage::{QueueMessage, StorageError, StorageResult};
use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::Rng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::time::Duration;

#[derive(Clone, Debug)]
struct Stored {
    data: Bytes,
    insertion: SimTime,
    expiry: SimTime,
    next_visible: SimTime,
    dequeue_count: u32,
    current_receipt: Option<PopReceipt>,
}

/// One queue: messages with visibility timeouts, pop receipts, TTLs and
/// deliberately non-guaranteed FIFO order.
///
/// Internally messages live in a map plus two delivery structures — a
/// `ready` list of (approximately insertion-ordered) visible candidates and
/// a `parked` heap of invisible messages keyed by reappearance time — so
/// that `get`/`peek` are amortized O(log n) even when the benchmark leaves
/// tens of thousands of invisible messages at the front of the queue.
#[derive(Clone, Debug)]
pub struct SimQueue {
    messages: HashMap<u64, Stored>,
    ready: VecDeque<u64>,
    parked: BinaryHeap<Reverse<(u64, u64)>>, // (next_visible nanos, id)
    next_id: u64,
    next_receipt: u64,
    fifo_fuzz: f64,
    rng: SmallRng,
    total_put: u64,
    total_got: u64,
    total_deleted: u64,
    reappeared: u64,
}

impl SimQueue {
    /// Create a queue. `fifo_fuzz` is the probability that a dequeue skips
    /// the oldest visible message in favour of the next one, modelling the
    /// service's lack of a FIFO guarantee deterministically (seeded).
    pub fn new(seed: u64, fifo_fuzz: f64) -> Self {
        SimQueue {
            messages: HashMap::new(),
            ready: VecDeque::new(),
            parked: BinaryHeap::new(),
            next_id: 0,
            next_receipt: 0,
            fifo_fuzz,
            rng: stream_rng(seed, 0xD0_0D),
            total_put: 0,
            total_got: 0,
            total_deleted: 0,
            reappeared: 0,
        }
    }

    /// Enqueue a message. Payload must fit in the 48 KB usable size; the
    /// TTL is capped at the service's 7 days.
    pub fn put(
        &mut self,
        now: SimTime,
        data: Bytes,
        ttl: Option<Duration>,
    ) -> StorageResult<MessageId> {
        if data.len() as u64 > MAX_MESSAGE_PAYLOAD {
            return Err(StorageError::MessageTooLarge {
                size: data.len() as u64,
            });
        }
        let max_ttl = Duration::from_secs(MESSAGE_TTL_SECS);
        let ttl = ttl.unwrap_or(max_ttl).min(max_ttl);
        let id = self.next_id;
        self.next_id += 1;
        self.messages.insert(
            id,
            Stored {
                data,
                insertion: now,
                expiry: now + ttl,
                next_visible: now,
                dequeue_count: 0,
                current_receipt: None,
            },
        );
        self.ready.push_back(id);
        self.total_put += 1;
        Ok(MessageId(id))
    }

    /// Move parked messages whose visibility timeout has elapsed back into
    /// the ready list; drop expired ones.
    fn promote(&mut self, now: SimTime) {
        while let Some(&Reverse((t, id))) = self.parked.peek() {
            if SimTime(t) > now {
                break;
            }
            self.parked.pop();
            let keep = match self.messages.get(&id) {
                // Only promote if this parking entry is still current.
                Some(m) if m.next_visible == SimTime(t) => {
                    if m.expiry <= now {
                        self.messages.remove(&id);
                        false
                    } else {
                        true
                    }
                }
                _ => false,
            };
            if keep {
                if self.messages[&id].dequeue_count > 0 {
                    self.reappeared += 1;
                }
                self.ready.push_back(id);
            }
        }
    }

    /// Pop the next valid visible candidate id from `ready`, skipping stale
    /// entries (deleted, re-parked or expired messages).
    fn pop_candidate(&mut self, now: SimTime) -> Option<u64> {
        while let Some(id) = self.ready.pop_front() {
            match self.messages.get(&id) {
                Some(m) if m.next_visible <= now => {
                    if m.expiry <= now {
                        self.messages.remove(&id);
                        continue;
                    }
                    return Some(id);
                }
                _ => continue, // stale: deleted or currently invisible
            }
        }
        None
    }

    /// Dequeue a message, making it invisible for `visibility`. Returns
    /// `None` when no visible message exists.
    pub fn get(&mut self, now: SimTime, visibility: Duration) -> Option<QueueMessage> {
        self.promote(now);
        let mut id = self.pop_candidate(now)?;
        // FIFO is not guaranteed: sometimes deliver the *second* oldest.
        if self.fifo_fuzz > 0.0 && self.rng.random::<f64>() < self.fifo_fuzz {
            if let Some(second) = self.pop_candidate(now) {
                self.ready.push_front(id);
                id = second;
            }
        }
        let receipt = PopReceipt(self.next_receipt);
        self.next_receipt += 1;
        let m = self.messages.get_mut(&id).expect("candidate vanished");
        m.dequeue_count += 1;
        m.next_visible = now + visibility;
        m.current_receipt = Some(receipt);
        self.parked.push(Reverse((m.next_visible.as_nanos(), id)));
        self.total_got += 1;
        Some(QueueMessage {
            id: MessageId(id),
            pop_receipt: receipt,
            data: m.data.clone(),
            dequeue_count: m.dequeue_count,
            insertion_time: m.insertion,
            next_visible: m.next_visible,
        })
    }

    /// Look at the next visible message without claiming it.
    pub fn peek(&mut self, now: SimTime) -> Option<PeekedMessage> {
        self.promote(now);
        let id = self.pop_candidate(now)?;
        // Peek does not consume: put the candidate back at the front.
        self.ready.push_front(id);
        let m = &self.messages[&id];
        Some(PeekedMessage {
            id: MessageId(id),
            data: m.data.clone(),
            dequeue_count: m.dequeue_count,
            insertion_time: m.insertion,
        })
    }

    /// Delete a message using the receipt from the dequeue that claimed it.
    /// Fails with [`StorageError::PopReceiptMismatch`] if the message was
    /// re-delivered in the meantime (or no longer exists).
    pub fn delete(&mut self, id: MessageId, receipt: PopReceipt) -> StorageResult<()> {
        match self.messages.get(&id.0) {
            Some(m) if m.current_receipt == Some(receipt) => {
                self.messages.remove(&id.0);
                self.total_deleted += 1;
                Ok(())
            }
            _ => Err(StorageError::PopReceiptMismatch),
        }
    }

    /// Approximate message count (visible *and* invisible, like the real
    /// service's `ApproximateMessageCount`). Purges expired messages.
    pub fn approximate_count(&mut self, now: SimTime) -> usize {
        self.messages.retain(|_, m| m.expiry > now);
        self.messages.len()
    }

    /// Remove every message (the REST `Clear Messages` operation). Returns
    /// the number of unexpired messages dropped.
    pub fn clear(&mut self, now: SimTime) -> usize {
        let n = self.approximate_count(now);
        self.messages.clear();
        self.ready.clear();
        self.parked.clear();
        n
    }

    /// Lifetime counters `(put, got, deleted, reappeared)` for tests and
    /// fault-tolerance accounting.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (
            self.total_put,
            self.total_got,
            self.total_deleted,
            self.reappeared,
        )
    }

    /// Ground-truth snapshot of every message still held at `now` —
    /// visible, invisible or awaiting lazy expiry purge — sorted by id.
    /// Verification audits final queue state through this, so invariants
    /// are checkable even when messages are parked behind long visibility
    /// timeouts (liveness is not required).
    pub fn audit(&self, now: SimTime) -> Vec<AuditedMessage> {
        let mut out: Vec<AuditedMessage> = self
            .messages
            .iter()
            .filter(|(_, m)| m.expiry > now)
            .map(|(&id, m)| AuditedMessage {
                id: MessageId(id),
                data: m.data.clone(),
                dequeue_count: m.dequeue_count,
            })
            .collect();
        out.sort_by_key(|m| m.id.0);
        out
    }
}

/// One live message as seen by [`SimQueue::audit`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditedMessage {
    /// Service-assigned message id.
    pub id: MessageId,
    /// Message payload.
    pub data: Bytes,
    /// How many times the message has been claimed.
    pub dequeue_count: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> SimQueue {
        SimQueue::new(42, 0.0) // strict FIFO for deterministic assertions
    }

    fn payload(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    const VIS: Duration = Duration::from_secs(30);

    #[test]
    fn put_get_delete_roundtrip() {
        let mut queue = q();
        let t0 = SimTime::ZERO;
        queue.put(t0, payload("m1"), None).unwrap();
        let m = queue.get(t0, VIS).unwrap();
        assert_eq!(m.data, payload("m1"));
        assert_eq!(m.dequeue_count, 1);
        queue.delete(m.id, m.pop_receipt).unwrap();
        assert!(queue.get(t0, VIS).is_none());
        assert_eq!(queue.counters(), (1, 1, 1, 0));
    }

    #[test]
    fn got_message_is_invisible_until_timeout() {
        let mut queue = q();
        let t0 = SimTime::ZERO;
        queue.put(t0, payload("m"), None).unwrap();
        let m = queue.get(t0, VIS).unwrap();
        // Invisible to a second consumer right away and just before expiry.
        assert!(queue.get(t0, VIS).is_none());
        assert!(queue
            .get(t0 + (VIS - Duration::from_nanos(1)), VIS)
            .is_none());
        // Reappears at the timeout with an incremented dequeue count.
        let again = queue.get(t0 + VIS, VIS).unwrap();
        assert_eq!(again.id, m.id);
        assert_eq!(again.dequeue_count, 2);
        assert_ne!(again.pop_receipt, m.pop_receipt);
        assert_eq!(queue.counters().3, 1, "one reappearance recorded");
    }

    #[test]
    fn stale_pop_receipt_rejected_after_redelivery() {
        let mut queue = q();
        let t0 = SimTime::ZERO;
        queue.put(t0, payload("m"), None).unwrap();
        let first = queue.get(t0, Duration::from_secs(1)).unwrap();
        let second = queue.get(t0 + Duration::from_secs(1), VIS).unwrap();
        // The crashed consumer's receipt no longer works…
        assert_eq!(
            queue.delete(first.id, first.pop_receipt),
            Err(StorageError::PopReceiptMismatch)
        );
        // …but the current owner's does.
        queue.delete(second.id, second.pop_receipt).unwrap();
    }

    #[test]
    fn receipt_still_valid_if_reappeared_but_not_redelivered() {
        let mut queue = q();
        let t0 = SimTime::ZERO;
        queue.put(t0, payload("m"), None).unwrap();
        let m = queue.get(t0, Duration::from_secs(1)).unwrap();
        // Visibility elapsed but nobody re-dequeued: delete still succeeds
        // (matches the real service: receipts break on re-delivery).
        queue.delete(m.id, m.pop_receipt).unwrap();
    }

    #[test]
    fn peek_does_not_claim_or_advance() {
        let mut queue = q();
        let t0 = SimTime::ZERO;
        queue.put(t0, payload("a"), None).unwrap();
        queue.put(t0, payload("b"), None).unwrap();
        let p1 = queue.peek(t0).unwrap();
        let p2 = queue.peek(t0).unwrap();
        assert_eq!(p1.id, p2.id, "peek must not consume");
        assert_eq!(p1.dequeue_count, 0);
        // Get still sees the same front message.
        let g = queue.get(t0, VIS).unwrap();
        assert_eq!(g.id, p1.id);
    }

    #[test]
    fn empty_queue_returns_none() {
        let mut queue = q();
        assert!(queue.get(SimTime::ZERO, VIS).is_none());
        assert!(queue.peek(SimTime::ZERO).is_none());
        assert_eq!(queue.approximate_count(SimTime::ZERO), 0);
    }

    #[test]
    fn oversized_message_rejected() {
        let mut queue = q();
        let too_big = Bytes::from(vec![0u8; (MAX_MESSAGE_PAYLOAD + 1) as usize]);
        assert!(matches!(
            queue.put(SimTime::ZERO, too_big, None),
            Err(StorageError::MessageTooLarge { .. })
        ));
        // Exactly 48 KB fits.
        let max = Bytes::from(vec![0u8; MAX_MESSAGE_PAYLOAD as usize]);
        queue.put(SimTime::ZERO, max, None).unwrap();
    }

    #[test]
    fn ttl_expiry_removes_messages() {
        let mut queue = q();
        let t0 = SimTime::ZERO;
        queue
            .put(t0, payload("short"), Some(Duration::from_secs(10)))
            .unwrap();
        queue.put(t0, payload("long"), None).unwrap();
        assert_eq!(queue.approximate_count(t0), 2);
        let t1 = t0 + Duration::from_secs(11);
        // The short-TTL message is gone; the 7-day one remains.
        let m = queue.get(t1, VIS).unwrap();
        assert_eq!(m.data, payload("long"));
        assert!(queue.get(t1, VIS).is_none());
        assert_eq!(queue.approximate_count(t1), 1);
    }

    #[test]
    fn default_ttl_is_seven_days() {
        let mut queue = q();
        let t0 = SimTime::ZERO;
        queue.put(t0, payload("m"), None).unwrap();
        let just_before = t0 + Duration::from_secs(MESSAGE_TTL_SECS - 1);
        assert_eq!(queue.approximate_count(just_before), 1);
        let after = t0 + Duration::from_secs(MESSAGE_TTL_SECS);
        assert_eq!(queue.approximate_count(after), 0);
    }

    #[test]
    fn approximate_count_includes_invisible() {
        let mut queue = q();
        let t0 = SimTime::ZERO;
        for i in 0..5 {
            queue.put(t0, payload(&i.to_string()), None).unwrap();
        }
        let _ = queue.get(t0, VIS).unwrap();
        let _ = queue.get(t0, VIS).unwrap();
        // 2 invisible + 3 visible = 5 (this is what makes the paper's
        // queue-based barrier work).
        assert_eq!(queue.approximate_count(t0), 5);
    }

    #[test]
    fn fifo_when_fuzz_zero() {
        let mut queue = q();
        let t0 = SimTime::ZERO;
        for i in 0..10 {
            queue.put(t0, payload(&i.to_string()), None).unwrap();
        }
        for i in 0..10 {
            let m = queue.get(t0, VIS).unwrap();
            assert_eq!(m.data, payload(&i.to_string()));
        }
    }

    #[test]
    fn fifo_not_guaranteed_with_fuzz() {
        let mut queue = SimQueue::new(7, 1.0); // always skip the oldest
        let t0 = SimTime::ZERO;
        for i in 0..4 {
            queue.put(t0, payload(&i.to_string()), None).unwrap();
        }
        let first = queue.get(t0, VIS).unwrap();
        assert_eq!(first.data, payload("1"), "fuzz must reorder delivery");
        // The skipped message is still delivered eventually.
        let mut seen = vec![first.data.clone()];
        while let Some(m) = queue.get(t0, VIS) {
            seen.push(m.data.clone());
        }
        assert_eq!(seen.len(), 4, "no message may be lost");
    }

    #[test]
    fn zero_visibility_timeout_leaves_message_available() {
        let mut queue = q();
        let t0 = SimTime::ZERO;
        queue.put(t0, payload("m"), None).unwrap();
        let a = queue.get(t0, Duration::ZERO).unwrap();
        let b = queue.get(t0, VIS).unwrap();
        assert_eq!(a.id, b.id);
        assert_eq!(b.dequeue_count, 2);
    }

    /// A naive reference model of one queue: every message in a `Vec` in
    /// put (id) order, held until deleted or cleared; visibility and expiry
    /// are decided by a scan at each instant.
    struct Model(Vec<ModelMsg>);

    struct ModelMsg {
        seen: AuditedMessage,
        expiry: SimTime,
        next_visible: SimTime,
        receipt: Option<PopReceipt>,
    }

    impl Model {
        fn live(&self, now: SimTime) -> impl Iterator<Item = &ModelMsg> {
            self.0.iter().filter(move |m| m.expiry > now)
        }

        fn visible(&self, now: SimTime) -> impl Iterator<Item = &ModelMsg> {
            self.live(now).filter(move |m| m.next_visible <= now)
        }
    }

    /// Drive `SimQueue` and the model with one op sequence over an
    /// advancing clock, comparing every answer.
    fn check_against_model(
        fuzz: f64,
        ops: &[(u8, u8, u8)],
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        use proptest::{prop_assert, prop_assert_eq};
        let mut queue = SimQueue::new(5, fuzz);
        let mut model = Model(Vec::new());
        let mut receipts: Vec<(MessageId, PopReceipt)> = Vec::new();
        let mut now = SimTime::ZERO;
        for (step, &(op, a, b)) in ops.iter().enumerate() {
            let front = model.visible(now).next().map(|m| m.seen.id);
            // Exact FIFO is pinned only while no visible message has been
            // delivered before: the order after a reappearance is not a
            // declared guarantee.
            let pinned = model.visible(now).all(|m| m.seen.dequeue_count == 0);
            match op {
                0 => now += Duration::from_millis(250 * u64::from(a)),
                1 | 2 => {
                    let data = Bytes::from(step.to_string());
                    let ttl = [None, Some(2), Some(10), Some(45)][usize::from(b)];
                    let ttl = ttl.map(Duration::from_secs);
                    let id = queue.put(now, data.clone(), ttl).unwrap();
                    let seen = AuditedMessage {
                        id,
                        data,
                        dequeue_count: 0,
                    };
                    model.0.push(ModelMsg {
                        seen,
                        expiry: now + ttl.unwrap_or(Duration::from_secs(MESSAGE_TTL_SECS)),
                        next_visible: now,
                        receipt: None,
                    });
                }
                3 => {
                    let vis = Duration::from_secs([0, 1, 5, 30][usize::from(b)]);
                    let Some(got) = queue.get(now, vis) else {
                        prop_assert!(front.is_none(), "get: None while {front:?} is visible");
                        continue;
                    };
                    if fuzz == 0.0 && pinned {
                        prop_assert_eq!(Some(got.id), front, "get: {:?}, front {front:?}", got.id);
                    }
                    let held = model
                        .0
                        .iter_mut()
                        .find(|m| m.seen.id == got.id && m.expiry > now && m.next_visible <= now);
                    prop_assert!(held.is_some(), "get: {:?} is not visible", got.id);
                    let m = held.unwrap();
                    m.seen.dequeue_count += 1;
                    prop_assert_eq!(
                        (&got.data, got.dequeue_count),
                        (&m.seen.data, m.seen.dequeue_count)
                    );
                    prop_assert_eq!(got.next_visible, now + vis);
                    m.next_visible = now + vis;
                    m.receipt = Some(got.pop_receipt);
                    receipts.push((got.id, got.pop_receipt));
                }
                4 => {
                    // Peek changes no message and no delivery counter; the
                    // reappearance counter is updated lazily by whichever
                    // call notices the reappearance first.
                    let state = |q: &SimQueue| {
                        (q.audit(now), q.counters().0, q.counters().1, q.counters().2)
                    };
                    let before = state(&queue);
                    let peeked = queue.peek(now);
                    prop_assert_eq!(state(&queue), before);
                    prop_assert_eq!(peeked.is_some(), front.is_some());
                    if let Some(p) = peeked {
                        if pinned {
                            prop_assert_eq!(Some(p.id), front, "peek: {:?}, front {front:?}", p.id);
                        }
                        let seen = AuditedMessage {
                            id: p.id,
                            data: p.data,
                            dequeue_count: p.dequeue_count,
                        };
                        prop_assert!(model.visible(now).any(|m| m.seen == seen), "peek: {seen:?}");
                    }
                }
                5 if !receipts.is_empty() => {
                    let (id, receipt) = receipts[usize::from(a) % receipts.len()];
                    let r = queue.delete(id, receipt);
                    match model.0.iter().position(|m| m.seen.id == id) {
                        // `SimQueue::delete` takes no clock, so a message
                        // whose TTL ran out since its last purge still
                        // answers to its receipt.
                        Some(i) if model.0[i].expiry <= now => {
                            if r.is_ok() {
                                model.0.remove(i);
                            }
                        }
                        Some(i) if model.0[i].receipt == Some(receipt) => {
                            prop_assert_eq!(r, Ok(()));
                            model.0.remove(i);
                        }
                        _ => prop_assert_eq!(r, Err(StorageError::PopReceiptMismatch)),
                    }
                }
                6 if a < 32 => {
                    prop_assert_eq!(queue.clear(now), model.live(now).count());
                    model.0.clear();
                }
                _ => prop_assert_eq!(queue.approximate_count(now), model.live(now).count()),
            }
            let held: Vec<AuditedMessage> = model.live(now).map(|m| m.seen.clone()).collect();
            prop_assert_eq!(queue.audit(now), held);
        }
        Ok(())
    }

    proptest::proptest! {
        /// Random op sequences over an advancing clock agree with the
        /// reference model, with strict and with fuzzed FIFO.
        #[test]
        fn prop_matches_reference_model(
            ops in proptest::collection::vec((0u8..8, 0u8..=255, 0u8..4), 1..150)
        ) {
            for fuzz in [0.0, 0.5] {
                check_against_model(fuzz, &ops)?;
            }
        }
    }

    proptest::proptest! {
        /// Message conservation: every put message is eventually either
        /// delivered-and-deleted or still countable; nothing is lost or
        /// duplicated when consumers behave (delete what they get).
        #[test]
        fn prop_no_loss_no_dup(
            n_msgs in 1usize..60,
            fuzz in 0.0f64..1.0,
            delete_mask in proptest::collection::vec(proptest::bool::ANY, 60)
        ) {
            let mut queue = SimQueue::new(99, fuzz);
            let t0 = SimTime::ZERO;
            for i in 0..n_msgs {
                queue.put(t0, Bytes::from(i.to_string()), None).unwrap();
            }
            let mut delivered = std::collections::HashSet::new();
            let mut deleted = 0usize;
            // Dequeue everything with a long visibility timeout.
            while let Some(m) = queue.get(t0, Duration::from_secs(3600)) {
                proptest::prop_assert!(delivered.insert(m.id),
                    "duplicate delivery within one visibility window");
                if delete_mask[deleted.min(59) % 60] {
                    queue.delete(m.id, m.pop_receipt).unwrap();
                    deleted += 1;
                }
            }
            proptest::prop_assert_eq!(delivered.len(), n_msgs);
            proptest::prop_assert_eq!(queue.approximate_count(t0), n_msgs - deleted);
        }
    }
}
