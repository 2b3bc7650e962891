//! Deterministic event heap.
//!
//! The executor pops events in `(time, actor, per-actor sequence)` order.
//! The per-actor sequence counter makes the ordering total and *independent
//! of the order in which events were pushed* — including the order in which
//! shard threads flush their cross-shard messages — which is what makes the
//! whole simulation reproducible: the set of events present at any pop is
//! determined by the simulation history alone, and the key ordering is
//! determined by the events themselves.
//!
//! ## Layout
//!
//! The heap is an implicit **4-ary** min-heap over compact `(EventKey, slot)`
//! entries, with payloads parked in a separate slab and addressed by slot:
//!
//! * Sift operations move 32-byte key entries, never the payload — a
//!   [`crate::runtime`] `Deliver` carries the whole model response inline
//!   (and an `Arrival` the executor cannot serve in place, the whole
//!   request), so keeping payloads out of the sift path is what keeps a deep
//!   heap cheap at high actor counts (the engine-ladder cliff past 32 actors
//!   was dominated by `BinaryHeap` moving fat entries across `log n` levels).
//! * A 4-ary shape halves the number of levels versus a binary heap and the
//!   four children of a node share one or two cache lines, trading a few
//!   extra comparisons for far fewer cache misses.
//!
//! Freed payload slots are recycled LIFO, so steady-state simulations (each
//! actor keeping one or two events in flight) touch the same few slab lines
//! over and over.
//!
//! ## Monotone tail fast path
//!
//! Discrete-event workloads push most events in already-sorted key order:
//! the executor pops events in key order, and a popped actor typically
//! schedules its next event one latency hop in the future — past every
//! pending key. Sifting such a push through a 100 000-entry heap pays
//! `log n` scattered cache misses for nothing. The heap therefore keeps a
//! second structure, a strictly-sorted **tail deque**: a push whose key
//! exceeds the tail's back is appended in O(1) (contiguous memory, no
//! sift); anything out of order falls back to the 4-ary heap. `pop` takes
//! whichever front is smaller, so the merged view stays a total order no
//! matter how pushes were routed. Steady-state ladder rungs route every
//! event through the tail, making both push and pop O(1) ring-buffer
//! operations regardless of actor count.

use crate::runtime::ActorId;
use crate::time::SimTime;
use std::collections::VecDeque;

/// A totally ordered event key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Virtual firing time.
    pub time: SimTime,
    /// Actor the event belongs to (ties across actors break by id).
    pub actor: ActorId,
    /// Per-actor monotonically increasing sequence number (ties within an
    /// actor break by issue order).
    pub seq: u64,
}

/// One sift-path entry: the ordering key plus the payload's slab slot.
#[derive(Clone, Copy)]
struct Entry {
    key: EventKey,
    slot: u32,
}

/// Min-heap of timestamped events with deterministic total ordering.
pub struct EventHeap<T> {
    /// Implicit 4-ary min-heap: children of `i` are `4i+1 ..= 4i+4`.
    /// Holds only the out-of-order pushes; in-order pushes go to `tail`.
    entries: Vec<Entry>,
    /// Strictly-sorted monotone tail: pushes whose key exceeds the back
    /// are appended here in O(1) instead of sifting through `entries`.
    tail: VecDeque<Entry>,
    /// Payload slab addressed by `Entry::slot`.
    slab: Vec<Option<T>>,
    /// Recycled slab slots (LIFO for cache locality).
    free: Vec<u32>,
    /// Highest time popped so far; used to enforce monotonicity.
    watermark: SimTime,
}

impl<T> Default for EventHeap<T> {
    fn default() -> Self {
        Self::new()
    }
}

const ARITY: usize = 4;

#[cfg(test)]
thread_local! {
    /// Events pushed by this thread, across every heap: lets executor tests
    /// pin how many events a schedule routes through the heap.
    pub(crate) static PUSHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl<T> EventHeap<T> {
    /// Create an empty heap.
    pub fn new() -> Self {
        EventHeap {
            entries: Vec::new(),
            tail: VecDeque::new(),
            slab: Vec::new(),
            free: Vec::new(),
            watermark: SimTime::ZERO,
        }
    }

    /// Create an empty heap with room for `n` pending events (steady-state
    /// simulations keep one or two events in flight per actor; sizing the
    /// arena up front avoids growth reallocations mid-run).
    pub fn with_capacity(n: usize) -> Self {
        EventHeap {
            entries: Vec::with_capacity(n),
            tail: VecDeque::with_capacity(n),
            slab: Vec::with_capacity(n),
            free: Vec::new(),
            watermark: SimTime::ZERO,
        }
    }

    /// Schedule an event.
    ///
    /// Panics if the event is scheduled in the past relative to the last
    /// popped event — that would mean the simulation violated causality.
    pub fn push(&mut self, key: EventKey, payload: T) {
        assert!(
            key.time >= self.watermark,
            "event scheduled in the past: {:?} < watermark {:?}",
            key.time,
            self.watermark
        );
        #[cfg(test)]
        PUSHES.with(|p| p.set(p.get() + 1));
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = Some(payload);
                s
            }
            None => {
                let s = self.slab.len() as u32;
                self.slab.push(Some(payload));
                s
            }
        };
        self.insert_entry(Entry { key, slot });
    }

    /// Route one entry: in-order keys append to the sorted tail in O(1);
    /// out-of-order keys sift into the 4-ary heap.
    #[inline]
    fn insert_entry(&mut self, e: Entry) {
        if self.tail.back().is_none_or(|b| b.key < e.key) {
            self.tail.push_back(e);
        } else {
            self.entries.push(e);
            self.sift_up(self.entries.len() - 1);
        }
    }

    /// Schedule a whole batch of events at once — the bulk-insert path
    /// behind the sharded executor's window drain.
    ///
    /// Semantically identical to pushing each event in iteration order,
    /// but the causality check runs once per batch (against the batch
    /// minimum) and the heap property is restored with one pass: either
    /// an incremental sift per appended entry, or — when the batch
    /// rivals the heap itself — a single O(n) heapify.
    pub fn push_batch(&mut self, batch: impl IntoIterator<Item = (EventKey, T)>) {
        let batch = batch.into_iter();
        let before = self.entries.len();
        self.tail.reserve(batch.size_hint().0);
        let mut batch_min: Option<EventKey> = None;
        for (key, payload) in batch {
            if batch_min.is_none_or(|m| key < m) {
                batch_min = Some(key);
            }
            #[cfg(test)]
            PUSHES.with(|p| p.set(p.get() + 1));
            let slot = match self.free.pop() {
                Some(s) => {
                    self.slab[s as usize] = Some(payload);
                    s
                }
                None => {
                    let s = self.slab.len() as u32;
                    self.slab.push(Some(payload));
                    s
                }
            };
            // In-order runs (lane drains arrive nearly sorted) append to
            // the tail; stragglers collect in `entries` for one restore
            // pass below.
            if self.tail.back().is_none_or(|b| b.key < key) {
                self.tail.push_back(Entry { key, slot });
            } else {
                self.entries.push(Entry { key, slot });
            }
        }
        let Some(min) = batch_min else {
            return;
        };
        assert!(
            min.time >= self.watermark,
            "event scheduled in the past: {:?} < watermark {:?}",
            min.time,
            self.watermark
        );
        let n = self.entries.len();
        let added = n - before;
        if added == 0 {
            return;
        }
        if added >= n / 2 && n >= 2 {
            // The batch dominates: one bottom-up heapify beats `added`
            // sift-up walks.
            for i in (0..=(n - 2) / ARITY).rev() {
                self.sift_down(i);
            }
        } else {
            // Sifting appended entries up in index order is equivalent to
            // having pushed them one at a time: a sift at index `i` only
            // touches ancestors of `i`, never later appended entries.
            for i in before..n {
                self.sift_up(i);
            }
        }
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(EventKey, T)> {
        let from_tail = match (self.entries.first(), self.tail.front()) {
            (None, None) => return None,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (Some(h), Some(t)) => t.key < h.key,
        };
        let e = if from_tail {
            self.tail.pop_front().expect("tail checked non-empty")
        } else {
            let root = *self.entries.first().expect("heap checked non-empty");
            let last = self.entries.pop().expect("non-empty heap has a last entry");
            if !self.entries.is_empty() {
                self.entries[0] = last;
                self.sift_down(0);
            }
            root
        };
        self.watermark = e.key.time;
        let payload = self.slab[e.slot as usize]
            .take()
            .expect("heap entry pointed at an empty payload slot");
        self.free.push(e.slot);
        Some((e.key, payload))
    }

    /// The smaller of the heap root and the tail front, if any.
    #[inline]
    fn front(&self) -> Option<&Entry> {
        match (self.entries.first(), self.tail.front()) {
            (None, t) => t,
            (h, None) => h,
            (Some(h), Some(t)) => Some(if t.key < h.key { t } else { h }),
        }
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.front().map(|e| e.key.time)
    }

    /// Key of the earliest pending event, if any, without touching the
    /// payload slab.
    #[inline]
    pub(crate) fn peek_key(&self) -> Option<EventKey> {
        self.front().map(|e| e.key)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.entries.len() + self.tail.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.tail.is_empty()
    }

    fn sift_up(&mut self, mut i: usize) {
        let moving = self.entries[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.entries[parent].key <= moving.key {
                break;
            }
            self.entries[i] = self.entries[parent];
            i = parent;
        }
        self.entries[i] = moving;
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.entries.len();
        let moving = self.entries[i];
        loop {
            let first_child = i * ARITY + 1;
            if first_child >= n {
                break;
            }
            let mut best = first_child;
            let end = (first_child + ARITY).min(n);
            for c in first_child + 1..end {
                if self.entries[c].key < self.entries[best].key {
                    best = c;
                }
            }
            if moving.key <= self.entries[best].key {
                break;
            }
            self.entries[i] = self.entries[best];
            i = best;
        }
        self.entries[i] = moving;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(t: u64, a: usize, s: u64) -> EventKey {
        EventKey {
            time: SimTime(t),
            actor: ActorId(a),
            seq: s,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut h = EventHeap::new();
        h.push(key(30, 0, 0), "c");
        h.push(key(10, 0, 1), "a");
        h.push(key(20, 0, 2), "b");
        assert_eq!(h.pop().unwrap().1, "a");
        assert_eq!(h.pop().unwrap().1, "b");
        assert_eq!(h.pop().unwrap().1, "c");
        assert!(h.pop().is_none());
    }

    #[test]
    fn ties_break_by_actor_then_seq() {
        let mut h = EventHeap::new();
        h.push(key(5, 2, 0), "actor2");
        h.push(key(5, 1, 7), "actor1-late");
        h.push(key(5, 1, 3), "actor1-early");
        assert_eq!(h.pop().unwrap().1, "actor1-early");
        assert_eq!(h.pop().unwrap().1, "actor1-late");
        assert_eq!(h.pop().unwrap().1, "actor2");
    }

    #[test]
    fn peek_time_reports_minimum() {
        let mut h = EventHeap::new();
        assert_eq!(h.peek_time(), None);
        h.push(key(42, 0, 0), ());
        h.push(key(7, 1, 0), ());
        assert_eq!(h.peek_time(), Some(SimTime(7)));
        let k = h.peek_key().unwrap();
        assert_eq!((k.time, k.actor), (SimTime(7), ActorId(1)));
        assert_eq!(h.len(), 2);
        assert!(!h.is_empty());
    }

    #[test]
    #[should_panic(expected = "event scheduled in the past")]
    fn rejects_events_in_the_past() {
        let mut h = EventHeap::new();
        h.push(key(10, 0, 0), ());
        let _ = h.pop();
        h.push(key(5, 0, 1), ());
    }

    #[test]
    fn interleaved_push_pop_stays_monotone() {
        let mut h = EventHeap::new();
        h.push(key(1, 0, 0), 1u32);
        h.push(key(5, 0, 1), 5);
        assert_eq!(h.pop().unwrap().0.time, SimTime(1));
        // Scheduling at the watermark (same time as last pop) is allowed.
        h.push(key(1, 1, 0), 1);
        h.push(key(3, 0, 2), 3);
        let mut times = Vec::new();
        while let Some((k, _)) = h.pop() {
            times.push(k.time.as_nanos());
        }
        assert_eq!(times, vec![1, 3, 5]);
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut h = EventHeap::with_capacity(4);
        // Steady-state churn: the slab must not grow past the high-water
        // mark of concurrently pending events.
        for round in 0..1_000u64 {
            h.push(key(round + 1, 0, 2 * round), round);
            h.push(key(round + 1, 1, 2 * round + 1), round);
            assert_eq!(h.pop().unwrap().0.time, SimTime(round + 1));
            assert_eq!(h.pop().unwrap().0.time, SimTime(round + 1));
        }
        assert!(h.is_empty());
        assert!(h.slab.len() <= 2, "slab grew to {}", h.slab.len());
    }

    #[test]
    fn monotone_pushes_bypass_the_sift_path() {
        let mut h = EventHeap::new();
        // Pops at time T proceed in ascending actor order, each scheduling
        // (T+hop, actor): the exact steady-state push pattern. Every key
        // exceeds the previous one, so all land in the O(1) tail.
        for round in 0..4u64 {
            for a in 0..8usize {
                h.push(key(round * 10 + 10, a, round), (round, a));
            }
            for a in 0..8usize {
                assert_eq!(h.pop().unwrap().0.actor, ActorId(a));
            }
        }
        assert_eq!(h.entries.len(), 0, "monotone pushes must not hit the heap");
        assert!(h.is_empty());
    }

    #[test]
    fn out_of_order_pushes_merge_with_the_tail() {
        let mut h = EventHeap::new();
        h.push(key(10, 0, 0), "t10");
        h.push(key(30, 0, 1), "t30"); // tail: [10, 30]
        h.push(key(20, 0, 2), "t20"); // out of order -> heap
        h.push(key(40, 0, 3), "t40"); // tail again
        h.push(key(25, 0, 4), "t25"); // heap again
        assert_eq!(h.len(), 5);
        assert_eq!(h.peek_time(), Some(SimTime(10)));
        let order: Vec<&str> = std::iter::from_fn(|| h.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec!["t10", "t20", "t25", "t30", "t40"]);
    }

    #[test]
    fn batch_push_matches_sequential_pushes() {
        let mut seq = EventHeap::new();
        let mut bat = EventHeap::new();
        let events: Vec<(EventKey, u64)> = (0..50)
            .map(|i| (key((i * 37) % 100 + 1, i as usize % 5, i), i))
            .collect();
        // Pre-populate both, then batch the rest into one and compare.
        for (k, v) in &events[..10] {
            seq.push(*k, *v);
            bat.push(*k, *v);
        }
        for (k, v) in &events[10..] {
            seq.push(*k, *v);
        }
        bat.push_batch(events[10..].iter().copied());
        while let Some(a) = seq.pop() {
            assert_eq!(Some(a), bat.pop());
        }
        assert!(bat.pop().is_none());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut h: EventHeap<()> = EventHeap::new();
        h.push(key(10, 0, 0), ());
        let _ = h.pop();
        h.push_batch(std::iter::empty());
        assert!(h.is_empty());
    }

    #[test]
    #[should_panic(expected = "event scheduled in the past")]
    fn batch_rejects_events_in_the_past() {
        let mut h = EventHeap::new();
        h.push(key(10, 0, 0), ());
        let _ = h.pop();
        h.push_batch([(key(12, 0, 1), ()), (key(5, 0, 2), ())]);
    }

    proptest::proptest! {
        /// Batch insert is observably identical to sequential pushes, at
        /// every split point (exercises both the sift-up and the heapify
        /// restore paths).
        #[test]
        fn prop_batch_equals_sequential(
            events in proptest::collection::vec((1u64..1000, 0usize..8), 0..120),
            split in 0usize..120,
        ) {
            let split = split.min(events.len());
            let mut seq = EventHeap::new();
            let mut bat = EventHeap::new();
            for (i, (t, a)) in events.iter().enumerate() {
                seq.push(key(*t, *a, i as u64), i);
            }
            for (i, (t, a)) in events[..split].iter().enumerate() {
                bat.push(key(*t, *a, i as u64), i);
            }
            bat.push_batch(
                events[split..]
                    .iter()
                    .enumerate()
                    .map(|(j, (t, a))| (key(*t, *a, (split + j) as u64), split + j)),
            );
            let mut a = Vec::new();
            while let Some(e) = seq.pop() { a.push(e); }
            let mut b = Vec::new();
            while let Some(e) = bat.pop() { b.push(e); }
            proptest::prop_assert_eq!(a, b);
        }

        /// Pop order is always non-decreasing in time no matter the push order.
        #[test]
        fn prop_pops_monotone(mut events in proptest::collection::vec((0u64..1000, 0usize..8), 0..200)) {
            let mut h = EventHeap::new();
            for (i, (t, a)) in events.iter().enumerate() {
                h.push(key(*t, *a, i as u64), ());
            }
            let mut last = 0u64;
            while let Some((k, _)) = h.pop() {
                proptest::prop_assert!(k.time.as_nanos() >= last);
                last = k.time.as_nanos();
            }
            events.clear();
        }

        /// The heap pops the exact key-sorted order of what was pushed
        /// (total order, not just time order), interleaved pushes included.
        #[test]
        fn prop_pops_full_sorted_order(events in proptest::collection::vec((0u64..500, 0usize..6), 1..150)) {
            let mut h = EventHeap::new();
            let mut keys: Vec<EventKey> = Vec::new();
            for (i, (t, a)) in events.iter().enumerate() {
                let k = key(*t, *a, i as u64);
                keys.push(k);
                h.push(k, i);
            }
            keys.sort();
            let mut popped = Vec::new();
            while let Some((k, _)) = h.pop() {
                popped.push(k);
            }
            proptest::prop_assert_eq!(popped, keys);
        }
    }
}
