//! Stackless-coroutine virtual-time executor.
//!
//! Benchmark code in this project looks exactly like the paper's worker-role
//! code: ordinary sequential calls such as `queue.put_message(..).await` and
//! `ctx.sleep(Duration::from_secs(1)).await`. Each simulated role instance
//! is a **future** (an [`ActorFn`] body), not an OS thread: the event heap
//! drives polling directly, so a handoff between two actors is a function
//! call instead of a mutex/condvar round-trip.
//!
//! ## Polling discipline
//!
//! The executor is single-threaded and owns all scheduler state — the event
//! heap, per-actor clocks and sequence counters, the model itself — in one
//! `ExecState` behind a `RefCell`. Execution proceeds in two phases:
//!
//! 1. **Launch.** Every actor future is created, then polled once, in
//!    actor-id order, before any event is popped. An actor runs until its
//!    first timed action (`call`/`sleep`), whose future schedules one event
//!    keyed `(time, actor, seq)` on its *first* poll and returns `Pending` —
//!    the exact "submit all first events, then pop" discipline of the
//!    one-at-a-time reference interpreter.
//! 2. **Event loop.** Events pop one at a time in `(time, actor, seq)`
//!    order. A `Deliver`/`Timer` advances the target actor's clock, deposits
//!    the wakeup in its mailbox slot, and polls that actor's future in place
//!    with a no-op waker ([`std::task::Waker::noop`]); the future takes the
//!    mail, runs user code until the next timed action (scheduling the next
//!    event), and returns `Pending` again — or completes. A `sleep` pushes a
//!    `Timer`. A `call` on the caller's home partition whose arrival key
//!    sorts before every pending event — the steady state of a closed loop,
//!    where the caller was just woken by the earliest event — is **served in
//!    place**: the arrival is counted as fired and handed to
//!    [`Model::handle`] at once, so the reply `Deliver` is the call's only
//!    heap event. Any other call pushes an `Arrival`, which the loop hands
//!    to the model when it pops and answers with a `Deliver` at the
//!    completion time. Both routes fire the same keys in the same order.
//!
//! ## Virtual partitions and routing
//!
//! A model may declare that a request addresses a specific **virtual
//! partition** ([`Model::partition_of`]); each actor has a *home* partition
//! (its own, by default). A request to the home partition arrives
//! immediately, exactly as before. A request to a *foreign* partition pays a
//! one-way network leg (`hop`) on the way in and again on the reply — the
//! modeled frontend round trip of the cluster. Crucially this is a property
//! of the **virtual plan** (partition structure + hop), never of physical
//! placement: the serial executor applies the same legs as the sharded
//! executor ([`crate::shard`]), so observable histories are identical at
//! every shard count. The hop doubles as the conservative lookahead window
//! that lets shards run ahead of each other without null messages (see
//! `DESIGN.md`).
//!
//! ## Why this is exact and deterministic
//!
//! * User code between two timed actions consumes **zero virtual time** and
//!   runs to quiescence within a single `poll`, so the only place the clock
//!   advances is the event loop.
//! * Events pop in `(time, actor, seq)` order from the [`EventHeap`]; the
//!   per-actor sequence numbers make that order a pure function of the
//!   simulation history. No wakers, no ready-queues, no host-OS scheduling
//!   anywhere in the loop: the executor fires the same keys in the same
//!   order as the one-at-a-time reference interpreter in this module's
//!   tests, and the sharded executor ([`crate::shard`]) reproduces its
//!   history, so every shard count — and therefore every golden figure
//!   artifact — agrees bit-for-bit.
//! * The cluster model ([`Model::handle`]) sees arrivals in non-decreasing
//!   virtual-time order, which makes analytic `next_free` bookkeeping in the
//!   queueing resources exact (see [`crate::resource`]).
//!
//! ## Invariants
//!
//! * Every `Pending` poll of an actor future has scheduled exactly one
//!   pending event for that actor first (enforced by the `Wait` future):
//!   its `Timer`, its `Arrival`, or — for a call served in place — its reply
//!   `Deliver`. Hence an empty heap with unfinished actors is a genuine
//!   deadlock and panics.
//! * A `call` pre-allocates *two* sequence numbers — the arrival's and the
//!   reply's. The calling actor is blocked until the reply, so nothing else
//!   can allocate for it in between and the keys are identical to
//!   allocating the reply at arrival-processing time; pre-allocation is what
//!   lets a remote shard schedule the reply without touching the caller's
//!   counter.
//! * A panic in an actor body unwinds straight through the executor to the
//!   caller — single-threaded execution needs no cascade-teardown machinery,
//!   and the payload is always the root cause.
//!
//! Per-actor cost is one future instead of an OS thread stack, so
//! simulations scale far past the paper's ~100-worker ceiling. Every run
//! keeps its futures in one contiguous arena: unboxed for the homogeneous
//! [`Simulation::run_workers`] shape, one box each for the heterogeneous
//! [`Simulation::run`]. A `Simulation` is the one-shard case of the sharded
//! executor ([`crate::shard`]): the same function launches, drains and
//! tears down both.

use crate::heap::{EventHeap, EventKey};
use crate::rng::actor_rng;
use crate::shard::{drive, report};
use crate::time::SimTime;
use rand::rngs::SmallRng;
use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

/// Identifies a simulated actor (role instance) within one simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub usize);

/// The simulated world that actors talk to.
///
/// `handle` is invoked by the scheduler when a request *arrives* (in
/// virtual-arrival order) and must return the request's completion time
/// together with its response. Implementations mutate their internal state
/// (storage contents, resource bookkeeping) as a side effect.
///
/// The `Send` supertrait is required by the sharded executor, which moves
/// per-partition sub-models onto shard threads.
pub trait Model: Send {
    /// Request type actors submit via [`ActorCtx::call`].
    type Req: Send;
    /// Response type returned to the actor.
    type Resp: Send;

    /// Process a request arriving at `now` from `actor`; return
    /// `(completion_time, response)` with `completion_time >= now`.
    fn handle(&mut self, now: SimTime, actor: ActorId, req: Self::Req) -> (SimTime, Self::Resp);

    /// The **virtual partition** this request addresses, or `None` for the
    /// calling actor's home partition (the default, and the only answer a
    /// model without partitions ever needs).
    ///
    /// The answer must be a pure function of the request: it decides whether
    /// the cross-partition network legs apply and, on the sharded executor,
    /// which shard processes the arrival. It must therefore be identical on
    /// the whole model and on any sub-model produced by
    /// [`crate::shard::ShardableModel::split`].
    fn partition_of(&self, _req: &Self::Req) -> Option<u32> {
        None
    }
}

/// An event payload.
pub(crate) enum Payload<M: Model> {
    /// A request arriving at the model. `part` is the virtual partition it
    /// addresses; `reply_seq` is the pre-allocated sequence number of the
    /// `Deliver` that will carry the response back to the calling actor
    /// (valid because the caller is blocked until the reply — see the module
    /// invariants).
    Arrival {
        part: u32,
        reply_seq: u64,
        req: M::Req,
    },
    Deliver(M::Resp),
    Timer,
}

/// What the event loop leaves in a woken actor's mailbox slot. The firing
/// time is not carried here: it is already recorded in the actor's clock
/// (`actor_time`) before the actor is polled.
pub(crate) enum Mail<Resp> {
    Response(Resp),
    Timer,
}

/// Routing state for partitioned (and possibly sharded) runs. Absent on
/// plain single-model runs, whose requests all stay on the fast local path.
///
/// The global-indexed tables (`home`, `owner`, `local_rank`) are pure
/// functions of the plan and identical on every shard, so they are built
/// once and `Arc`-shared instead of cloned per shard — at a million actors
/// a per-shard copy would cost megabytes of duplicated, cache-hostile
/// working set.
pub(crate) struct RouteTable<M: Model> {
    /// Each actor's home partition (indexed by **global** actor id).
    pub(crate) home: Arc<Vec<u32>>,
    /// Each actor's dense local index on its owning shard (indexed by
    /// **global** actor id): the rank of the actor among the actors the
    /// owning shard hosts, in ascending global-id order. On the serial
    /// executor (one shard owning everything) this is the identity.
    pub(crate) local_rank: Arc<Vec<u32>>,
    /// partition → local sub-model slot in [`ExecState::models`], or `None`
    /// when the partition is owned by another shard.
    pub(crate) slot: Vec<Option<u32>>,
    /// partition → owning shard.
    pub(crate) owner: Arc<Vec<u32>>,
    /// The shard this executor instance runs (0 on the serial executor,
    /// where every partition is local).
    pub(crate) self_shard: u32,
    /// One-way virtual network leg paid by each direction of a
    /// cross-partition call. Doubles as the conservative lookahead between
    /// shards; `None` forbids cross-partition calls outright.
    pub(crate) hop: Option<Duration>,
    /// Staged cross-shard messages, indexed by destination shard; the
    /// sharded executor flushes these at window barriers. Always empty on
    /// the serial executor.
    pub(crate) outbox: Vec<Vec<(EventKey, Payload<M>)>>,
}

/// All scheduler state, owned by the executor and shared with the per-actor
/// [`ActorCtx`] handles through an `Rc<RefCell<..>>`. Borrows are always
/// transient: the executor drops its borrow before polling an actor, and the
/// [`Wait`] future drops its borrow before returning from `poll`.
///
/// All per-actor vectors are indexed by **dense local** actor index — the
/// store slot of the actor on this executor instance. On the serial
/// executor local index equals global actor id; a shard hosting a quarter
/// of a striped fleet packs its quarter contiguously, so its per-event
/// working set is a quarter of the global arrays rather than a strided
/// walk over all of them ([`RouteTable::local_rank`] maps ids to indices).
pub(crate) struct ExecState<M: Model> {
    pub(crate) heap: EventHeap<Payload<M>>,
    /// Per-actor event sequence counters (tie-break within one instant).
    pub(crate) seq: Vec<u64>,
    /// Per-actor virtual clocks (time of the last wakeup delivered).
    pub(crate) actor_time: Vec<SimTime>,
    /// One slot per actor; the event loop deposits the wakeup here.
    pub(crate) mailbox: Vec<Option<Mail<M::Resp>>>,
    /// Local partition sub-models. Plain runs have exactly one; a shard has
    /// one per owned partition.
    pub(crate) models: Vec<M>,
    pub(crate) route: Option<RouteTable<M>>,
    pub(crate) end_time: SimTime,
    pub(crate) requests: u64,
    /// Total events popped from this executor's heap.
    pub(crate) events: u64,
    /// When recording, every popped event key (sorted + hashed at the end).
    pub(crate) history: Option<Vec<EventKey>>,
}

impl<M: Model> ExecState<M> {
    pub(crate) fn new(
        n: usize,
        models: Vec<M>,
        route: Option<RouteTable<M>>,
        record: bool,
    ) -> Self {
        ExecState {
            // Steady state keeps ≤2 events in flight per actor (one pending
            // wait plus one in-flight reply).
            heap: EventHeap::with_capacity(2 * n),
            seq: vec![0; n],
            actor_time: vec![SimTime::ZERO; n],
            mailbox: (0..n).map(|_| None).collect(),
            models,
            route,
            end_time: SimTime::ZERO,
            requests: 0,
            events: 0,
            history: record.then(Vec::new),
        }
    }

    /// Pop the earliest local event strictly below `horizon` (unbounded when
    /// `None`), recording it in the event count, end time and — when enabled
    /// — the observable history.
    pub(crate) fn pop_due(&mut self, horizon: Option<SimTime>) -> Option<(EventKey, Payload<M>)> {
        if let Some(h) = horizon {
            if self.heap.peek_time().is_some_and(|t| t >= h) {
                return None;
            }
        }
        let (k, payload) = self.heap.pop()?;
        self.record(k);
        Some((k, payload))
    }

    /// Count one fired event in the event total, end time and — when
    /// enabled — the observable history.
    #[inline]
    fn record(&mut self, k: EventKey) {
        self.events += 1;
        self.end_time = k.time;
        if let Some(h) = &mut self.history {
            h.push(k);
        }
    }

    /// Schedule the arrival for a [`ActorCtx::call`]: allocate the arrival
    /// and reply sequence numbers, resolve the target partition, apply the
    /// inbound network leg for a foreign partition, and push either locally
    /// or into the owning shard's outbox. `local` is the caller's dense
    /// local index (its per-actor state); `actor` its global id (the event
    /// key).
    ///
    /// A home-partition arrival that sorts before every pending event is
    /// **served in place** instead: it is exactly the event the loop would
    /// pop next, because nothing runs between an actor returning `Pending`
    /// and the next pop, and every later key the caller can push is larger.
    /// Inside a shard window, foreign events lie at or beyond the horizon,
    /// so the argument holds there too. The arrival still counts as a fired
    /// event, so `events` and the history are those of the heap path.
    pub(crate) fn push_call(&mut self, actor: ActorId, local: usize, home_slot: u32, req: M::Req) {
        let a = local;
        let seq = self.seq[a];
        self.seq[a] += 2;
        let now = self.actor_time[a];
        // `(partition, inbound network leg)` of a foreign-partition call;
        // `None` for the caller's home partition.
        let foreign = match &self.route {
            None => None,
            Some(rt) => self.models[home_slot as usize]
                .partition_of(&req)
                .filter(|&p| p != rt.home[actor.0])
                .map(|p| {
                    let hop = rt.hop.expect(
                        "cross-partition call on a plan with no lookahead hop \
                         (ShardPlan::with_hop)",
                    );
                    (p, hop)
                }),
        };
        let k = EventKey {
            time: foreign.map_or(now, |(_, hop)| now + hop),
            actor,
            seq,
        };
        if foreign.is_none() && self.heap.peek_key().is_none_or(|front| k < front) {
            // The home partition's sub-model is the caller's `home_slot`, on
            // the caller's own shard, and the reply pays no network leg.
            self.record(k);
            let (done, resp) = self.handle(home_slot as usize, k, req);
            let dk = EventKey {
                time: done,
                seq: seq + 1,
                ..k
            };
            self.heap.push(dk, Payload::Deliver(resp));
            return;
        }
        let part = match (&self.route, foreign) {
            (_, Some((p, _))) => p,
            (Some(rt), None) => rt.home[actor.0],
            (None, None) => 0,
        };
        let payload = Payload::Arrival {
            part,
            reply_seq: seq + 1,
            req,
        };
        if let Some(rt) = &mut self.route {
            let dest = *rt
                .owner
                .get(part as usize)
                .unwrap_or_else(|| panic!("partition_of returned out-of-range partition {part}"));
            if dest != rt.self_shard {
                rt.outbox[dest as usize].push((k, payload));
                return;
            }
        }
        self.heap.push(k, payload);
    }

    /// Hand the arrival `k` to local sub-model `slot`; return its completion
    /// time and response.
    #[inline]
    fn handle(&mut self, slot: usize, k: EventKey, req: M::Req) -> (SimTime, M::Resp) {
        self.requests += 1;
        let (done, resp) = self.models[slot].handle(k.time, k.actor, req);
        assert!(
            done >= k.time,
            "model completed a request before it arrived"
        );
        (done, resp)
    }

    /// Schedule a timer `delay` after `actor`'s clock (`local` is the
    /// actor's dense local index).
    pub(crate) fn push_timer(&mut self, actor: ActorId, local: usize, delay: Duration) {
        let k = EventKey {
            time: self.actor_time[local] + delay,
            actor,
            seq: self.seq[local],
        };
        self.seq[local] += 1;
        self.heap.push(k, Payload::Timer);
    }

    /// Hand an arrival to its partition's sub-model and schedule the reply —
    /// locally, or via the outbox when the calling actor lives on another
    /// shard. The reply pays the outbound network leg iff the arrival paid
    /// the inbound one (a foreign-partition call), keeping the timing a pure
    /// function of the virtual plan.
    pub(crate) fn process_arrival(&mut self, k: EventKey, part: u32, reply_seq: u64, req: M::Req) {
        let (slot, cross) = match &self.route {
            None => (0, false),
            Some(rt) => (
                rt.slot[part as usize].expect("arrival for a partition not owned by this shard")
                    as usize,
                part != rt.home[k.actor.0],
            ),
        };
        let (done, resp) = self.handle(slot, k, req);
        let time = if cross {
            done + self
                .route
                .as_ref()
                .and_then(|rt| rt.hop)
                .expect("cross-partition arrival on a plan with no hop")
        } else {
            done
        };
        let dk = EventKey {
            time,
            actor: k.actor,
            seq: reply_seq,
        };
        let dest_local = match &self.route {
            None => true,
            Some(rt) => rt.owner[rt.home[k.actor.0] as usize] == rt.self_shard,
        };
        if dest_local {
            self.heap.push(dk, Payload::Deliver(resp));
        } else {
            let rt = self.route.as_mut().expect("remote reply requires a route");
            let dest = rt.owner[rt.home[k.actor.0] as usize] as usize;
            rt.outbox[dest].push((dk, Payload::Deliver(resp)));
        }
    }
}

/// FNV-1a over a sequence of event keys — the executor-independent
/// fingerprint of an observable history. Callers sort the keys first so the
/// hash is a function of the event *multiset*, not of pop interleaving.
pub(crate) fn fnv1a_keys(keys: &[EventKey]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for k in keys {
        for w in [k.time.as_nanos(), k.actor.0 as u64, k.seq] {
            for b in w.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    h
}

/// The per-executor arena of deterministic actor random streams, indexed by
/// dense local actor index. One allocation per executor instead of one
/// `Rc<RefCell<SmallRng>>` per actor — at a million actors the per-actor
/// boxes were a million launch-time allocations and a pointer chase on
/// every draw.
pub(crate) type RngArena = Rc<RefCell<Vec<SmallRng>>>;

/// Build the RNG arena for the actors with the given **global** ids, in
/// store order. Streams are keyed by the stable global actor id
/// ([`actor_rng`]), never by launch order or placement, so every shard
/// count draws identical per-actor randomness.
pub(crate) fn rng_arena(seed: u64, global_ids: impl Iterator<Item = usize>) -> RngArena {
    Rc::new(RefCell::new(
        global_ids.map(|g| actor_rng(seed, ActorId(g))).collect(),
    ))
}

/// Handle through which an actor body interacts with virtual time.
///
/// Cheap to clone (two `Rc` bumps): clones share the same actor identity,
/// clock, random stream and scheduler state, so an environment wrapper may
/// hold its own copy while the actor body keeps another.
pub struct ActorCtx<M: Model> {
    id: ActorId,
    /// Local slot of this actor's home-partition sub-model (always 0 on
    /// plain runs).
    slot: u32,
    /// Dense local index of this actor on its executor (equals `id.0` on
    /// the serial executor); indexes every per-actor array.
    local: u32,
    rngs: RngArena,
    state: Rc<RefCell<ExecState<M>>>,
}

impl<M: Model> Clone for ActorCtx<M> {
    fn clone(&self) -> Self {
        ActorCtx {
            id: self.id,
            slot: self.slot,
            local: self.local,
            rngs: Rc::clone(&self.rngs),
            state: Rc::clone(&self.state),
        }
    }
}

impl<M: Model> ActorCtx<M> {
    /// Build the context for actor `id` at dense local index `local`.
    pub(crate) fn make(
        id: ActorId,
        slot: u32,
        local: u32,
        rngs: RngArena,
        state: Rc<RefCell<ExecState<M>>>,
    ) -> Self {
        ActorCtx {
            id,
            slot,
            local,
            rngs,
            state,
        }
    }

    /// This actor's id (0-based, dense, global across shards).
    pub fn id(&self) -> ActorId {
        self.id
    }

    /// Current virtual time as observed by this actor.
    pub fn now(&self) -> SimTime {
        self.state.borrow().actor_time[self.local as usize]
    }

    /// Submit a request to the model and wait (in virtual time) until its
    /// response is delivered.
    pub async fn call(&self, req: M::Req) -> M::Resp {
        match (Wait {
            ctx: self,
            pending: Some(Pending::Call(req)),
        })
        .await
        {
            Mail::Response(resp) => resp,
            Mail::Timer => unreachable!("timer wakeup while awaiting response"),
        }
    }

    /// Advance this actor's clock by `d` without doing any work (the paper's
    /// *think time*, and the 1 s back-off before retrying a throttled
    /// operation).
    pub async fn sleep(&self, d: Duration) {
        match (Wait {
            ctx: self,
            pending: Some(Pending::Sleep(d)),
        })
        .await
        {
            Mail::Timer => {}
            Mail::Response(_) => unreachable!("response wakeup while sleeping"),
        }
    }

    /// Run `f` with this actor's deterministic random stream.
    pub fn with_rng<R>(&self, f: impl FnOnce(&mut SmallRng) -> R) -> R {
        f(&mut self.rngs.borrow_mut()[self.local as usize])
    }
}

/// A not-yet-pushed timed action.
enum Pending<M: Model> {
    Call(M::Req),
    Sleep(Duration),
}

/// The one awaitable in the system: on its first poll it schedules the
/// actor's next event and returns `Pending`; when the event loop deposits
/// the wakeup in the actor's mailbox and re-polls, it takes the mail and
/// completes.
struct Wait<'a, M: Model> {
    ctx: &'a ActorCtx<M>,
    pending: Option<Pending<M>>,
}

// `Wait` holds no self-references, and `Pin` never needs to project into the
// payload: the future is safely movable regardless of `M`'s auto traits.
impl<M: Model> Unpin for Wait<'_, M> {}

impl<M: Model> Future for Wait<'_, M> {
    type Output = Mail<M::Resp>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let i = this.ctx.local as usize;
        if let Some(pending) = this.pending.take() {
            let mut st = this.ctx.state.borrow_mut();
            match pending {
                Pending::Call(req) => st.push_call(this.ctx.id, i, this.ctx.slot, req),
                Pending::Sleep(d) => st.push_timer(this.ctx.id, i, d),
            }
            return Poll::Pending;
        }
        match this.ctx.state.borrow_mut().mailbox[i].take() {
            Some(mail) => Poll::Ready(mail),
            // Spurious poll (e.g. via `block_on` on a foreign executor):
            // stay pending until the event loop delivers the wakeup.
            None => Poll::Pending,
        }
    }
}

/// A boxed actor body future.
pub type ActorFuture<'a, R> = Pin<Box<dyn Future<Output = R> + 'a>>;

/// A boxed actor body: receives its context by value, returns a future.
pub type ActorFn<'a, M, R> = Box<dyn FnOnce(ActorCtx<M>) -> ActorFuture<'a, R> + 'a>;

/// Box an async closure into an [`ActorFn`] — sugar for heterogeneous
/// [`Simulation::run`] actor lists:
///
/// ```ignore
/// actors.push(actor(|ctx| async move { ctx.sleep(d).await; 0 }));
/// ```
pub fn actor<'a, M, R, F, Fut>(f: F) -> ActorFn<'a, M, R>
where
    M: Model,
    F: FnOnce(ActorCtx<M>) -> Fut + 'a,
    Fut: Future<Output = R> + 'a,
{
    Box::new(move |ctx| Box::pin(f(ctx)) as ActorFuture<'a, R>)
}

/// The actor futures of one executor instance, stored inline in a single
/// `Vec` and polled by store index — no per-actor box for the homogeneous
/// [`Simulation::run_workers`] shape, exact preallocation, and neighbouring
/// actors' state machines share cache lines. The heterogeneous
/// [`Simulation::run`] stores its boxed [`ActorFuture`]s here too.
///
/// Pin discipline: every future is pushed **before any future is polled**
/// (`push` panics otherwise), the `Vec` is preallocated to its final
/// capacity and never grows afterwards, and completed futures stay in place
/// until the whole store drops. A stored future therefore never moves after
/// its first poll.
pub(crate) struct ArenaStore<F> {
    slots: Vec<F>,
    done: Vec<bool>,
    polled: bool,
}

impl<F: Future> ArenaStore<F> {
    pub(crate) fn with_capacity(n: usize) -> Self {
        ArenaStore {
            slots: Vec::with_capacity(n),
            done: Vec::with_capacity(n),
            polled: false,
        }
    }

    pub(crate) fn push(&mut self, fut: F) {
        assert!(!self.polled, "arena sealed after the first poll");
        assert!(self.slots.len() < self.slots.capacity(), "arena overflow");
        self.slots.push(fut);
        self.done.push(false);
    }

    /// Poll live slot `i`; panics if that actor already finished.
    #[allow(unsafe_code)]
    pub(crate) fn poll(&mut self, i: usize, cx: &mut Context<'_>) -> Poll<F::Output> {
        self.polled = true;
        assert!(
            !self.done[i],
            "wakeup delivered to an actor that already finished"
        );
        // SAFETY: the slot vector reached its final length before any poll
        // (enforced by `push`), within preallocated capacity, and slots are
        // neither removed nor swapped until the store is dropped whole — so
        // the future at `i` never moves between its first poll and its drop.
        let fut = unsafe { Pin::new_unchecked(&mut self.slots[i]) };
        let polled = fut.poll(cx);
        if polled.is_ready() {
            self.done[i] = true;
        }
        polled
    }

    /// Actors that have not finished.
    pub(crate) fn live_count(&self) -> usize {
        self.done.iter().filter(|&&d| !d).count()
    }
}

/// Per-shard lookahead-window statistics from one windowed sharded run.
///
/// Wall-clock-derived metadata, **not** an observable: the adaptive window
/// controller may execute a different number of windows from run to run
/// without perturbing the `(time, actor, seq)` history (see
/// [`crate::shard::WindowTuning`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WindowStats {
    /// Synchronization windows this shard executed.
    pub windows: u64,
    /// Mean lookahead multiple (fraction of the plan's `hop`) across those
    /// windows; 1.0 under fixed tuning.
    pub mean_multiple: f64,
}

/// Outcome of a completed simulation.
pub struct SimReport<M, R> {
    /// The model, with all its end-of-run state and counters.
    pub model: M,
    /// Per-actor results, indexed by actor id.
    pub results: Vec<R>,
    /// Virtual time at which the last event fired.
    pub end_time: SimTime,
    /// Total number of model requests processed.
    pub requests: u64,
    /// Total events fired (arrivals + deliveries + timers).
    pub events: u64,
    /// Events fired per shard; a [`Simulation`] is one shard.
    pub shard_events: Vec<u64>,
    /// Per-shard window statistics, one entry per shard like
    /// `shard_events`: all-zero for a shard that ran without windows — a
    /// free-running shard, a one-shard run, and so every [`Simulation`].
    pub window_stats: Vec<WindowStats>,
    /// FNV-1a fingerprint of the sorted `(time, actor, seq)` history, when
    /// recording was requested — the cross-executor equivalence check.
    pub history_hash: Option<u64>,
}

/// A virtual-time simulation: a model plus a master seed.
pub struct Simulation<M: Model> {
    model: M,
    seed: u64,
    route: Option<RouteTable<M>>,
    record: bool,
}

impl<M: Model> Simulation<M> {
    /// Create a simulation over `model` with deterministic seed `seed`.
    pub fn new(model: M, seed: u64) -> Self {
        Simulation {
            model,
            seed,
            route: None,
            record: false,
        }
    }

    /// Record the `(time, actor, seq)` observable history and report its
    /// fingerprint in [`SimReport::history_hash`]. Costs memory proportional
    /// to the event count; meant for differential tests, not benchmarks.
    pub fn record_history(mut self) -> Self {
        self.record = true;
        self
    }

    /// Attach a routing table (built by `crate::shard::ShardPlan::route`):
    /// the serial executor then applies the same virtual-partition network
    /// legs as the sharded executor, making it the reference schedule for
    /// partitioned models.
    pub(crate) fn with_route(mut self, route: RouteTable<M>) -> Self {
        self.route = Some(route);
        self
    }

    /// Run `n` identical workers (the common benchmark shape: the paper
    /// deploys N copies of the same worker role). The worker futures are
    /// stored unboxed in a contiguous arena.
    ///
    /// `body` is called once per actor to *create* its future before any
    /// future is polled; creation code must not interact with virtual time
    /// (every `ActorCtx` method that can is `async` and therefore runs at
    /// poll time).
    pub fn run_workers<R, F, Fut>(self, n: usize, body: F) -> SimReport<M, R>
    where
        F: Fn(ActorCtx<M>) -> Fut,
        Fut: Future<Output = R>,
    {
        self.launch(n, body)
    }

    /// Run a heterogeneous set of actors (e.g. one web role plus N worker
    /// roles). Actor ids are assigned by position.
    pub fn run<'a, R>(self, actors: Vec<ActorFn<'a, M, R>>) -> SimReport<M, R> {
        let n = actors.len();
        let mut bodies = actors.into_iter();
        self.launch(n, move |ctx| {
            bodies.next().expect("one body per actor")(ctx)
        })
    }

    /// Create actors `0..n` through `make`, in id order, and drive them as
    /// the one shard that owns every partition.
    fn launch<R, Fut: Future<Output = R>>(
        self,
        n: usize,
        make: impl FnMut(ActorCtx<M>) -> Fut,
    ) -> SimReport<M, R> {
        let Simulation {
            model,
            seed,
            route,
            record,
        } = self;
        if let Some(rt) = &route {
            assert_eq!(
                rt.home.len(),
                n,
                "route table sized for a different actor count"
            );
        }
        let state = ExecState::new(n, vec![model], route, record);
        let outcome = drive(state, vec![0], 0..n, seed, make, None);
        report(vec![outcome], |mut models| {
            models.pop().expect("simulation lost its model")
        })
    }
}

/// Drive a future to completion on the calling thread by spin-polling with a
/// no-op waker.
///
/// This is the bridge between the async client API and *live mode*: a
/// future produced against a `LiveEnv`, or any environment whose awaits
/// are immediately ready, completes in a bounded number of polls, so the
/// "spin" never actually spins. Futures that await an [`ActorCtx`] must
/// instead run inside a [`Simulation`]; polling them here would wait
/// forever for an event loop that is not running.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let mut fut = std::pin::pin!(fut);
    let mut cx = Context::from_waker(Waker::noop());
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(v) => return v,
            Poll::Pending => std::thread::yield_now(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// A model that echoes the request after a fixed latency plus FIFO
    /// queueing on a single shared server — or, for requests divisible by a
    /// nonzero `instant_every`, at once, in zero virtual time.
    struct EchoModel {
        server: crate::resource::FifoServer,
        service: Duration,
        instant_every: u32,
        handled: Vec<(u64, usize, u32)>,
    }

    impl Model for EchoModel {
        type Req = u32;
        type Resp = (u32, SimTime);
        fn handle(&mut self, now: SimTime, actor: ActorId, req: u32) -> (SimTime, Self::Resp) {
            self.handled.push((now.as_nanos(), actor.0, req));
            if self.instant_every != 0 && req.is_multiple_of(self.instant_every) {
                return (now, (req, now));
            }
            let (_, end) = self.server.admit(now, self.service);
            (end, (req, end))
        }
    }

    fn echo(service_ms: u64) -> EchoModel {
        EchoModel {
            server: crate::resource::FifoServer::new(),
            service: Duration::from_millis(service_ms),
            instant_every: 0,
            handled: Vec::new(),
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum Step {
        Call(u32),
        SleepUs(u64),
    }

    fn count_steps(programs: &[Vec<Step>]) -> (u64, u64) {
        let calls = programs
            .iter()
            .flatten()
            .filter(|s| matches!(s, Step::Call(_)))
            .count() as u64;
        let total: u64 = programs.iter().map(|p| p.len() as u64).sum();
        (calls, total - calls)
    }

    /// Random step programs as drawn by the proptests: `(is_call, v)` is a
    /// call of `v`, or a sleep of `v * 500` µs.
    fn to_steps(raw: &[Vec<(bool, u32)>]) -> Vec<Vec<Step>> {
        raw.iter()
            .map(|p| {
                p.iter()
                    .map(|&(is_call, v)| {
                        if is_call {
                            Step::Call(v)
                        } else {
                            Step::SleepUs(u64::from(v) * 500)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// What a step-program run observes: the model's arrival trace, each
    /// actor's clock after every step, end time, requests, events and the
    /// history fingerprint.
    type StepTrace = (
        Vec<(u64, usize, u32)>,
        Vec<Vec<u64>>,
        SimTime,
        u64,
        u64,
        Option<u64>,
    );

    /// One actor playing a step program; returns its clock after each step.
    async fn play(ctx: ActorCtx<EchoModel>, prog: Vec<Step>) -> Vec<u64> {
        let mut clocks = Vec::new();
        for step in prog {
            match step {
                Step::Call(v) => {
                    ctx.call(v).await;
                }
                Step::SleepUs(us) => ctx.sleep(Duration::from_micros(us)).await,
            }
            clocks.push(ctx.now().as_nanos());
        }
        clocks
    }

    fn step_trace(r: SimReport<EchoModel, Vec<u64>>) -> StepTrace {
        (
            r.model.handled,
            r.results,
            r.end_time,
            r.requests,
            r.events,
            r.history_hash,
        )
    }

    /// Run step programs as boxed actors (`run`); also returns the number
    /// of events pushed onto the heap.
    fn run_steps(model: EchoModel, programs: &[Vec<Step>]) -> (StepTrace, u64) {
        let actors: Vec<ActorFn<'_, EchoModel, Vec<u64>>> = programs
            .iter()
            .map(|prog| {
                let prog = prog.clone();
                actor(move |ctx: ActorCtx<EchoModel>| play(ctx, prog))
            })
            .collect();
        let pushes = || crate::heap::PUSHES.with(|p| p.get());
        let before = pushes();
        let r = Simulation::new(model, 0).record_history().run(actors);
        let pushed = pushes() - before;
        (step_trace(r), pushed)
    }

    /// Run step programs as unboxed worker futures (`run_workers`).
    fn run_worker_steps(model: EchoModel, programs: &[Vec<Step>]) -> StepTrace {
        let r = Simulation::new(model, 0)
            .record_history()
            .run_workers(programs.len(), |ctx| {
                let prog = programs[ctx.id().0].clone();
                play(ctx, prog)
            });
        step_trace(r)
    }

    /// One-event-at-a-time reference for step programs: every arrival is
    /// pushed onto the heap and popped like any other event.
    fn run_reference(mut model: EchoModel, programs: &[Vec<Step>]) -> StepTrace {
        fn submit(
            programs: &[Vec<Step>],
            a: usize,
            at: SimTime,
            pc: &[usize],
            seq: &mut [u64],
            heap: &mut EventHeap<Payload<EchoModel>>,
        ) {
            let Some(&step) = programs[a].get(pc[a]) else {
                return;
            };
            let s = seq[a];
            let (time, payload) = match step {
                Step::Call(req) => {
                    seq[a] += 2;
                    let reply_seq = s + 1;
                    (
                        at,
                        Payload::Arrival {
                            part: 0,
                            reply_seq,
                            req,
                        },
                    )
                }
                Step::SleepUs(us) => {
                    seq[a] += 1;
                    (at + Duration::from_micros(us), Payload::Timer)
                }
            };
            let key = EventKey {
                time,
                actor: ActorId(a),
                seq: s,
            };
            heap.push(key, payload);
        }
        let n = programs.len();
        let mut heap = EventHeap::new();
        let (mut pc, mut seq) = (vec![0; n], vec![0; n]);
        let mut clocks = vec![Vec::new(); n];
        let (mut end, mut requests, mut keys) = (SimTime::ZERO, 0, Vec::new());
        for a in 0..n {
            submit(programs, a, SimTime::ZERO, &pc, &mut seq, &mut heap);
        }
        while let Some((k, payload)) = heap.pop() {
            end = k.time;
            keys.push(k);
            match payload {
                Payload::Arrival { reply_seq, req, .. } => {
                    requests += 1;
                    let (done, resp) = model.handle(k.time, k.actor, req);
                    let key = EventKey {
                        time: done,
                        seq: reply_seq,
                        ..k
                    };
                    heap.push(key, Payload::Deliver(resp));
                }
                Payload::Deliver(_) | Payload::Timer => {
                    let a = k.actor.0;
                    clocks[a].push(k.time.as_nanos());
                    pc[a] += 1;
                    submit(programs, a, k.time, &pc, &mut seq, &mut heap);
                }
            }
        }
        keys.sort_unstable();
        let events = keys.len() as u64;
        (
            model.handled,
            clocks,
            end,
            requests,
            events,
            Some(fnv1a_keys(&keys)),
        )
    }

    #[test]
    fn closed_loop_call_pushes_only_its_reply() {
        // 128 actors, each a closed loop of calls with a sleep now and then:
        // every arrival sorts before everything pending, so each call puts
        // exactly one event — its reply — on the heap, and each sleep one
        // timer. The arrivals still count as fired events.
        let programs: Vec<Vec<Step>> = (0..128usize)
            .map(|a| {
                (0..12u32)
                    .flat_map(|r| {
                        let think = (a + r as usize).is_multiple_of(4);
                        let sleep = think.then_some(Step::SleepUs(50 + a as u64));
                        sleep.into_iter().chain([Step::Call(r)])
                    })
                    .collect()
            })
            .collect();
        let (calls, sleeps) = count_steps(&programs);
        let (trace, pushed) = run_steps(echo(1), &programs);
        assert_eq!(pushed, calls + sleeps, "heap pushes per call + sleep");
        assert_eq!(trace.4, 2 * calls + sleeps, "events");
        assert_eq!(trace, run_reference(echo(1), &programs));
        // Pinned: any change to event order or keys changes this literal.
        assert_eq!(trace.5, Some(0x87b4_9add_942e_9b58), "history fingerprint");
    }

    #[test]
    fn arrival_behind_an_earlier_key_goes_through_the_heap() {
        // Actor 0 leaves a zero-length timer pending at launch, and every
        // third request is answered in zero virtual time, so its reply sorts
        // before the next actor's arrival at the same instant. Those
        // arrivals must wait their turn in the heap.
        let programs: Vec<Vec<Step>> = (0..6u32)
            .map(|a| {
                let lead = (a == 0).then_some(Step::SleepUs(0));
                let body = (0..9u32).map(move |r| match r % 4 {
                    3 => Step::SleepUs(u64::from(a % 3)),
                    _ => Step::Call(10 * a + r),
                });
                lead.into_iter().chain(body).collect()
            })
            .collect();
        let model = || EchoModel {
            instant_every: 3,
            ..echo(1)
        };
        let (calls, sleeps) = count_steps(&programs);
        let (trace, pushed) = run_steps(model(), &programs);
        assert!(
            pushed > calls + sleeps,
            "no arrival took the heap: {pushed} pushes"
        );
        assert_eq!(trace, run_reference(model(), &programs));
    }

    /// 8 actors sleeping the same durations: their timers collide at
    /// shared instants, and each round's calls arrive together.
    fn colliding_timers() -> Vec<Vec<Step>> {
        (0..8u32)
            .map(|i| {
                vec![
                    Step::SleepUs(1_000),
                    Step::Call(i),
                    Step::SleepUs(1_000),
                    Step::Call(100 + i),
                ]
            })
            .collect()
    }

    #[test]
    fn shared_instants_match_reference() {
        let programs = colliding_timers();
        let trace = run_steps(echo(3), &programs).0;
        assert_eq!(trace, run_reference(echo(3), &programs));
    }

    #[test]
    fn zero_length_sleeps_match_reference() {
        // Zero-length sleeps pile timers onto one instant together with
        // arrivals (4 actors).
        let programs: Vec<Vec<Step>> = (0..4u32)
            .map(|i| {
                vec![
                    Step::SleepUs(0),
                    Step::Call(i),
                    Step::SleepUs(0),
                    Step::SleepUs(0),
                    Step::Call(10 + i),
                ]
            })
            .collect();
        let trace = run_steps(echo(1), &programs).0;
        assert_eq!(trace, run_reference(echo(1), &programs));
    }

    #[test]
    fn workers_match_reference_at_shared_instants() {
        // The colliding-timer programs as unboxed worker futures.
        let programs = colliding_timers();
        let trace = run_worker_steps(echo(3), &programs);
        assert_eq!(trace, run_reference(echo(3), &programs));
    }

    #[test]
    fn sleep_advances_virtual_clock() {
        let sim = Simulation::new(echo(1), 0);
        let report = sim.run_workers(1, |ctx| async move {
            assert_eq!(ctx.now(), SimTime::ZERO);
            ctx.sleep(Duration::from_secs(5)).await;
            assert_eq!(ctx.now(), SimTime::from_secs(5));
            ctx.sleep(Duration::from_millis(1)).await;
            ctx.now()
        });
        assert_eq!(report.results[0], SimTime::from_millis(5_001));
        assert_eq!(report.end_time, SimTime::from_millis(5_001));
        assert_eq!(report.requests, 0);
        assert_eq!(report.events, 2);
        assert_eq!(report.shard_events, vec![2]);
        assert_eq!(report.window_stats, vec![WindowStats::default()]);
    }

    #[test]
    fn call_returns_model_response_and_advances_clock() {
        let sim = Simulation::new(echo(10), 0);
        let report = sim.run_workers(1, |ctx| async move {
            let (val, done) = ctx.call(7).await;
            assert_eq!(val, 7);
            assert_eq!(done, SimTime::from_millis(10));
            assert_eq!(ctx.now(), done);
        });
        assert_eq!(report.requests, 1);
        assert_eq!(report.model.handled, vec![(0, 0, 7)]);
        // One arrival plus one delivery.
        assert_eq!(report.events, 2);
    }

    #[test]
    fn shared_server_queues_concurrent_actors() {
        // Two actors call at t=0; the single server serializes them: one
        // completes at 10 ms, the other at 20 ms.
        let sim = Simulation::new(echo(10), 0);
        let report = sim.run_workers(2, |ctx| async move {
            let (_, done) = ctx.call(ctx.id().0 as u32).await;
            done
        });
        let mut ends: Vec<u64> = report.results.iter().map(|t| t.as_nanos()).collect();
        ends.sort_unstable();
        assert_eq!(
            ends,
            vec![
                SimTime::from_millis(10).as_nanos(),
                SimTime::from_millis(20).as_nanos()
            ]
        );
        // Arrivals were both at t=0, in actor-id order (deterministic ties).
        assert_eq!(report.model.handled, vec![(0, 0, 0), (0, 1, 1)]);
    }

    #[test]
    fn sequential_calls_from_one_actor_pipeline_correctly() {
        let sim = Simulation::new(echo(5), 0);
        let report = sim.run_workers(1, |ctx| async move {
            let mut ends = Vec::new();
            for i in 0..3 {
                let (_, done) = ctx.call(i).await;
                ends.push(done.as_nanos());
            }
            ends
        });
        assert_eq!(
            report.results[0],
            vec![
                SimTime::from_millis(5).as_nanos(),
                SimTime::from_millis(10).as_nanos(),
                SimTime::from_millis(15).as_nanos()
            ]
        );
    }

    #[test]
    fn heterogeneous_actors_via_run() {
        let sim = Simulation::new(echo(1), 0);
        let actors: Vec<ActorFn<'_, EchoModel, u32>> = vec![
            actor(|ctx| async move {
                ctx.sleep(Duration::from_secs(1)).await;
                100
            }),
            actor(|ctx: ActorCtx<EchoModel>| async move { ctx.call(5).await.0 }),
        ];
        let report = sim.run(actors);
        assert_eq!(report.results, vec![100, 5]);
    }

    #[test]
    fn actor_can_finish_without_any_action() {
        let sim = Simulation::new(echo(1), 0);
        let report = sim.run_workers(4, |_ctx| async move { 42u8 });
        assert_eq!(report.results, vec![42; 4]);
        assert_eq!(report.end_time, SimTime::ZERO);
        assert_eq!(report.events, 0);
    }

    #[test]
    fn context_clones_share_clock_and_counters() {
        // An environment wrapper holding its own ActorCtx clone must observe
        // the same virtual clock and call count as the actor body's copy.
        let sim = Simulation::new(echo(2), 0);
        let report = sim.run_workers(1, |ctx| async move {
            let env = ctx.clone();
            env.call(1).await;
            assert_eq!(ctx.now(), env.now());
            ctx.sleep(Duration::from_millis(3)).await;
            assert_eq!(env.now(), ctx.now());
            env.now()
        });
        assert_eq!(report.results[0], SimTime::from_millis(5));
    }

    #[test]
    fn deterministic_across_runs() {
        // Many actors with random think times and calls: the full model
        // trace and all results must be identical across runs.
        let run_once = || {
            let sim = Simulation::new(echo(3), 1234).record_history();
            let report = sim.run_workers(16, |ctx| async move {
                let mut log = Vec::new();
                for i in 0..20 {
                    let think: u64 = ctx.with_rng(|r| r.random_range(0..5_000));
                    ctx.sleep(Duration::from_micros(think)).await;
                    let (_, done) = ctx.call(i).await;
                    log.push(done.as_nanos());
                }
                log
            });
            (
                report.model.handled,
                report.results,
                report.end_time,
                report.history_hash,
            )
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.0, b.0, "model traces differ");
        assert_eq!(a.1, b.1, "actor results differ");
        assert_eq!(a.2, b.2, "end times differ");
        assert!(a.3.is_some(), "history hash missing despite record_history");
        assert_eq!(a.3, b.3, "history hashes differ");
    }

    #[test]
    fn arrivals_reach_model_in_time_order() {
        let sim = Simulation::new(echo(1), 7);
        let report = sim.run_workers(8, |ctx| async move {
            for i in 0..10 {
                let think: u64 = ctx.with_rng(|r| r.random_range(0..2_000));
                ctx.sleep(Duration::from_micros(think)).await;
                ctx.call(i).await;
            }
        });
        let times: Vec<u64> = report.model.handled.iter().map(|h| h.0).collect();
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "arrivals out of order"
        );
        assert_eq!(report.requests, 80);
    }

    #[test]
    fn panicking_actor_propagates_without_deadlock() {
        let sim = Simulation::new(echo(1), 0);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run_workers(3, |ctx| async move {
                if ctx.id().0 == 1 {
                    panic!("boom");
                }
                ctx.sleep(Duration::from_millis(1)).await;
            })
        }));
        assert!(outcome.is_err(), "panic must propagate");
    }

    #[test]
    fn panic_payload_is_the_root_cause_not_the_cascade() {
        let sim = Simulation::new(echo(1), 0);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run_workers(4, |ctx| async move {
                ctx.sleep(Duration::from_millis(1)).await;
                if ctx.id().0 == 2 {
                    panic!("root cause");
                }
                ctx.sleep(Duration::from_secs(1)).await;
            })
        }));
        let payload = match outcome {
            Err(p) => p,
            Ok(_) => panic!("panic must propagate"),
        };
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert_eq!(msg, "root cause");
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn awaiting_beyond_the_last_event_is_a_deadlock() {
        // A future that returns Pending without scheduling anything can
        // never be woken; the executor must call that out, not hang.
        struct Never;
        impl Future for Never {
            type Output = ();
            fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
                Poll::Pending
            }
        }
        let sim = Simulation::new(echo(1), 0);
        sim.run_workers(1, |_ctx| Never);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        /// Arbitrary per-actor programs of sleeps and calls are (a)
        /// deterministic across runs and (b) respect per-actor clock
        /// monotonicity and model-arrival time ordering.
        #[test]
        fn prop_random_programs_deterministic(
            programs in proptest::collection::vec(
                proptest::collection::vec((proptest::bool::ANY, 0u64..3_000), 0..15),
                1..6),
            seed in 0u64..1_000,
        ) {
            let run = |programs: &Vec<Vec<(bool, u64)>>| {
                let sim = Simulation::new(echo(2), seed);
                let actors: Vec<ActorFn<'_, EchoModel, Vec<u64>>> = programs
                    .iter()
                    .cloned()
                    .map(|prog| {
                        actor(move |ctx: ActorCtx<EchoModel>| async move {
                            let mut times = Vec::new();
                            let mut last = ctx.now();
                            for (is_call, arg) in prog {
                                if is_call {
                                    ctx.call(arg as u32).await;
                                } else {
                                    ctx.sleep(Duration::from_micros(arg)).await;
                                }
                                // Per-actor clock monotonicity.
                                assert!(ctx.now() >= last);
                                last = ctx.now();
                                times.push(ctx.now().as_nanos());
                            }
                            times
                        })
                    })
                    .collect();
                let report = sim.run(actors);
                // Model saw arrivals in non-decreasing time order.
                let arrivals: Vec<u64> = report.model.handled.iter().map(|h| h.0).collect();
                assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
                (report.results, report.end_time, report.requests)
            };
            let a = run(&programs);
            let b = run(&programs);
            proptest::prop_assert_eq!(&a.0, &b.0);
            proptest::prop_assert_eq!(a.1, b.1);
            // Total requests equals the number of `call` steps.
            let calls: u64 = programs.iter()
                .flat_map(|p| p.iter())
                .filter(|(is_call, _)| *is_call)
                .count() as u64;
            proptest::prop_assert_eq!(a.2, calls);
        }

        /// The simulation end time equals the latest event fired — never
        /// earlier than any actor's final clock.
        #[test]
        fn prop_end_time_bounds_actor_clocks(
            sleeps in proptest::collection::vec(0u64..5_000, 1..8)
        ) {
            let sim = Simulation::new(echo(1), 3);
            let sleeps2 = sleeps.clone();
            let actors: Vec<ActorFn<'_, EchoModel, SimTime>> = sleeps2
                .into_iter()
                .map(|us| {
                    actor(move |ctx: ActorCtx<EchoModel>| async move {
                        ctx.sleep(Duration::from_micros(us)).await;
                        ctx.call(1).await;
                        ctx.now()
                    })
                })
                .collect();
            let report = sim.run(actors);
            let max_clock = report.results.iter().max().copied().unwrap();
            proptest::prop_assert_eq!(report.end_time, max_clock);
        }

        /// Random step programs reproduce the one-at-a-time reference:
        /// model trace, actor clocks, end time, requests, events and history
        /// fingerprint. Sleeps come from a tiny range so actors often collide
        /// on one instant, and zero-latency replies land among arrivals.
        #[test]
        fn prop_matches_one_at_a_time_reference(
            programs in proptest::collection::vec(
                proptest::collection::vec((proptest::bool::ANY, 0u32..4), 0..12),
                1..7),
            instant_every in 0u32..4,
        ) {
            let programs = to_steps(&programs);
            let model = || EchoModel {
                instant_every,
                ..echo(2)
            };
            proptest::prop_assert_eq!(
                run_steps(model(), &programs).0,
                run_reference(model(), &programs)
            );
        }

        /// The same random programs as unboxed worker futures.
        #[test]
        fn prop_workers_match_one_at_a_time_reference(
            programs in proptest::collection::vec(
                proptest::collection::vec((proptest::bool::ANY, 0u32..4), 0..12),
                1..7),
            instant_every in 0u32..4,
        ) {
            let programs = to_steps(&programs);
            let model = || EchoModel {
                instant_every,
                ..echo(2)
            };
            proptest::prop_assert_eq!(
                run_worker_steps(model(), &programs),
                run_reference(model(), &programs)
            );
        }

        /// Unboxed worker futures (`run_workers`) and boxed actor bodies
        /// (`run`) execute the identical schedule: same results, end time,
        /// event count and observable-history fingerprint.
        #[test]
        fn prop_run_matches_run_workers(
            prog in proptest::collection::vec((proptest::bool::ANY, 0u64..2_000), 0..12),
            n in 1usize..6,
            seed in 0u64..500,
        ) {
            let body = |prog: Vec<(bool, u64)>| move |ctx: ActorCtx<EchoModel>| {
                let prog = prog.clone();
                async move {
                let mut acc = 0u64;
                for (is_call, arg) in prog {
                    if is_call {
                        acc = acc.wrapping_add(ctx.call(arg as u32).await.1.as_nanos());
                    } else {
                        ctx.sleep(Duration::from_micros(arg)).await;
                    }
                }
                acc
            }};
            let arena = Simulation::new(echo(2), seed)
                .record_history()
                .run_workers(n, body(prog.clone()));
            let boxed_actors: Vec<ActorFn<'_, EchoModel, u64>> =
                (0..n).map(|_| actor(body(prog.clone()))).collect();
            let boxed = Simulation::new(echo(2), seed)
                .record_history()
                .run(boxed_actors);
            proptest::prop_assert_eq!(arena.results, boxed.results);
            proptest::prop_assert_eq!(arena.end_time, boxed.end_time);
            proptest::prop_assert_eq!(arena.events, boxed.events);
            proptest::prop_assert_eq!(arena.history_hash, boxed.history_hash);
            proptest::prop_assert_eq!(arena.model.handled, boxed.model.handled);
        }
    }

    #[test]
    fn per_actor_rngs_differ_but_are_reproducible() {
        let draws = |seed| {
            let sim = Simulation::new(echo(1), seed);
            let report =
                sim.run_workers(3, |ctx| async move { ctx.with_rng(|r| r.random::<u64>()) });
            report.results
        };
        let a = draws(5);
        let b = draws(5);
        let c = draws(6);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn block_on_completes_ready_chains() {
        assert_eq!(block_on(async { 1 + 2 }), 3);
        assert_eq!(
            block_on(async {
                let a = std::future::ready(40).await;
                a + std::future::ready(2).await
            }),
            42
        );
    }

    // ------------------------------------------------------------------
    // Virtual-partition routing on the serial executor.
    // ------------------------------------------------------------------

    /// Request `(target_partition, value)`; fixed service time, no queueing.
    struct PartModel {
        service: Duration,
    }

    impl Model for PartModel {
        type Req = (u32, u32);
        type Resp = u32;
        fn handle(&mut self, now: SimTime, _actor: ActorId, req: (u32, u32)) -> (SimTime, u32) {
            (now + self.service, req.1)
        }
        fn partition_of(&self, req: &(u32, u32)) -> Option<u32> {
            Some(req.0)
        }
    }

    fn two_part_route(hop: Option<Duration>) -> RouteTable<PartModel> {
        RouteTable {
            home: Arc::new(vec![0, 1]),
            local_rank: Arc::new(vec![0, 1]),
            slot: vec![Some(0), Some(0)],
            owner: Arc::new(vec![0, 0]),
            self_shard: 0,
            hop,
            outbox: Vec::new(),
        }
    }

    #[test]
    fn home_partition_calls_pay_no_network_leg() {
        let service = Duration::from_millis(3);
        let report = Simulation::new(PartModel { service }, 0)
            .with_route(two_part_route(Some(Duration::from_millis(1))))
            .run_workers(2, |ctx| async move {
                // Each actor addresses its own home partition.
                ctx.call((ctx.id().0 as u32, 9)).await;
                ctx.now()
            });
        assert_eq!(report.results, vec![SimTime::from_millis(3); 2]);
    }

    #[test]
    fn foreign_partition_calls_pay_hop_each_way() {
        let service = Duration::from_millis(3);
        let hop = Duration::from_millis(1);
        let report = Simulation::new(PartModel { service }, 0)
            .with_route(two_part_route(Some(hop)))
            .run_workers(2, |ctx| async move {
                // Actor 0 calls foreign partition 1; actor 1 stays home.
                let target = 1u32;
                ctx.call((target, 9)).await;
                ctx.now()
            });
        // Actor 0: 1 ms in + 3 ms service + 1 ms back = 5 ms.
        // Actor 1 (home = 1): service only.
        assert_eq!(
            report.results,
            vec![SimTime::from_millis(5), SimTime::from_millis(3)]
        );
    }

    #[test]
    #[should_panic(expected = "cross-partition call")]
    fn foreign_partition_call_without_hop_panics() {
        Simulation::new(
            PartModel {
                service: Duration::from_millis(1),
            },
            0,
        )
        .with_route(two_part_route(None))
        .run_workers(2, |ctx| async move {
            ctx.call((1u32.wrapping_sub(ctx.id().0 as u32), 0)).await;
        });
    }

    #[test]
    fn history_hash_is_order_insensitive_fingerprint() {
        // Same multiset of keys in different order hashes identically after
        // the sort performed by the executor.
        let mut a = vec![
            EventKey {
                time: SimTime(5),
                actor: ActorId(1),
                seq: 0,
            },
            EventKey {
                time: SimTime(2),
                actor: ActorId(0),
                seq: 3,
            },
        ];
        let mut b = vec![a[1], a[0]];
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(fnv1a_keys(&a), fnv1a_keys(&b));
        // And the hash is sensitive to the contents.
        let c = [a[0]];
        assert_ne!(fnv1a_keys(&a), fnv1a_keys(&c));
    }
}
