//! Sharded conservative parallel DES executor.
//!
//! The serial coroutine executor ([`crate::runtime::Simulation`]) hits a
//! scaling cliff once the actor population outgrows the cache: one heap, one
//! thread, every event through the same loop. This module shards the event
//! loop across OS threads while reproducing the serial observable history
//! **bit for bit** at every shard count.
//!
//! ## The plan: virtual partitions vs physical shards
//!
//! A [`ShardPlan`] has two independent halves:
//!
//! * **Virtual structure** — every actor has a *home partition*
//!   (`plan.home`), and a request may address a foreign partition
//!   ([`crate::runtime::Model::partition_of`]). A foreign-partition call
//!   pays a one-way network leg (`hop`) inbound and again on the reply —
//!   the modeled frontend round trip. This half determines **all observable
//!   timing**.
//! * **Physical placement** — partitions are assigned to shards
//!   (`plan.placement`); each actor runs on the shard owning its home
//!   partition. This half determines **only which thread fires an event**,
//!   never when.
//!
//!   The serial executor runs the identical virtual structure
//!   ([`Simulation::with_plan`]) with every partition local, so the sharded
//!   run at any shard count replays the same `(time, actor, seq)` event
//!   multiset — checked end-to-end by fingerprint
//!   ([`crate::runtime::SimReport::history_hash`]).
//!
//! The serial executor is the **one-shard case**: one function, `drive`,
//! launches, drains and tears down every executor instance — a whole
//! `Simulation`, or one shard of a [`ShardedSimulation`] — and one function,
//! `report`, merges what they hand back into a [`SimReport`]. A sharded run
//! with one shard, or without a hop, has no windows: each shard drains its
//! heap to empty on its own thread.
//!
//! Per-actor scheduler state is stored **dense per shard**: a shard hosting
//! a quarter of a striped fleet packs its actors contiguously
//! (`RouteTable::local_rank`) instead of striding over
//! global-length arrays, and the global tables it does need (`home`,
//! `owner`, `local_rank`) are built once and `Arc`-shared rather than cloned
//! per shard.
//!
//! ## Conservative synchronization (null-message-free)
//!
//! With lookahead `hop`, shards synchronize in bounded windows — a
//! **single-barrier** round, no null messages, no rollback:
//!
//! 1. **Publish + flush**: each shard publishes its earliest future event —
//!    the minimum over its heap and its staged outbox — into its own slot of
//!    a parity-banked atomic array, then appends each outbox run in bulk to
//!    the per-`(src, dst)` staging lane (one lock per populated shard pair
//!    per window). *(barrier)*
//! 2. **Reduce + drain + process**: every shard reads all published slots,
//!    computing the same global minimum `G`; `G == ∞` means every heap,
//!    outbox and lane is empty and the run is over. Otherwise the shard
//!    bulk-drains its incoming lanes into the heap
//!    ([`crate::heap::EventHeap::push_batch`]) and fires its local events
//!    with `time < G + m·hop`, where `m ≤ 1` is the window multiple chosen
//!    by the [`WindowTuning`] controller. Cross-shard sends stage into the
//!    outbox for the next window's flush.
//!
//! **Why no message can arrive below the horizon:** a cross-shard message is
//! only created while processing an event at time `τ ≥ G`, and both
//! directions of a cross-partition call add `hop`, so its timestamp is
//! `≥ G + hop ≥ G + m·hop` — at or beyond everyone's horizon, for any
//! multiple `m ≤ 1`. Within the window each shard's events are causally
//! closed: they interact only through same-shard state, which the local heap
//! already fires in exact `(time, actor, seq)` order. The union of per-shard
//! schedules therefore equals the serial schedule (full argument in
//! `DESIGN.md` §18).
//!
//! **Why one barrier suffices:**
//!
//! * *Every in-flight message is always accounted for.* A shard publishes
//!   its minimum **including** the staged outbox before flushing it, so at
//!   the barrier each message is counted either by its sender's published
//!   slot or, once drained, by its receiver's heap. `G` can never skip past
//!   an undelivered message.
//! * *Same-window delivery.* The barrier sits between flush and drain, so a
//!   message flushed in window `w` is in its lane before the receiver
//!   drains in window `w` — and its timestamp `≥ G + hop` keeps it beyond
//!   window `w`'s horizon anyway.
//! * *Racing flushes are harmless.* A fast shard may flush window `w+1`
//!   into a lane its receiver is still draining for window `w`; the append
//!   happens under the lane mutex, and an early-drained message (timestamp
//!   beyond the horizon) just waits in the receiver's heap, where the
//!   receiver's own next publish counts it.
//! * *Published minima cannot be overwritten early.* Slots are banked by
//!   window parity: window `w+2`'s publish (the next reuse of bank `w % 2`)
//!   happens after barrier `w+1`, which every shard reaches only after
//!   reading bank `w % 2` for window `w`.
//!
//! The loop terminates when the reduced minimum is `u64::MAX`: every heap
//! and outbox was empty at publish time, and every earlier flush was
//! already drained in its own window, so no event exists anywhere.
//!
//! With no lookahead (`hop == None`) cross-partition calls are forbidden
//! and shards **free-run** to completion with zero synchronization — the
//! embarrassingly-parallel shape of the engine-ladder benchmark, where each
//! actor owns its partition.
//!
//! A panicking shard poisons the window barrier so the remaining shards
//! unwind instead of waiting forever; the earliest-window genuine panic is
//! recorded at the barrier and re-raised as the root cause.

use crate::heap::EventKey;
use crate::runtime::{
    fnv1a_keys, rng_arena, ActorCtx, ActorId, ArenaStore, ExecState, Mail, Model, Payload,
    RouteTable, SimReport, Simulation, WindowStats,
};
use crate::time::SimTime;
use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

/// Shared routing tables, one entry per actor (or partition for the
/// middle table): home partition, partition → owning shard, and each
/// actor's dense local index on its owning shard.
type RouteTables = (Arc<Vec<u32>>, Arc<Vec<u32>>, Arc<Vec<u32>>);

/// A model whose state splits cleanly along partition boundaries.
///
/// Contract: for any request `r` with `partition_of(&r) == Some(p)`, the
/// sub-model for `p` produced by `split` must `handle` `r` exactly as the
/// whole model would — same completion time, same response, same state
/// mutation. That holds precisely when no state is shared across partitions,
/// which is what makes parallel execution exact rather than approximate.
pub trait ShardableModel: Model + Sized {
    /// Consume the model, producing one sub-model per partition (indexed by
    /// partition id).
    fn split(self, partitions: u32) -> Vec<Self>;

    /// Reassemble the whole model from sub-models in partition order, for
    /// end-of-run reporting (metrics merges, audits).
    fn merge(parts: Vec<Self>) -> Self;
}

/// How the windowed executor chooses the per-window lookahead multiple
/// `m ∈ [1/64, 1]` (each window processes events in `[G, G + m·hop)`).
///
/// The multiple trades barrier frequency against per-window lead, and is
/// **never observable**: every in-flight message carries the full `hop` of
/// lookahead regardless of how much of it a window consumes, so any
/// schedule of multiples — fixed, measured, or scripted — replays the
/// identical serial history (pinned by the window-schedule proptest).
#[derive(Clone, Debug, Default)]
pub enum WindowTuning {
    /// Process the full `hop` every window.
    #[default]
    Fixed,
    /// Closed-loop control on the measured barrier-wait fraction of wall
    /// time. A high wait fraction means this shard is outrunning a
    /// straggler — narrowing the multiple bounds its speculative lead so
    /// the shards' virtual clocks stay close and re-balance sooner. A low
    /// fraction means work dominates, so the multiple widens back toward
    /// the full hop to amortize barrier crossings.
    Adaptive {
        /// Barrier-wait fraction to regulate toward: above it the multiple
        /// halves, below half of it the multiple doubles, in between it
        /// holds.
        target: f64,
    },
    /// Cycle through a fixed schedule of multiples (clamped to `[1/64, 1]`);
    /// used by the determinism suite to prove schedule-independence.
    Scripted(Vec<f64>),
}

/// Smallest lookahead multiple the controller will narrow to.
pub(crate) const MIN_WINDOW_MULTIPLE: f64 = 1.0 / 64.0;

/// Per-shard window-multiple controller (see [`WindowTuning`]).
struct WindowAdapter<'a> {
    tuning: &'a WindowTuning,
    multiple: f64,
    script_pos: usize,
    windows: u64,
    sum_multiple: f64,
}

impl<'a> WindowAdapter<'a> {
    fn new(tuning: &'a WindowTuning) -> Self {
        WindowAdapter {
            tuning,
            multiple: 1.0,
            script_pos: 0,
            windows: 0,
            sum_multiple: 0.0,
        }
    }

    /// The lookahead (nanos) for the coming window: `m·hop`, at least 1 ns
    /// so the window always clears the events at exactly `G`, and never
    /// more than `hop`, beyond which the conservative bound is unsound.
    fn lookahead(&mut self, hop_ns: u64) -> u64 {
        if let WindowTuning::Scripted(seq) = self.tuning {
            if !seq.is_empty() {
                self.multiple = seq[self.script_pos % seq.len()].clamp(MIN_WINDOW_MULTIPLE, 1.0);
                self.script_pos += 1;
            }
        }
        self.windows += 1;
        self.sum_multiple += self.multiple;
        ((hop_ns as f64 * self.multiple) as u64).clamp(1, hop_ns.max(1))
    }

    /// Feed back one window's measured barrier wait and drain+process time.
    fn observe(&mut self, wait: Duration, work: Duration) {
        let WindowTuning::Adaptive { target } = *self.tuning else {
            return;
        };
        let total = wait.as_secs_f64() + work.as_secs_f64();
        if total <= 0.0 {
            return;
        }
        let frac = wait.as_secs_f64() / total;
        if frac > target {
            self.multiple = (self.multiple * 0.5).max(MIN_WINDOW_MULTIPLE);
        } else if frac < target * 0.5 {
            self.multiple = (self.multiple * 2.0).min(1.0);
        }
    }

    fn stats(&self) -> WindowStats {
        WindowStats {
            windows: self.windows,
            mean_multiple: if self.windows == 0 {
                0.0
            } else {
                self.sum_multiple / self.windows as f64
            },
        }
    }
}

/// The virtual-partition structure and physical placement of one run.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Number of virtual partitions.
    pub partitions: u32,
    /// Each actor's home partition (length = actor count).
    pub home: Vec<u32>,
    /// Number of physical shards (OS threads).
    pub shards: u32,
    /// Owning shard of each partition (length = `partitions`).
    pub placement: Vec<u32>,
    /// One-way cross-partition network leg; doubles as the conservative
    /// lookahead. `None` forbids cross-partition calls (free-run mode).
    pub hop: Option<Duration>,
    /// Lookahead-multiple policy for windowed runs (never observable).
    pub tuning: WindowTuning,
}

impl ShardPlan {
    /// Everything on one partition and one shard — the plan for fully
    /// coupled models (every storage-account resource shared), where the
    /// differential suite still proves the executor stack end-to-end.
    pub fn colocated(actors: usize) -> Self {
        ShardPlan {
            partitions: 1,
            home: vec![0; actors],
            shards: 1,
            placement: vec![0],
            hop: None,
            tuning: WindowTuning::Fixed,
        }
    }

    /// `partitions` partitions dealt round-robin over `shards` shards, with
    /// actor `a` homed on partition `a % partitions` — the plan for
    /// partition-independent models (one partition per actor stripes the
    /// engine ladder across every core).
    pub fn striped(actors: usize, partitions: u32, shards: u32) -> Self {
        assert!(partitions >= 1, "need at least one partition");
        let home = (0..actors)
            .map(|a| (a % partitions as usize) as u32)
            .collect();
        ShardPlan {
            partitions,
            home,
            shards: 1,
            placement: Vec::new(),
            hop: None,
            tuning: WindowTuning::Fixed,
        }
        .with_shards(shards)
    }

    /// Re-place partitions round-robin over `shards` shards.
    pub fn with_shards(mut self, shards: u32) -> Self {
        assert!(shards >= 1, "need at least one shard");
        self.shards = shards;
        self.placement = (0..self.partitions).map(|p| p % shards).collect();
        self
    }

    /// Set the cross-partition network leg / lookahead window. Must be
    /// positive: the window protocol only makes progress because the horizon
    /// `G + m·hop` lies strictly beyond the global minimum `G`.
    pub fn with_hop(mut self, hop: Duration) -> Self {
        assert!(hop > Duration::ZERO, "lookahead hop must be positive");
        self.hop = Some(hop);
        self
    }

    /// Choose the lookahead-multiple policy for windowed runs.
    pub fn with_window_tuning(mut self, tuning: WindowTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Number of actors this plan schedules.
    pub fn actors(&self) -> usize {
        self.home.len()
    }

    fn validate(&self) {
        assert!(self.partitions >= 1, "need at least one partition");
        assert!(self.shards >= 1, "need at least one shard");
        assert_eq!(
            self.placement.len(),
            self.partitions as usize,
            "placement must cover every partition"
        );
        for (p, &s) in self.placement.iter().enumerate() {
            assert!(s < self.shards, "partition {p} placed on missing shard {s}");
        }
        for (a, &p) in self.home.iter().enumerate() {
            assert!(
                p < self.partitions,
                "actor {a} homed on missing partition {p}"
            );
        }
    }

    /// The `Arc`-shared global routing tables, built once per run: each
    /// actor's home partition, each partition's owning shard, and each
    /// actor's dense local index on its owning shard (its rank among that
    /// shard's actors in ascending global-id order).
    fn shared_tables(&self) -> RouteTables {
        let mut next_rank = vec![0u32; self.shards as usize];
        let mut ranks = vec![0u32; self.home.len()];
        for (a, &h) in self.home.iter().enumerate() {
            let s = self.placement[h as usize] as usize;
            ranks[a] = next_rank[s];
            next_rank[s] += 1;
        }
        (
            Arc::new(self.home.clone()),
            Arc::new(self.placement.clone()),
            Arc::new(ranks),
        )
    }

    /// Routing table for one shard: locally owned partitions get dense slot
    /// indices in ascending partition order (matching the sub-model order
    /// built by [`ShardedSimulation::run_workers`]).
    fn route_for_shard<M: Model>(
        &self,
        shard: u32,
        home: &Arc<Vec<u32>>,
        owner: &Arc<Vec<u32>>,
        local_rank: &Arc<Vec<u32>>,
    ) -> RouteTable<M> {
        let mut slot = vec![None; self.partitions as usize];
        let mut next = 0u32;
        for (p, &s) in self.placement.iter().enumerate() {
            if s == shard {
                slot[p] = Some(next);
                next += 1;
            }
        }
        RouteTable {
            home: Arc::clone(home),
            local_rank: Arc::clone(local_rank),
            slot,
            owner: Arc::clone(owner),
            self_shard: shard,
            hop: self.hop,
            outbox: (0..self.shards).map(|_| Vec::new()).collect(),
        }
    }

    /// Routing table for the serial reference executor: the identical
    /// virtual structure (homes + hop), with every partition mapped to the
    /// single unsplit model and local index = global id.
    fn serial_route<M: Model>(&self) -> RouteTable<M> {
        RouteTable {
            home: Arc::new(self.home.clone()),
            local_rank: Arc::new((0..self.home.len() as u32).collect()),
            slot: vec![Some(0); self.partitions as usize],
            owner: Arc::new(vec![0; self.partitions as usize]),
            self_shard: 0,
            hop: self.hop,
            outbox: Vec::new(),
        }
    }
}

impl<M: Model> Simulation<M> {
    /// Run the serial executor under `plan`'s **virtual** structure (home
    /// partitions and hop legs), ignoring its physical placement. This is
    /// the pinned reference schedule that every sharded run of the same
    /// plan must reproduce bit-for-bit.
    pub fn with_plan(self, plan: &ShardPlan) -> Self {
        plan.validate();
        self.with_route(plan.serial_route())
    }
}

/// Panic payload used to cascade a teardown to shards parked at the window
/// barrier. Kept as a `&'static str` literal so the root cause can be told
/// apart from the cascade when propagating panics to the caller.
const SHARD_DEAD: &str = "simulation terminated: another shard failed";

fn is_cascade(p: &(dyn std::any::Any + Send)) -> bool {
    p.downcast_ref::<&'static str>() == Some(&SHARD_DEAD)
}

/// A reusable barrier that can be poisoned: a panicking shard marks it so
/// every parked (or later-arriving) shard wakes with `Err` and unwinds
/// instead of waiting forever on a participant that will never arrive.
///
/// The barrier also records the **root cause** of a poisoned run: the
/// lexicographically least `(window, shard)` whose guard observed a genuine
/// (non-cascade) panic. Thread join order is unrelated to causal order — a
/// shard ahead of the culprit can observe the poison and finish unwinding
/// first — so the caller asks the barrier, not the join sequence, whose
/// payload to re-raise.
struct PoisonBarrier {
    state: Mutex<BarrierInner>,
    cvar: Condvar,
    n: usize,
    root: Mutex<Option<(u64, u32)>>,
}

struct BarrierInner {
    count: usize,
    generation: u64,
    poisoned: bool,
}

struct Poisoned;

impl PoisonBarrier {
    fn new(n: usize) -> Self {
        PoisonBarrier {
            state: Mutex::new(BarrierInner {
                count: 0,
                generation: 0,
                poisoned: false,
            }),
            cvar: Condvar::new(),
            n,
            root: Mutex::new(None),
        }
    }

    fn wait(&self) -> Result<(), Poisoned> {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if st.poisoned {
            return Err(Poisoned);
        }
        st.count += 1;
        if st.count == self.n {
            st.count = 0;
            st.generation = st.generation.wrapping_add(1);
            self.cvar.notify_all();
            return Ok(());
        }
        let gen = st.generation;
        while st.generation == gen && !st.poisoned {
            st = self.cvar.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        // Generation advancement wins over poison: if the round completed,
        // every waiter proceeds with its window (a fast sibling may have
        // panicked right after release — its poison is caught at the next
        // barrier). Otherwise the round can never complete: unwind now.
        if st.generation == gen {
            Err(Poisoned)
        } else {
            Ok(())
        }
    }

    fn poison(&self) {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.poisoned = true;
        self.cvar.notify_all();
    }

    /// Record a genuine panic at `(window, shard)`, keeping the earliest.
    fn record_root(&self, window: u64, shard: u32) {
        let mut r = self.root.lock().unwrap_or_else(|p| p.into_inner());
        if r.is_none_or(|cur| (window, shard) < cur) {
            *r = Some((window, shard));
        }
    }

    /// The shard whose panic is the run's root cause, if one was recorded.
    fn root_shard(&self) -> Option<u32> {
        self.root
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .map(|(_, shard)| shard)
    }
}

/// Poisons the barrier if the owning shard unwinds, so sibling shards never
/// deadlock on a dead participant, and records the panic's `(window, shard)`
/// as a root-cause candidate — unless disarmed first, which cascade unwinds
/// do so they are never mistaken for the culprit.
struct PoisonGuard<'a> {
    barrier: &'a PoisonBarrier,
    shard: u32,
    window: Cell<u64>,
    armed: Cell<bool>,
}

impl<'a> PoisonGuard<'a> {
    fn new(barrier: &'a PoisonBarrier, shard: u32) -> Self {
        PoisonGuard {
            barrier,
            shard,
            window: Cell::new(0),
            armed: Cell::new(true),
        }
    }

    fn disarm(&self) {
        self.armed.set(false);
    }
}

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            if self.armed.get() {
                self.barrier.record_root(self.window.get(), self.shard);
            }
            self.barrier.poison();
        }
    }
}

/// Events staged for delivery to one shard.
type Staged<M> = Vec<(EventKey, Payload<M>)>;

/// Cross-shard rendezvous state for windowed runs.
pub(crate) struct SyncShared<M: Model> {
    barrier: PoisonBarrier,
    shards: usize,
    /// The plan's lookahead hop, in nanoseconds.
    hop_ns: u64,
    tuning: WindowTuning,
    /// Published per-shard minima, banked by window parity (`2 × shards`
    /// slots): bank `w % 2` serves window `w`, and its next reuse (window
    /// `w + 2`) cannot begin until barrier `w + 1` proves every shard has
    /// finished reading it.
    mins: Vec<AtomicU64>,
    /// Per-`(src, dst)` staging lanes (`shards × shards`, row-major by
    /// source). Bulk-appended by the sender's flush, bulk-drained by the
    /// receiver — one lock per populated shard pair per window, and the
    /// lane buffers keep their capacity across windows.
    lanes: Vec<Mutex<Staged<M>>>,
}

/// Everything one shard needs to run, built on the coordinating thread and
/// moved onto the shard thread.
struct ShardInput<M: Model> {
    me: u32,
    /// Sub-models of locally owned partitions, in ascending partition order.
    models: Vec<M>,
    /// The partition ids matching `models`.
    local_parts: Vec<u32>,
    /// Global ids of locally homed actors, ascending.
    actors: Vec<usize>,
    route: RouteTable<M>,
}

/// What one executor instance hands back for [`report`].
pub(crate) struct ShardOutcome<M, R, A> {
    models: Vec<M>,
    local_parts: Vec<u32>,
    /// Global ids of the hosted actors, in store order.
    actors: A,
    /// Result per hosted actor, in store order; `None` only when the run
    /// is about to fail the deadlock assertion.
    results: Vec<Option<R>>,
    end_time: SimTime,
    requests: u64,
    events: u64,
    history: Option<Vec<EventKey>>,
    blocked: usize,
    window: WindowStats,
}

/// A virtual-time simulation executed across shard threads under a
/// [`ShardPlan`]. Same seed and plan semantics ⇒ identical observables to
/// the serial executor, at every shard count.
pub struct ShardedSimulation<M: ShardableModel> {
    model: M,
    seed: u64,
    plan: ShardPlan,
    record: bool,
}

impl<M: ShardableModel> ShardedSimulation<M> {
    /// Create a sharded simulation over `model` with deterministic `seed`.
    pub fn new(model: M, seed: u64, plan: ShardPlan) -> Self {
        plan.validate();
        ShardedSimulation {
            model,
            seed,
            plan,
            record: false,
        }
    }

    /// Record the `(time, actor, seq)` observable history and report its
    /// merged fingerprint in [`SimReport::history_hash`].
    pub fn record_history(mut self) -> Self {
        self.record = true;
        self
    }

    /// Run one identical worker per plan actor (`plan.actors()` of them).
    ///
    /// `body` must be callable from any shard thread (`Sync`); the futures
    /// it creates live and are polled entirely on one shard thread, so they
    /// need not be `Send`.
    pub fn run_workers<R, F, Fut>(self, body: F) -> SimReport<M, R>
    where
        R: Send,
        F: Fn(ActorCtx<M>) -> Fut + Sync,
        Fut: Future<Output = R>,
    {
        let ShardedSimulation {
            model,
            seed,
            plan,
            record,
        } = self;
        let shards = plan.shards as usize;
        let (home, owner, local_rank) = plan.shared_tables();

        // Split the model and bucket sub-models + actors by owning shard.
        let mut parts: Vec<Option<M>> =
            model.split(plan.partitions).into_iter().map(Some).collect();
        assert_eq!(
            parts.len(),
            plan.partitions as usize,
            "split() returned a wrong partition count"
        );
        let mut inputs: Vec<ShardInput<M>> = (0..shards)
            .map(|s| ShardInput {
                me: s as u32,
                models: Vec::new(),
                local_parts: Vec::new(),
                actors: Vec::new(),
                route: plan.route_for_shard(s as u32, &home, &owner, &local_rank),
            })
            .collect();
        for (p, part) in parts.iter_mut().enumerate() {
            let s = plan.placement[p] as usize;
            inputs[s]
                .models
                .push(part.take().expect("partition placed twice"));
            inputs[s].local_parts.push(p as u32);
        }
        for (a, &home_part) in plan.home.iter().enumerate() {
            inputs[plan.placement[home_part as usize] as usize]
                .actors
                .push(a);
        }

        // One shard, or no hop, means no window: shards free-run.
        let sync = plan.hop.filter(|_| shards > 1).map(|hop| SyncShared {
            barrier: PoisonBarrier::new(shards),
            shards,
            hop_ns: hop.as_nanos() as u64,
            tuning: plan.tuning.clone(),
            mins: (0..2 * shards).map(|_| AtomicU64::new(u64::MAX)).collect(),
            lanes: (0..shards * shards)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
        });
        report(
            run_on_threads(inputs, seed, record, &body, sync.as_ref()),
            M::merge,
        )
    }
}

/// Spawn one scoped thread per shard, join them all, and re-raise the
/// root-cause panic: the earliest `(window, shard)` genuine panic recorded
/// at the barrier, falling back to the first non-cascade payload in shard
/// order for unsynchronized runs.
fn run_on_threads<M, R, F, Fut>(
    inputs: Vec<ShardInput<M>>,
    seed: u64,
    record: bool,
    body: &F,
    sync: Option<&SyncShared<M>>,
) -> Vec<ShardOutcome<M, R, std::vec::IntoIter<usize>>>
where
    M: Model,
    R: Send,
    F: Fn(ActorCtx<M>) -> Fut + Sync,
    Fut: Future<Output = R>,
{
    type Joined<M, R> = (
        u32,
        Result<ShardOutcome<M, R, std::vec::IntoIter<usize>>, Box<dyn std::any::Any + Send>>,
    );
    let joined: Vec<Joined<M, R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .into_iter()
            .map(|input| {
                let ShardInput {
                    me,
                    models,
                    local_parts,
                    actors,
                    route,
                } = input;
                let run = move || {
                    let state = ExecState::new(actors.len(), models, Some(route), record);
                    drive(state, local_parts, actors.into_iter(), seed, body, sync)
                };
                (me, scope.spawn(run))
            })
            .collect();
        handles.into_iter().map(|(me, h)| (me, h.join())).collect()
    });
    let mut outcomes = Vec::with_capacity(joined.len());
    let mut panics: Vec<(u32, Box<dyn std::any::Any + Send>)> = Vec::new();
    for (shard, j) in joined {
        match j {
            Ok(o) => outcomes.push(o),
            Err(p) => panics.push((shard, p)),
        }
    }
    if !panics.is_empty() {
        let root_shard = sync.and_then(|s| s.barrier.root_shard());
        let idx = root_shard
            .and_then(|rs| {
                panics
                    .iter()
                    .position(|(s, p)| *s == rs && !is_cascade(p.as_ref()))
            })
            .or_else(|| panics.iter().position(|(_, p)| !is_cascade(p.as_ref())))
            .unwrap_or(0);
        std::panic::resume_unwind(panics.swap_remove(idx).1);
    }
    outcomes
}

/// Launch, drain and tear down one executor instance: a whole serial
/// [`Simulation`] (the one shard that owns every partition) or one shard
/// of a [`ShardedSimulation`]. `actors` are the global ids of the actors
/// this instance hosts, ascending — their store order — and `make` creates
/// each one's future. Without `sync` the instance drains its heap to empty;
/// with it, window by window.
pub(crate) fn drive<M, R, Fut, A>(
    state: ExecState<M>,
    local_parts: Vec<u32>,
    actors: A,
    seed: u64,
    mut make: impl FnMut(ActorCtx<M>) -> Fut,
    sync: Option<&SyncShared<M>>,
) -> ShardOutcome<M, R, A>
where
    M: Model,
    Fut: Future<Output = R>,
    A: ExactSizeIterator<Item = usize> + Clone,
{
    let n = actors.len();
    // Global id → dense store index, held outside the RefCell so the event
    // loop maps a popped key without borrowing state. A run without a
    // route hosts every actor at its own id.
    let local_rank = state.route.as_ref().map(|rt| Arc::clone(&rt.local_rank));
    let state = Rc::new(RefCell::new(state));
    let rngs = rng_arena(seed, actors.clone());
    let mut store = ArenaStore::with_capacity(n);
    for (li, a) in actors.clone().enumerate() {
        let slot = state.borrow().route.as_ref().map_or(0, |rt| {
            rt.slot[rt.home[a] as usize]
                .expect("actor homed on a partition this shard does not own")
        });
        let ctx = ActorCtx::make(
            ActorId(a),
            slot,
            li as u32,
            Rc::clone(&rngs),
            Rc::clone(&state),
        );
        store.push(make(ctx));
    }

    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut cx = Context::from_waker(Waker::noop());
    // Launch phase: drive every actor to its first timed action (or to
    // completion), in ascending global-id order, before popping any event.
    // Cross-shard first calls land in the outbox and flush in the first
    // window.
    for (li, result) in results.iter_mut().enumerate() {
        if let Poll::Ready(r) = store.poll(li, &mut cx) {
            *result = Some(r);
        }
    }

    // Fire local events strictly below `horizon` (all of them when `None`),
    // one at a time in (time, actor, seq) order: hand an `Arrival` to the
    // model, or deposit a wakeup and poll the target actor.
    let mut drain = |horizon: Option<SimTime>| loop {
        let popped = state.borrow_mut().pop_due(horizon);
        let Some((k, payload)) = popped else { break };
        let mail = match payload {
            Payload::Arrival {
                part,
                reply_seq,
                req,
            } => {
                state.borrow_mut().process_arrival(k, part, reply_seq, req);
                continue;
            }
            Payload::Deliver(resp) => Mail::Response(resp),
            Payload::Timer => Mail::Timer,
        };
        let li = local_rank
            .as_ref()
            .map_or(k.actor.0, |r| r[k.actor.0] as usize);
        {
            let mut st = state.borrow_mut();
            st.actor_time[li] = k.time;
            st.mailbox[li] = Some(mail);
        }
        // The `ExecState` borrow is released: user code inside the future
        // is free to touch the heap, clocks and RNG through its own context.
        if let Poll::Ready(r) = store.poll(li, &mut cx) {
            results[li] = Some(r);
        }
    };
    let window = match sync {
        None => {
            drain(None);
            WindowStats::default()
        }
        Some(sync) => windows(sync, &state, &mut |horizon| drain(Some(horizon))),
    };

    let blocked = store.live_count();
    drop(store);
    let ExecState {
        models,
        route,
        end_time,
        requests,
        events,
        history,
        ..
    } = Rc::try_unwrap(state)
        .ok()
        .expect("actor contexts outlived the simulation")
        .into_inner();
    debug_assert!(
        route.is_none_or(|rt| rt.outbox.iter().all(Vec::is_empty)),
        "shard finished with unsent cross-shard messages"
    );
    ShardOutcome {
        models,
        local_parts,
        actors,
        results,
        end_time,
        requests,
        events,
        history,
        blocked,
        window,
    }
}

/// Run the lookahead-window protocol (module docs) for one shard until no
/// event is left anywhere, firing each window's events through `drain`.
fn windows<M: Model>(
    sync: &SyncShared<M>,
    state: &RefCell<ExecState<M>>,
    drain: &mut dyn FnMut(SimTime),
) -> WindowStats {
    let me = state
        .borrow()
        .route
        .as_ref()
        .expect("shard state always has a route")
        .self_shard;
    let me_us = me as usize;
    let guard = PoisonGuard::new(&sync.barrier, me);
    let mut adapter = WindowAdapter::new(&sync.tuning);
    let mut window: u64 = 0;
    loop {
        guard.window.set(window);
        let bank = (window & 1) as usize * sync.shards;
        // Publish our earliest future event — heap or staged outbox — then
        // flush the outbox in bulk, one lane lock per populated destination.
        {
            let mut st = state.borrow_mut();
            let mut local_min = st.heap.peek_time().map_or(u64::MAX, |t| t.as_nanos());
            let rt = st.route.as_mut().expect("shard state always has a route");
            for msgs in &rt.outbox {
                for (k, _) in msgs.iter() {
                    local_min = local_min.min(k.time.as_nanos());
                }
            }
            sync.mins[bank + me_us].store(local_min, Ordering::Release);
            for (dest, msgs) in rt.outbox.iter_mut().enumerate() {
                if !msgs.is_empty() {
                    sync.lanes[me_us * sync.shards + dest]
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .append(msgs);
                }
            }
        }
        let wait_start = Instant::now();
        if sync.barrier.wait().is_err() {
            guard.disarm();
            std::panic::panic_any(SHARD_DEAD);
        }
        let wait = wait_start.elapsed();
        // Reduce: every shard reads the same parity bank, so all agree on
        // G. (The barrier's lock handoff orders the Release stores above
        // before these Acquire loads.)
        let mut g = u64::MAX;
        for slot in &sync.mins[bank..bank + sync.shards] {
            g = g.min(slot.load(Ordering::Acquire));
        }
        if g == u64::MAX {
            // No event in any heap or outbox, and every earlier flush was
            // drained in its own window: done.
            #[cfg(debug_assertions)]
            for src in 0..sync.shards {
                debug_assert!(
                    sync.lanes[src * sync.shards + me_us]
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .is_empty(),
                    "staging lane not empty at termination"
                );
            }
            return adapter.stats();
        }
        let work_start = Instant::now();
        // Drain incoming lanes in bulk; buffers keep their capacity, so the
        // steady state allocates nothing.
        {
            let mut st = state.borrow_mut();
            for src in 0..sync.shards {
                let mut lane = sync.lanes[src * sync.shards + me_us]
                    .lock()
                    .unwrap_or_else(|p| p.into_inner());
                if !lane.is_empty() {
                    st.heap.push_batch(lane.drain(..));
                }
            }
        }
        // Process strictly below the (possibly narrowed) horizon.
        drain(SimTime(g.saturating_add(adapter.lookahead(sync.hop_ns))));
        adapter.observe(wait, work_start.elapsed());
        window += 1;
    }
}

/// Merge executor-instance outcomes into one report: reassemble the model
/// in partition order through `merge`, scatter results back to global
/// actor ids, sum counters, and fingerprint the merged observable history.
pub(crate) fn report<M, R>(
    outcomes: Vec<ShardOutcome<M, R, impl Iterator<Item = usize>>>,
    merge: impl FnOnce(Vec<M>) -> M,
) -> SimReport<M, R> {
    let blocked: usize = outcomes.iter().map(|o| o.blocked).sum();
    assert!(
        blocked == 0,
        "deadlock: {blocked} live actors blocked with no pending events"
    );
    let n = outcomes.iter().map(|o| o.results.len()).sum();
    let parts_total = outcomes.iter().map(|o| o.models.len()).sum();
    let record = outcomes.iter().any(|o| o.history.is_some());
    let mut parts: Vec<Option<M>> = (0..parts_total).map(|_| None).collect();
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut end_time = SimTime::ZERO;
    let mut requests = 0u64;
    let mut events = 0u64;
    let mut shard_events = Vec::with_capacity(outcomes.len());
    let mut window_stats = Vec::with_capacity(outcomes.len());
    let mut history: Vec<EventKey> = Vec::new();
    for o in outcomes {
        shard_events.push(o.events);
        window_stats.push(o.window);
        events += o.events;
        requests += o.requests;
        end_time = end_time.max(o.end_time);
        for (&p, m) in o.local_parts.iter().zip(o.models) {
            parts[p as usize] = Some(m);
        }
        for (a, r) in o.actors.zip(o.results) {
            results[a] = r;
        }
        if let Some(h) = o.history {
            history.extend(h);
        }
    }
    let model = merge(
        parts
            .into_iter()
            .map(|p| p.expect("partition lost during merge"))
            .collect(),
    );
    let history_hash = record.then(|| {
        history.sort_unstable();
        fnv1a_keys(&history)
    });
    SimReport {
        model,
        results: results
            .into_iter()
            .map(|r| r.expect("actor finished without producing a result"))
            .collect(),
        end_time,
        requests,
        events,
        shard_events,
        window_stats,
        history_hash,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::FifoServer;
    use crate::time::SimTime;
    use rand::Rng;

    /// A partition-separable model: one FIFO server per partition, requests
    /// address a target partition explicitly. Splitting hands each sub-model
    /// the real server of its own partition (the others stay fresh and, by
    /// the routing contract, untouched). Values divisible by a nonzero
    /// `instant_every` are answered in zero virtual time.
    struct PartEcho {
        partitions: u32,
        service: Duration,
        instant_every: u32,
        servers: Vec<FifoServer>,
        handled: Vec<u64>,
    }

    impl PartEcho {
        fn new(partitions: u32, service_us: u64) -> Self {
            PartEcho {
                partitions,
                service: Duration::from_micros(service_us),
                instant_every: 0,
                servers: (0..partitions).map(|_| FifoServer::new()).collect(),
                handled: vec![0; partitions as usize],
            }
        }
    }

    impl Model for PartEcho {
        type Req = (u32, u32);
        type Resp = (u32, SimTime);

        fn handle(
            &mut self,
            now: SimTime,
            _actor: ActorId,
            req: (u32, u32),
        ) -> (SimTime, Self::Resp) {
            let p = req.0 as usize;
            self.handled[p] += 1;
            if self.instant_every != 0 && req.1.is_multiple_of(self.instant_every) {
                return (now, (req.1, now));
            }
            let (_, end) = self.servers[p].admit(now, self.service);
            (end, (req.1, end))
        }

        fn partition_of(&self, req: &(u32, u32)) -> Option<u32> {
            Some(req.0)
        }
    }

    impl ShardableModel for PartEcho {
        fn split(mut self, partitions: u32) -> Vec<Self> {
            assert_eq!(partitions, self.partitions, "plan/model partition mismatch");
            (0..partitions as usize)
                .map(|p| {
                    let mut servers: Vec<FifoServer> =
                        (0..partitions).map(|_| FifoServer::new()).collect();
                    std::mem::swap(&mut servers[p], &mut self.servers[p]);
                    let mut handled = vec![0; partitions as usize];
                    handled[p] = self.handled[p];
                    PartEcho {
                        partitions,
                        service: self.service,
                        instant_every: self.instant_every,
                        servers,
                        handled,
                    }
                })
                .collect()
        }

        fn merge(parts: Vec<Self>) -> Self {
            let partitions = parts.len() as u32;
            let (service, instant_every) = (parts[0].service, parts[0].instant_every);
            let mut servers = Vec::with_capacity(parts.len());
            let mut handled = Vec::with_capacity(parts.len());
            for (p, mut part) in parts.into_iter().enumerate() {
                servers.push(std::mem::take(&mut part.servers[p]));
                handled.push(part.handled[p]);
            }
            PartEcho {
                partitions,
                service,
                instant_every,
                servers,
                handled,
            }
        }
    }

    type Obs = Vec<(u32, u64)>;

    /// The workload used by the differential tests: a deterministic mix of
    /// home and cross-partition calls, sleeps, and RNG draws, observed as
    /// `(value, completion_nanos)` pairs.
    fn mixed_body(
        partitions: u32,
        rounds: u32,
    ) -> impl Fn(ActorCtx<PartEcho>) -> std::pin::Pin<Box<dyn Future<Output = Obs>>> + Sync {
        move |ctx: ActorCtx<PartEcho>| {
            Box::pin(async move {
                let me = ctx.id().0 as u32;
                let home = me % partitions;
                let mut out = Vec::new();
                for i in 0..rounds {
                    // Cycle through every partition, starting at home.
                    let target = (home + i) % partitions;
                    let jitter: u64 = ctx.with_rng(|r| r.random_range(0..50));
                    ctx.sleep(Duration::from_micros(jitter)).await;
                    let (v, done) = ctx.call((target, me * 1000 + i)).await;
                    out.push((v, done.as_nanos()));
                }
                out
            })
        }
    }

    fn report_fingerprint(
        r: &SimReport<PartEcho, Obs>,
    ) -> (Vec<Obs>, u64, u64, Vec<u64>, Option<u64>) {
        (
            r.results.clone(),
            r.end_time.as_nanos(),
            r.requests,
            r.model.handled.clone(),
            r.history_hash,
        )
    }

    /// The pinned reference: serial executor under the plan's virtual
    /// structure.
    fn serial_reference(
        plan: &ShardPlan,
        actors: usize,
        partitions: u32,
        rounds: u32,
    ) -> SimReport<PartEcho, Obs> {
        Simulation::new(PartEcho::new(partitions, 300), 7)
            .with_plan(plan)
            .record_history()
            .run_workers(actors, mixed_body(partitions, rounds))
    }

    fn sharded(plan: ShardPlan, partitions: u32, rounds: u32) -> SimReport<PartEcho, Obs> {
        let actors = plan.actors();
        assert_eq!(actors, plan.home.len());
        ShardedSimulation::new(PartEcho::new(partitions, 300), 7, plan)
            .record_history()
            .run_workers(mixed_body(partitions, rounds))
    }

    #[test]
    fn single_shard_matches_serial() {
        let plan = ShardPlan::striped(6, 3, 1).with_hop(Duration::from_millis(1));
        let serial = serial_reference(&plan, 6, 3, 8);
        let shd = sharded(plan, 3, 8);
        assert_eq!(report_fingerprint(&serial), report_fingerprint(&shd));
        assert_eq!(shd.shard_events, vec![shd.events]);
    }

    #[test]
    fn windowed_multi_shard_matches_serial_bit_for_bit() {
        let partitions = 4;
        let actors = 8;
        let rounds = 10;
        let base = ShardPlan::striped(actors, partitions, 1).with_hop(Duration::from_millis(1));
        let serial = serial_reference(&base, actors, partitions, rounds);
        // Pinned: any change to event order or keys changes this literal.
        assert_eq!(
            serial.history_hash,
            Some(0x4e36_a948_575f_921f),
            "history fingerprint"
        );
        for shards in [2u32, 4] {
            let shd = sharded(base.clone().with_shards(shards), partitions, rounds);
            assert_eq!(
                report_fingerprint(&serial),
                report_fingerprint(&shd),
                "observables diverged at {shards} shards"
            );
            assert_eq!(shd.shard_events.len(), shards as usize);
            assert_eq!(shd.shard_events.iter().sum::<u64>(), serial.events);
            assert!(shd.history_hash.is_some());
        }
    }

    #[test]
    fn window_tuning_never_changes_observables() {
        // Fixed, adaptive and scripted multiples must replay the identical
        // serial schedule — the multiple only decides how much of the
        // lookahead each window consumes, never event timing.
        let partitions = 4;
        let actors = 8;
        let rounds = 6;
        let base = ShardPlan::striped(actors, partitions, 1).with_hop(Duration::from_millis(1));
        let serial = serial_reference(&base, actors, partitions, rounds);
        for tuning in [
            WindowTuning::Fixed,
            WindowTuning::Adaptive { target: 0.25 },
            WindowTuning::Scripted(vec![1.0, 0.25, MIN_WINDOW_MULTIPLE, 0.5]),
        ] {
            let shd = sharded(
                base.clone()
                    .with_shards(2)
                    .with_window_tuning(tuning.clone()),
                partitions,
                rounds,
            );
            assert_eq!(
                report_fingerprint(&serial),
                report_fingerprint(&shd),
                "observables diverged under {tuning:?}"
            );
        }
    }

    #[test]
    fn windowed_run_reports_window_stats() {
        let plan = ShardPlan::striped(8, 4, 2).with_hop(Duration::from_millis(1));
        let shd = sharded(plan, 4, 6);
        assert_eq!(shd.window_stats.len(), 2);
        for w in &shd.window_stats {
            assert!(w.windows > 0, "windowed shard ran zero windows");
            assert!(
                (w.mean_multiple - 1.0).abs() < 1e-9,
                "fixed tuning must hold the full multiple"
            );
        }
        // The serial executor is one shard that ran without windows.
        let base = ShardPlan::striped(8, 4, 1).with_hop(Duration::from_millis(1));
        let serial = serial_reference(&base, 8, 4, 6);
        assert_eq!(serial.window_stats, vec![WindowStats::default()]);
    }

    #[test]
    fn adapter_narrows_under_barrier_heavy_load_and_recovers() {
        let tuning = WindowTuning::Adaptive { target: 0.25 };
        let mut ad = WindowAdapter::new(&tuning);
        let hop = 1_000_000u64;
        assert_eq!(ad.lookahead(hop), hop);
        // Barrier wait dominating the window → the multiple halves…
        ad.observe(Duration::from_millis(9), Duration::from_millis(1));
        assert_eq!(ad.lookahead(hop), hop / 2);
        // …and keeps halving down to the floor.
        for _ in 0..10 {
            ad.observe(Duration::from_millis(9), Duration::from_millis(1));
        }
        assert_eq!(ad.lookahead(hop), (hop as f64 * MIN_WINDOW_MULTIPLE) as u64);
        // Work-dominated windows widen back to the full hop.
        for _ in 0..10 {
            ad.observe(Duration::from_millis(1), Duration::from_millis(99));
        }
        assert_eq!(ad.lookahead(hop), hop);
        // Inside the deadband the multiple holds steady.
        ad.observe(Duration::from_millis(2), Duration::from_millis(8));
        assert_eq!(ad.lookahead(hop), hop);
        let stats = ad.stats();
        assert_eq!(stats.windows, 5);
        assert!(stats.mean_multiple > 0.0 && stats.mean_multiple <= 1.0);
    }

    #[test]
    fn adapter_lookahead_never_leaves_bounds() {
        let tuning = WindowTuning::Scripted(vec![0.0, 10.0, -3.0, 0.5]);
        let mut ad = WindowAdapter::new(&tuning);
        let hop = 1_000u64;
        for _ in 0..8 {
            let la = ad.lookahead(hop);
            assert!((1..=hop).contains(&la), "lookahead {la} out of bounds");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]
        /// Any schedule of window multiples — including degenerate and
        /// out-of-range ones — reproduces the serial observable history
        /// bit-for-bit at every shard count.
        #[test]
        fn prop_any_window_schedule_matches_serial(
            raw in proptest::collection::vec(0u32..160, 1..10),
            shards in 2u32..5,
        ) {
            let multiples: Vec<f64> = raw.iter().map(|&v| v as f64 / 64.0).collect();
            let partitions = 4;
            let actors = 8;
            let rounds = 5;
            let base =
                ShardPlan::striped(actors, partitions, 1).with_hop(Duration::from_millis(1));
            let serial = serial_reference(&base, actors, partitions, rounds);
            let shd = sharded(
                base.with_shards(shards)
                    .with_window_tuning(WindowTuning::Scripted(multiples)),
                partitions,
                rounds,
            );
            proptest::prop_assert_eq!(report_fingerprint(&serial), report_fingerprint(&shd));
        }
    }

    #[test]
    fn zero_latency_replies_match_serial_at_every_shard_count() {
        // Every third request completes in zero virtual time. Each actor
        // opens with such a call, so at launch the first actor's reply sorts
        // before the other actors' arrivals at the same instant: the case in
        // which an arrival must not be served in place. Any shard count and
        // window tuning must still replay the serial history.
        let (partitions, actors, rounds) = (4, 8, 8);
        let model = || PartEcho {
            instant_every: 3,
            ..PartEcho::new(partitions, 300)
        };
        let body = move |ctx: ActorCtx<PartEcho>| async move {
            let me = ctx.id().0 as u32;
            let (v, done) = ctx.call((me % partitions, 3 * me)).await;
            let mut out = vec![(v, done.as_nanos())];
            out.extend(mixed_body(partitions, rounds)(ctx).await);
            out
        };
        let base = ShardPlan::striped(actors, partitions, 1).with_hop(Duration::from_millis(1));
        let serial = Simulation::new(model(), 7)
            .with_plan(&base)
            .record_history()
            .run_workers(actors, body);
        for tuning in [WindowTuning::Fixed, WindowTuning::Adaptive { target: 0.25 }] {
            for shards in [1u32, 2, 4] {
                let plan = base
                    .clone()
                    .with_shards(shards)
                    .with_window_tuning(tuning.clone());
                let shd = ShardedSimulation::new(model(), 7, plan)
                    .record_history()
                    .run_workers(body);
                assert_eq!(
                    report_fingerprint(&serial),
                    report_fingerprint(&shd),
                    "observables diverged at {shards} shards under {tuning:?}"
                );
                assert_eq!(shd.events, serial.events);
            }
        }
    }

    #[test]
    fn free_run_striped_matches_serial() {
        // One partition per actor and home-only calls: embarrassingly
        // parallel, no hop, no barriers.
        let actors = 8;
        let partitions = actors as u32;
        let base = ShardPlan::striped(actors, partitions, 1);
        let body = |ctx: ActorCtx<PartEcho>| async move {
            let home = ctx.id().0 as u32;
            let mut acc = 0u64;
            for i in 0..20u32 {
                let (v, done) = ctx.call((home, i)).await;
                acc = acc
                    .wrapping_mul(31)
                    .wrapping_add(v as u64 + done.as_nanos());
            }
            acc
        };
        let serial = Simulation::new(PartEcho::new(partitions, 300), 7)
            .with_plan(&base)
            .record_history()
            .run_workers(actors, body);
        let shd = ShardedSimulation::new(PartEcho::new(partitions, 300), 7, base.with_shards(4))
            .record_history()
            .run_workers(body);
        assert_eq!(serial.results, shd.results);
        assert_eq!(serial.end_time, shd.end_time);
        assert_eq!(serial.history_hash, shd.history_hash);
        assert_eq!(serial.model.handled, shd.model.handled);
        assert_eq!(shd.shard_events.len(), 4);
    }

    #[test]
    fn colocated_plan_with_idle_shards_matches_serial() {
        // One partition, many shards: shards 1..3 own nothing and idle
        // through the window protocol without perturbing the schedule.
        let actors = 5;
        let plan = ShardPlan {
            partitions: 1,
            home: vec![0; actors],
            shards: 1,
            placement: vec![0],
            hop: None,
            tuning: WindowTuning::Fixed,
        }
        .with_shards(4)
        .with_hop(Duration::from_millis(2));
        let serial = serial_reference(&plan, actors, 1, 6);
        let shd = sharded(plan, 1, 6);
        assert_eq!(report_fingerprint(&serial), report_fingerprint(&shd));
        // All events fired on shard 0.
        assert_eq!(shd.shard_events[1..], [0, 0, 0]);
    }

    #[test]
    fn colocated_constructor_is_serial() {
        let plan = ShardPlan::colocated(3);
        assert_eq!((plan.partitions, plan.shards), (1, 1));
        let serial = serial_reference(&plan, 3, 1, 4);
        let shd = sharded(plan, 1, 4);
        assert_eq!(report_fingerprint(&serial), report_fingerprint(&shd));
    }

    #[test]
    #[should_panic(expected = "boom on shard 1")]
    fn panic_in_one_shard_propagates_root_cause() {
        let plan = ShardPlan::striped(4, 4, 2).with_hop(Duration::from_millis(1));
        ShardedSimulation::new(PartEcho::new(4, 300), 7, plan).run_workers(
            |ctx: ActorCtx<PartEcho>| async move {
                let home = ctx.id().0 as u32 % 4;
                for i in 0..5u32 {
                    ctx.call(((home + i) % 4, i)).await;
                    if ctx.id().0 == 1 && i == 3 {
                        panic!("boom on shard 1");
                    }
                }
            },
        );
    }

    #[test]
    #[should_panic(expected = "boom from shard 0")]
    fn double_panic_selects_lowest_window_then_lowest_shard() {
        // Both shards panic genuinely in the same window: their timers fire
        // at the same virtual time, and the barrier releases both threads
        // into the processing phase together. The barrier must pick the
        // lexicographically least (window, shard) root — shard 0 —
        // regardless of which thread unwinds or joins first.
        let plan = ShardPlan::striped(2, 2, 2).with_hop(Duration::from_millis(1));
        ShardedSimulation::new(PartEcho::new(2, 300), 7, plan).run_workers(
            |ctx: ActorCtx<PartEcho>| async move {
                ctx.sleep(Duration::from_micros(10)).await;
                panic!("boom from shard {}", ctx.id().0 % 2);
            },
        );
    }

    #[test]
    #[should_panic(expected = "deadlock: 1 live actors blocked")]
    fn sharded_deadlock_is_detected() {
        let plan = ShardPlan::striped(4, 4, 2).with_hop(Duration::from_millis(1));
        ShardedSimulation::new(PartEcho::new(4, 300), 7, plan).run_workers(
            |ctx: ActorCtx<PartEcho>| async move {
                if ctx.id().0 == 2 {
                    std::future::pending::<()>().await;
                }
                ctx.call((ctx.id().0 as u32 % 4, 1)).await;
            },
        );
    }

    #[test]
    #[should_panic(expected = "cross-partition call on a plan with no lookahead hop")]
    fn free_run_forbids_cross_partition_calls() {
        let plan = ShardPlan::striped(4, 4, 2);
        ShardedSimulation::new(PartEcho::new(4, 300), 7, plan).run_workers(
            |ctx: ActorCtx<PartEcho>| async move {
                let other = (ctx.id().0 as u32 + 1) % 4;
                ctx.call((other, 0)).await;
            },
        );
    }

    #[test]
    #[should_panic(expected = "lookahead hop must be positive")]
    fn zero_hop_is_rejected() {
        let _ = ShardPlan::striped(4, 4, 2).with_hop(Duration::ZERO);
    }

    #[test]
    fn rng_streams_are_identical_at_every_shard_count() {
        // Random draws are keyed by stable actor id, so the same seed gives
        // the same per-actor draws regardless of placement.
        let draws = |shards: u32| -> Vec<u64> {
            let plan = ShardPlan::striped(8, 8, shards);
            ShardedSimulation::new(PartEcho::new(8, 300), 99, plan)
                .run_workers(|ctx: ActorCtx<PartEcho>| async move {
                    ctx.call((ctx.id().0 as u32, 0)).await;
                    ctx.with_rng(|r| r.random::<u64>())
                })
                .results
        };
        let one = draws(1);
        assert_eq!(one, draws(2));
        assert_eq!(one, draws(4));
    }
}
