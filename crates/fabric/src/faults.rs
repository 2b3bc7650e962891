//! Deterministic, seeded fault injection for the simulated cluster.
//!
//! A [`FaultPlan`] describes *when and where* the cluster misbehaves:
//!
//! * **scheduled** events — partition-server crashes with a failover
//!   window ([`ServerCrash`]), per-partition transient unavailability
//!   ([`PartitionBlackout`]), and cluster-wide `ServerBusy` storms
//!   ([`BusyStorm`]) — are pure time windows, reproduced identically on
//!   every run;
//! * **probabilistic** events — request drops, lost acks and replica-sync
//!   stalls — are keyed off a counter-hash stream derived from the plan's
//!   seed: the fate of the *n*-th request is a pure function of
//!   `(seed, n)`, so probabilistic faults replay identically under any
//!   schedule (editing a crash window does not reshuffle the drops).
//!
//! The default plan is **inert**: every list empty, every probability
//! zero. An inert plan is never consulted beyond one boolean check and
//! draws no randomness, so enabling the subsystem does not perturb
//! baseline (paper-reproduction) runs in any way.
//!
//! # Outcome ambiguity
//!
//! Faults surface to clients in two fundamentally different shapes:
//!
//! * **clean rejections** — `ServerBusy` (storms) and `ServerFault`
//!   (crash/blackout windows): the server answered, the operation did
//!   *not* execute, retrying is always safe;
//! * **ambiguous losses** — `Timeout`: the client's wait expired and it
//!   cannot know whether the operation executed. A *request* loss
//!   ([`FaultDecision::Drop`], probability [`FaultPlan::timeout_prob`])
//!   never executed; an *ack* loss ([`FaultDecision::AckLoss`],
//!   probability [`FaultPlan::ack_loss_prob`]) executed server-side and
//!   only the response vanished — the classic duplicate-on-retry case.
//!   A crash window can also cut the ack of a replicated write that was
//!   in flight when the server died ([`FaultInjector::ack_cut_by_crash`]).
//!   Both losses look identical to the client; only the verification
//!   layer (`crate::verify`) sees the ground truth.

use azsim_core::rng::derive_seed;
use azsim_core::SimTime;
use azsim_storage::{OpClass, PartitionKey};
use std::time::Duration;

/// RNG stream id for fault decisions (distinct from the cluster's other
/// streams, which derive from `ClusterParams::seed`).
const FAULT_STREAM: u64 = 0xFA17;

/// Per-request draw tags: each probabilistic fault kind owns a child
/// stream of `FAULT_STREAM` so its draws are independent of the others.
const DROP_DRAW: u64 = 1;
const ACK_DRAW: u64 = 2;
const STALL_DRAW: u64 = 3;

/// One partition-server crash: every partition placed on `server` is
/// unavailable for `failover` after `at` (WAS reassigns its partitions to
/// other servers; the window models reload + replay).
#[derive(Clone, Debug, PartialEq)]
pub struct ServerCrash {
    /// Index of the crashed server (`PartitionKey::server_index`).
    pub server: usize,
    /// Crash instant.
    pub at: SimTime,
    /// How long the partitions stay unavailable.
    pub failover: Duration,
}

/// One partition's transient unavailability window (e.g. a partition
/// being moved, or its log being sealed).
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionBlackout {
    /// The affected partition.
    pub partition: PartitionKey,
    /// Window start.
    pub at: SimTime,
    /// Window length.
    pub duration: Duration,
}

/// A window during which every data-plane request is rejected with
/// `ServerBusy` regardless of the token buckets — an injected throttle
/// storm, as seen during cluster-wide load spikes.
#[derive(Clone, Debug, PartialEq)]
pub struct BusyStorm {
    /// Window start.
    pub at: SimTime,
    /// Window length.
    pub duration: Duration,
    /// Retry hint returned with the injected rejections.
    pub retry_after: Duration,
}

/// A complete fault schedule for one run. Construct with struct-update
/// syntax over [`FaultPlan::default`], which is inert.
///
/// # Window convention
///
/// Every scheduled window is **half-open**: a window starting at `at`
/// with length `d` affects requests arriving in `[at, at + d)` and a
/// request arriving at exactly `at + d` is served normally. The
/// `retry_after` hint returned from inside a window is the time remaining
/// until `at + d`, so a client that sleeps exactly the hinted duration
/// lands on the first served instant — hints and the error window agree
/// at the boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault draw stream (independent of the workload seed so
    /// fault sequences can be varied while the workload is held fixed).
    pub seed: u64,
    /// Scheduled server crashes.
    pub crashes: Vec<ServerCrash>,
    /// Whether a crash that begins while a replicated write is still
    /// syncing cuts the write's ack (the operation executed but the
    /// client observes a timeout — an *ambiguous* outcome). Off by
    /// default: plain crash plans keep the unambiguous `ServerFault`
    /// contract, under which blind retries are always safe.
    pub crash_cuts_acks: bool,
    /// Scheduled per-partition blackouts.
    pub blackouts: Vec<PartitionBlackout>,
    /// Scheduled throttle storms.
    pub busy_storms: Vec<BusyStorm>,
    /// Probability that a data-plane request is dropped (client observes a
    /// timeout; the operation never executes).
    pub timeout_prob: f64,
    /// The client-side wait modeled for a dropped request or lost ack.
    pub timeout: Duration,
    /// Probability that a data-plane request executes server-side but its
    /// response is lost (client observes a timeout; the operation *did*
    /// execute — retrying may duplicate it).
    pub ack_loss_prob: f64,
    /// Probability that a replicated write's sync stalls.
    pub replica_stall_prob: f64,
    /// Extra latency added by a replica-sync stall.
    pub replica_stall: Duration,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            crashes: Vec::new(),
            crash_cuts_acks: false,
            blackouts: Vec::new(),
            busy_storms: Vec::new(),
            timeout_prob: 0.0,
            timeout: Duration::from_secs(30),
            ack_loss_prob: 0.0,
            replica_stall_prob: 0.0,
            replica_stall: Duration::from_millis(200),
        }
    }
}

impl FaultPlan {
    /// Whether this plan can never inject anything.
    pub fn is_inert(&self) -> bool {
        self.crashes.is_empty()
            && self.blackouts.is_empty()
            && self.busy_storms.is_empty()
            && self.timeout_prob <= 0.0
            && self.ack_loss_prob <= 0.0
            && self.replica_stall_prob <= 0.0
    }
}

/// What the injector decided for one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultDecision {
    /// Proceed normally.
    None,
    /// Reject with `ServerBusy { retry_after }` (storm).
    Busy {
        /// Retry hint to return.
        retry_after: Duration,
    },
    /// Reject with `ServerFault { retry_after }` (crash/blackout window);
    /// the hint is the time remaining in the window.
    Fault {
        /// Remaining unavailability.
        retry_after: Duration,
    },
    /// Drop the request; the client observes `Timeout { elapsed }` after
    /// its wait. The operation does not execute.
    Drop {
        /// The modeled client-side wait.
        elapsed: Duration,
    },
    /// Lose the *response*: the operation proceeds through the normal
    /// request path (throttles, state transition, replication) but the
    /// client observes `Timeout { elapsed }` — an ambiguous outcome.
    AckLoss {
        /// The modeled client-side wait.
        elapsed: Duration,
    },
}

/// Counters of injected events (all zero under an inert plan).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultMetrics {
    /// `ServerBusy` rejections injected by storms.
    pub injected_busy: u64,
    /// `ServerFault` rejections from crash windows.
    pub crash_faults: u64,
    /// `ServerFault` rejections from partition blackouts.
    pub blackout_faults: u64,
    /// Requests dropped before execution (client timeouts).
    pub dropped: u64,
    /// Responses lost after the request reached the server
    /// (`ack_loss_prob` draws; the operation may have executed).
    pub ack_losses: u64,
    /// Replicated-write acks cut by a crash that began while the write
    /// was in flight (the write executed; the client saw a timeout).
    pub crash_ambiguous: u64,
    /// Replica-sync stalls applied.
    pub replica_stalls: u64,
}

impl FaultMetrics {
    /// Total injected faults of all kinds.
    pub fn total(&self) -> u64 {
        self.injected_busy
            + self.crash_faults
            + self.blackout_faults
            + self.dropped
            + self.ack_losses
            + self.crash_ambiguous
            + self.replica_stalls
    }

    /// Client-ambiguous outcomes: timeouts where the client cannot know
    /// whether the operation executed (it did for ack losses and crash
    /// cuts, did not for drops).
    pub fn ambiguous(&self) -> u64 {
        self.dropped + self.ack_losses + self.crash_ambiguous
    }
}

/// Executes a [`FaultPlan`] against the request stream. Owned by the
/// cluster; consulted once per data-plane request.
///
/// Probabilistic decisions are *counter-keyed*: the injector numbers
/// data-plane requests as they arrive and derives each draw from
/// `(plan.seed, fault kind, request index)` with the SplitMix64 mixer.
/// The index advances even when a scheduled window pre-empts the request,
/// so adding or removing windows never shifts which later requests get
/// dropped — schedules and probabilistic faults compose independently.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    metrics: FaultMetrics,
    active: bool,
    /// Data-plane requests seen (the counter-hash draw key).
    requests: u64,
    /// Replicated writes seen by [`FaultInjector::replica_stall`].
    stall_draws: u64,
    /// Precomputed child seeds of the per-kind draw streams.
    drop_seed: u64,
    ack_seed: u64,
    stall_seed: u64,
}

/// Map a 64-bit hash to a uniform draw in `[0, 1)`.
fn unit(hash: u64) -> f64 {
    (hash >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultInjector {
    /// Build from a plan.
    pub fn new(plan: FaultPlan) -> Self {
        let active = !plan.is_inert();
        let stream = derive_seed(plan.seed, FAULT_STREAM);
        FaultInjector {
            active,
            metrics: FaultMetrics::default(),
            requests: 0,
            stall_draws: 0,
            drop_seed: derive_seed(stream, DROP_DRAW),
            ack_seed: derive_seed(stream, ACK_DRAW),
            stall_seed: derive_seed(stream, STALL_DRAW),
            plan,
        }
    }

    /// An injector that never fires.
    pub fn inert() -> Self {
        Self::new(FaultPlan::default())
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counts of injected events so far.
    pub fn metrics(&self) -> &FaultMetrics {
        &self.metrics
    }

    /// Decide the fate of one request arriving at `now` for partition
    /// `pk` on server `server`. Control-plane operations (create/delete
    /// of namespaces) are never faulted so harness setup stays reliable.
    ///
    /// Decision order mirrors the request path: storm rejection happens
    /// at the front end (before placement), then crash/blackout at the
    /// partition server, then in-flight request/response losses, with
    /// replica stalls handled separately by
    /// [`FaultInjector::replica_stall`].
    pub fn decide(
        &mut self,
        now: SimTime,
        class: OpClass,
        pk: &PartitionKey,
        server: usize,
    ) -> FaultDecision {
        if !self.active || class.is_control() {
            return FaultDecision::None;
        }
        // Number every data-plane request, window-hit or not, so the
        // probabilistic draws below stay keyed to the request index no
        // matter how the schedule is edited.
        let n = self.requests;
        self.requests += 1;
        for storm in &self.plan.busy_storms {
            if in_window(now, storm.at, storm.duration) {
                self.metrics.injected_busy += 1;
                return FaultDecision::Busy {
                    retry_after: storm.retry_after,
                };
            }
        }
        for crash in &self.plan.crashes {
            if crash.server == server && in_window(now, crash.at, crash.failover) {
                self.metrics.crash_faults += 1;
                return FaultDecision::Fault {
                    retry_after: remaining(now, crash.at, crash.failover),
                };
            }
        }
        for blackout in &self.plan.blackouts {
            if blackout.partition == *pk && in_window(now, blackout.at, blackout.duration) {
                self.metrics.blackout_faults += 1;
                return FaultDecision::Fault {
                    retry_after: remaining(now, blackout.at, blackout.duration),
                };
            }
        }
        if self.plan.timeout_prob > 0.0
            && unit(derive_seed(self.drop_seed, n)) < self.plan.timeout_prob
        {
            self.metrics.dropped += 1;
            return FaultDecision::Drop {
                elapsed: self.plan.timeout,
            };
        }
        if self.plan.ack_loss_prob > 0.0
            && unit(derive_seed(self.ack_seed, n)) < self.plan.ack_loss_prob
        {
            self.metrics.ack_losses += 1;
            return FaultDecision::AckLoss {
                elapsed: self.plan.timeout,
            };
        }
        FaultDecision::None
    }

    /// Number of scheduled fault windows (storms, crashes, blackouts)
    /// containing `now`. Pure; used by the timeline's active-faults gauge.
    pub fn active_windows(&self, now: SimTime) -> usize {
        let p = &self.plan;
        p.busy_storms
            .iter()
            .filter(|s| in_window(now, s.at, s.duration))
            .count()
            + p.crashes
                .iter()
                .filter(|c| in_window(now, c.at, c.failover))
                .count()
            + p.blackouts
                .iter()
                .filter(|b| in_window(now, b.at, b.duration))
                .count()
    }

    /// Extra replica-sync latency for a replicated write, if a stall
    /// fires. Called only for operations that actually replicate; draws
    /// are keyed by the replicating-write index, independent of the drop
    /// and ack-loss streams.
    pub fn replica_stall(&mut self) -> Option<Duration> {
        if !self.active || self.plan.replica_stall_prob <= 0.0 {
            return None;
        }
        let n = self.stall_draws;
        self.stall_draws += 1;
        if unit(derive_seed(self.stall_seed, n)) < self.plan.replica_stall_prob {
            self.metrics.replica_stalls += 1;
            Some(self.plan.replica_stall)
        } else {
            None
        }
    }

    /// Mid-window crash semantics for in-flight replicated writes: if a
    /// crash of `server` *begins* while a replicated write admitted at
    /// `service_start` is still replicating (strictly after service start,
    /// at or before `replicated_at`), the primary applied the write but
    /// the ack never left the dying server. Returns the modeled client
    /// wait; the caller converts the response into an ambiguous timeout.
    pub fn ack_cut_by_crash(
        &mut self,
        server: usize,
        service_start: SimTime,
        replicated_at: SimTime,
    ) -> Option<Duration> {
        if !self.active || !self.plan.crash_cuts_acks || self.plan.crashes.is_empty() {
            return None;
        }
        let cut = self
            .plan
            .crashes
            .iter()
            .any(|c| c.server == server && c.at > service_start && c.at <= replicated_at);
        if cut {
            self.metrics.crash_ambiguous += 1;
            Some(self.plan.timeout)
        } else {
            None
        }
    }
}

/// Half-open window membership: `[start, start + len)`.
fn in_window(now: SimTime, start: SimTime, len: Duration) -> bool {
    now >= start && now < start + len
}

/// Time until the window's (exclusive) end — the first served instant.
fn remaining(now: SimTime, start: SimTime, len: Duration) -> Duration {
    (start + len).saturating_since(now)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn queue_pk() -> PartitionKey {
        PartitionKey::Queue { queue: "q".into() }
    }

    #[test]
    fn default_plan_is_inert_and_silent() {
        let mut inj = FaultInjector::inert();
        for ms in 0..100 {
            assert_eq!(
                inj.decide(at(ms), OpClass::QueuePut, &queue_pk(), 3),
                FaultDecision::None
            );
        }
        assert_eq!(inj.replica_stall(), None);
        assert_eq!(inj.ack_cut_by_crash(0, at(0), at(10)), None);
        assert_eq!(inj.metrics().total(), 0);
    }

    #[test]
    fn crash_window_faults_only_that_server() {
        let mut inj = FaultInjector::new(FaultPlan {
            crashes: vec![ServerCrash {
                server: 5,
                at: at(100),
                failover: Duration::from_millis(50),
            }],
            ..FaultPlan::default()
        });
        // Before, other server, after: untouched.
        assert_eq!(
            inj.decide(at(99), OpClass::QueuePut, &queue_pk(), 5),
            FaultDecision::None
        );
        assert_eq!(
            inj.decide(at(120), OpClass::QueuePut, &queue_pk(), 4),
            FaultDecision::None
        );
        assert_eq!(
            inj.decide(at(150), OpClass::QueuePut, &queue_pk(), 5),
            FaultDecision::None
        );
        // Inside the window: faulted, hint = remaining failover.
        assert_eq!(
            inj.decide(at(120), OpClass::QueuePut, &queue_pk(), 5),
            FaultDecision::Fault {
                retry_after: Duration::from_millis(30)
            }
        );
        assert_eq!(inj.metrics().crash_faults, 1);
    }

    #[test]
    fn blackout_faults_only_that_partition() {
        let other = PartitionKey::Queue { queue: "r".into() };
        let mut inj = FaultInjector::new(FaultPlan {
            blackouts: vec![PartitionBlackout {
                partition: queue_pk(),
                at: at(10),
                duration: Duration::from_millis(10),
            }],
            ..FaultPlan::default()
        });
        assert!(matches!(
            inj.decide(at(15), OpClass::QueueGet, &queue_pk(), 0),
            FaultDecision::Fault { .. }
        ));
        assert_eq!(
            inj.decide(at(15), OpClass::QueueGet, &other, 0),
            FaultDecision::None
        );
    }

    #[test]
    fn storm_rejects_everything_in_window() {
        let mut inj = FaultInjector::new(FaultPlan {
            busy_storms: vec![BusyStorm {
                at: at(0),
                duration: Duration::from_millis(5),
                retry_after: Duration::from_millis(250),
            }],
            ..FaultPlan::default()
        });
        assert_eq!(
            inj.decide(at(1), OpClass::TableInsert, &queue_pk(), 9),
            FaultDecision::Busy {
                retry_after: Duration::from_millis(250)
            }
        );
        assert_eq!(
            inj.decide(at(6), OpClass::TableInsert, &queue_pk(), 9),
            FaultDecision::None
        );
    }

    #[test]
    fn window_boundary_is_half_open_and_hint_agrees() {
        // A crash window [1s, 1s + 500ms): the last faulted instant is one
        // nanosecond before the end, and its retry hint points exactly at
        // the first served instant — hint and error window agree.
        let end = at(1_500);
        let mut inj = FaultInjector::new(FaultPlan {
            crashes: vec![ServerCrash {
                server: 2,
                at: at(1_000),
                failover: Duration::from_millis(500),
            }],
            ..FaultPlan::default()
        });
        let just_inside = SimTime(end.as_nanos() - 1);
        let d = inj.decide(just_inside, OpClass::QueuePut, &queue_pk(), 2);
        let FaultDecision::Fault { retry_after } = d else {
            panic!("expected Fault one tick before the window end, got {d:?}");
        };
        assert_eq!(retry_after, Duration::from_nanos(1));
        // Retrying after exactly the hinted wait succeeds: the boundary
        // instant `at + failover` is outside the half-open window.
        assert_eq!(
            inj.decide(just_inside + retry_after, OpClass::QueuePut, &queue_pk(), 2),
            FaultDecision::None
        );
        assert_eq!(
            inj.decide(end, OpClass::QueuePut, &queue_pk(), 2),
            FaultDecision::None
        );
        // Same convention at the start: `at` is the first faulted instant.
        assert!(matches!(
            inj.decide(at(1_000), OpClass::QueuePut, &queue_pk(), 2),
            FaultDecision::Fault { .. }
        ));
        assert_eq!(
            inj.decide(
                SimTime(at(1_000).as_nanos() - 1),
                OpClass::QueuePut,
                &queue_pk(),
                2
            ),
            FaultDecision::None
        );
    }

    #[test]
    fn control_ops_are_never_faulted() {
        let mut inj = FaultInjector::new(FaultPlan {
            busy_storms: vec![BusyStorm {
                at: at(0),
                duration: Duration::from_secs(10),
                retry_after: Duration::from_secs(1),
            }],
            timeout_prob: 1.0,
            ..FaultPlan::default()
        });
        assert_eq!(
            inj.decide(at(1), OpClass::QueueCreate, &queue_pk(), 0),
            FaultDecision::None
        );
    }

    #[test]
    fn probabilistic_faults_replay_identically_per_seed() {
        let run = |seed| {
            let mut inj = FaultInjector::new(FaultPlan {
                seed,
                timeout_prob: 0.3,
                ack_loss_prob: 0.2,
                replica_stall_prob: 0.2,
                ..FaultPlan::default()
            });
            let mut seq = Vec::new();
            for ms in 0..200 {
                seq.push(inj.decide(at(ms), OpClass::QueuePut, &queue_pk(), 0));
                seq.push(if inj.replica_stall().is_some() {
                    FaultDecision::Drop {
                        elapsed: Duration::ZERO,
                    }
                } else {
                    FaultDecision::None
                });
            }
            (seq, *inj.metrics())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0, "different seeds, different faults");
        let (_, m) = run(7);
        assert!(m.dropped > 0 && m.ack_losses > 0 && m.replica_stalls > 0);
        assert_eq!(m.ambiguous(), m.dropped + m.ack_losses);
    }

    #[test]
    fn probabilistic_draws_are_schedule_independent() {
        // The satellite fix pinned: adding a scheduled window must not
        // reshuffle which requests the probabilistic stream drops. The
        // n-th request's fate is a pure function of (seed, n), so requests
        // outside the storm decide identically with and without it.
        let storm = BusyStorm {
            at: at(50),
            duration: Duration::from_millis(25),
            retry_after: Duration::from_millis(5),
        };
        let run = |storms: Vec<BusyStorm>| {
            let mut inj = FaultInjector::new(FaultPlan {
                seed: 11,
                timeout_prob: 0.25,
                ack_loss_prob: 0.15,
                busy_storms: storms,
                ..FaultPlan::default()
            });
            (0..200)
                .map(|ms| inj.decide(at(ms), OpClass::QueuePut, &queue_pk(), 0))
                .collect::<Vec<_>>()
        };
        let bare = run(vec![]);
        let stormy = run(vec![storm]);
        let mut in_storm = 0;
        for (ms, (a, b)) in bare.iter().zip(&stormy).enumerate() {
            if (50..75).contains(&ms) {
                assert!(
                    matches!(b, FaultDecision::Busy { .. }),
                    "request at {ms}ms should hit the storm"
                );
                in_storm += 1;
            } else {
                assert_eq!(a, b, "schedule edit changed the draw at {ms}ms");
            }
        }
        assert_eq!(in_storm, 25);
    }

    #[test]
    fn ack_loss_draws_are_independent_of_drop_draws() {
        // With only ack losses enabled the same requests that previously
        // dropped may now succeed: the two kinds use separate streams.
        let decide_all = |timeout_prob, ack_loss_prob| {
            let mut inj = FaultInjector::new(FaultPlan {
                seed: 5,
                timeout_prob,
                ack_loss_prob,
                ..FaultPlan::default()
            });
            (0..300)
                .map(|ms| inj.decide(at(ms), OpClass::TableInsert, &queue_pk(), 0))
                .collect::<Vec<_>>()
        };
        let drops = decide_all(0.2, 0.0);
        let acks = decide_all(0.0, 0.2);
        let both = decide_all(0.2, 0.2);
        assert!(drops
            .iter()
            .any(|d| matches!(d, FaultDecision::Drop { .. })));
        assert!(acks
            .iter()
            .any(|d| matches!(d, FaultDecision::AckLoss { .. })));
        // Composition: a request that dropped still drops (drop is checked
        // first); an ack loss only fires where no drop did.
        for (i, d) in both.iter().enumerate() {
            match drops[i] {
                FaultDecision::Drop { .. } => assert_eq!(*d, drops[i]),
                _ => assert_eq!(*d, acks[i]),
            }
        }
    }

    #[test]
    fn crash_cuts_in_flight_replicated_acks() {
        let crashes = vec![ServerCrash {
            server: 3,
            at: at(100),
            failover: Duration::from_secs(1),
        }];
        // Cuts are opt-in: without the flag a crash plan stays unambiguous.
        let mut gated = FaultInjector::new(FaultPlan {
            crashes: crashes.clone(),
            ..FaultPlan::default()
        });
        assert_eq!(gated.ack_cut_by_crash(3, at(99), at(105)), None);
        assert_eq!(gated.metrics().crash_ambiguous, 0);

        let mut inj = FaultInjector::new(FaultPlan {
            crashes,
            crash_cuts_acks: true,
            ..FaultPlan::default()
        });
        // Write admitted before the crash, still replicating when it hits.
        assert_eq!(
            inj.ack_cut_by_crash(3, at(99), at(105)),
            Some(Duration::from_secs(30))
        );
        // Other server, or fully replicated before the crash: untouched.
        assert_eq!(inj.ack_cut_by_crash(2, at(99), at(105)), None);
        assert_eq!(
            inj.ack_cut_by_crash(3, at(90), SimTime(at(100).as_nanos() - 1)),
            None
        );
        // Admitted at the crash instant: the window check (not the cut)
        // already rejected it; `at > service_start` keeps the two disjoint.
        assert_eq!(inj.ack_cut_by_crash(3, at(100), at(110)), None);
        assert_eq!(inj.metrics().crash_ambiguous, 1);
    }

    #[test]
    fn inertness_detection() {
        assert!(FaultPlan::default().is_inert());
        assert!(!FaultPlan {
            timeout_prob: 0.01,
            ..FaultPlan::default()
        }
        .is_inert());
        assert!(!FaultPlan {
            ack_loss_prob: 0.01,
            ..FaultPlan::default()
        }
        .is_inert());
        assert!(!FaultPlan {
            crashes: vec![ServerCrash {
                server: 0,
                at: SimTime::ZERO,
                failover: Duration::from_secs(1)
            }],
            ..FaultPlan::default()
        }
        .is_inert());
    }
}
