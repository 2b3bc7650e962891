//! The per-operation record and its one recorder.
//!
//! Every submitted operation ends in one [`OpRecord`]: issue/completion
//! virtual timestamps, actor, class, interned partition, the full
//! [`OpOutcome`] (which tells a timeout that never executed from one that
//! did), payload sizes, and a [`PhaseBreadcrumb`] — the operation's
//! end-to-end latency split across the pipeline stages it crossed (client
//! send, partition queue wait, service, replica sync, NIC transfer, …).
//! The breadcrumb segments partition the `[issued, completed]` interval
//! exactly, so per-phase sums reconcile with end-to-end latency by
//! construction.
//!
//! The [`Tracer`] has two switches, composable:
//! - a record buffer ([`Tracer::keep_records`]) whose capacity is the
//!   largest one requested — bounded for tracing, unbounded for a
//!   verification history — and
//! - a streaming [`PhaseAggregate`] ([`Tracer::enable_aggregation`])
//!   folding every record into per-class/per-phase [`Histogram`]s — O(1)
//!   memory in the number of operations, suitable for full-ladder runs.

use azsim_core::stats::Histogram;
use azsim_core::SimTime;
use azsim_storage::OpClass;
use std::time::Duration;

/// A pipeline stage of one simulated storage operation.
///
/// `RetryBackoff` is client-side (the waits a retry policy inserts between
/// attempts) and therefore never appears in server-side trace records; it
/// is fed into a [`PhaseAggregate`] by the client harness via
/// [`PhaseAggregate::record_retry`]. All other phases are measured by the
/// cluster itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Client-side wait inserted by a retry policy between attempts.
    RetryBackoff,
    /// Client NIC uplink, frontend round-trip and uplink pipes — everything
    /// before the request joins the partition-server FIFO.
    ClientSend,
    /// Wait in the partition-server FIFO before service begins.
    QueueWait,
    /// Service occupancy, per-class latency, and modelled quirks (e.g. the
    /// 16 KB GetMessage anomaly).
    Service,
    /// Intra-stamp replication and state-sync, including injected stalls.
    ReplicaSync,
    /// Downlink pipes, account egress and client NIC transfer.
    Transfer,
    /// Fast-reject round trip (throttle or injected fault) or the elapsed
    /// timeout of a dropped request.
    Rejection,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 7;

    /// All phases, in display order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::RetryBackoff,
        Phase::ClientSend,
        Phase::QueueWait,
        Phase::Service,
        Phase::ReplicaSync,
        Phase::Transfer,
        Phase::Rejection,
    ];

    /// Dense index (matches `ALL` order).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case label used in CSV, JSON and Prometheus exports.
    pub fn label(self) -> &'static str {
        match self {
            Phase::RetryBackoff => "retry_backoff",
            Phase::ClientSend => "client_send",
            Phase::QueueWait => "queue_wait",
            Phase::Service => "service",
            Phase::ReplicaSync => "replica_sync",
            Phase::Transfer => "transfer",
            Phase::Rejection => "rejection",
        }
    }
}

/// Per-phase durations of one operation, in integer nanoseconds.
///
/// The server-side segments sum exactly to `completed - issued` for the
/// record that carries them (virtual time is integer nanoseconds, so there
/// is no rounding).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseBreadcrumb {
    nanos: [u64; Phase::COUNT],
}

impl PhaseBreadcrumb {
    /// An all-zero breadcrumb.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a duration to one phase.
    pub fn add(&mut self, phase: Phase, d: Duration) {
        self.nanos[phase.index()] += d.as_nanos() as u64;
    }

    /// The accumulated duration of one phase.
    pub fn get(&self, phase: Phase) -> Duration {
        Duration::from_nanos(self.nanos[phase.index()])
    }

    /// Sum over all phases.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.nanos.iter().sum())
    }

    /// Iterate `(phase, duration)` pairs in display order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, Duration)> + '_ {
        Phase::ALL
            .iter()
            .map(|&p| (p, Duration::from_nanos(self.nanos[p.index()])))
    }
}

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
    /// Number of outcomes.
    pub const COUNT: usize = 6;

    /// Whether the state transition ran.
    pub fn executed(self) -> bool {
        matches!(self, OpOutcome::Ok | OpOutcome::TimedOutExecuted)
    }

    /// Stable snake_case label used in the exports. Both timeout kinds
    /// read `timed_out`: the client cannot tell them apart.
    pub fn label(self) -> &'static str {
        match self {
            OpOutcome::Ok => "ok",
            OpOutcome::Throttled => "throttled",
            OpOutcome::Faulted => "faulted",
            OpOutcome::Error => "failed",
            OpOutcome::TimedOutLost | OpOutcome::TimedOutExecuted => "timed_out",
        }
    }
}

/// One submitted operation: how it ended and where its latency went.
#[derive(Clone, Copy, Debug)]
pub struct OpRecord {
    /// Virtual time the request arrived at the cluster.
    pub issued: SimTime,
    /// Client-visible completion (for timeouts: when the wait expired).
    pub completed: SimTime,
    /// Issuing role instance.
    pub actor: usize,
    /// Operation class.
    pub class: OpClass,
    /// Interned target partition; `Cluster::partition_key` resolves it.
    pub partition: u32,
    /// Server-side outcome.
    pub outcome: OpOutcome,
    /// Rejected by a throttle or an injected storm, whatever the client
    /// then observed.
    pub throttled: bool,
    /// Payload bytes client → server.
    pub bytes_up: u64,
    /// Payload bytes server → client.
    pub bytes_down: u64,
    /// Where the latency went, stage by stage.
    pub phases: PhaseBreadcrumb,
}

impl OpRecord {
    /// Operation latency.
    pub fn latency(&self) -> Duration {
        self.completed.saturating_since(self.issued)
    }
}

/// Streaming per-class, per-phase latency aggregation.
///
/// Folds trace records into [`Histogram`]s as they are produced, so memory
/// is bounded by `classes × phases × histogram buckets` regardless of how
/// many operations run. Mergeable across ladder points (deterministic when
/// merged in a fixed order).
#[derive(Clone, Debug, Default)]
pub struct PhaseAggregate {
    classes: Vec<Option<Box<ClassPhaseStats>>>,
}

/// Aggregated latency distributions for one operation class.
#[derive(Clone, Debug)]
pub struct ClassPhaseStats {
    end_to_end: Histogram,
    phases: [Histogram; Phase::COUNT],
    outcomes: [u64; OpOutcome::COUNT],
}

impl Default for ClassPhaseStats {
    fn default() -> Self {
        ClassPhaseStats {
            end_to_end: Histogram::new(),
            phases: std::array::from_fn(|_| Histogram::new()),
            outcomes: [0; OpOutcome::COUNT],
        }
    }
}

impl ClassPhaseStats {
    /// End-to-end latency distribution (all outcomes).
    pub fn end_to_end(&self) -> &Histogram {
        &self.end_to_end
    }

    /// Latency distribution of one phase. Only operations that actually
    /// crossed the phase (non-zero duration) are recorded, so quantiles
    /// describe the phase when it happens; sums still reconcile because
    /// skipped crossings contribute zero.
    pub fn phase(&self, phase: Phase) -> &Histogram {
        &self.phases[phase.index()]
    }

    /// How many records ended with the given outcome.
    pub fn outcome_count(&self, outcome: OpOutcome) -> u64 {
        self.outcomes[outcome as usize]
    }

    /// Sum of the server-side phase sums (everything except the
    /// client-side `RetryBackoff`), for reconciliation against
    /// [`ClassPhaseStats::end_to_end`].
    pub fn phase_sum(&self) -> f64 {
        Phase::ALL
            .iter()
            .filter(|&&p| p != Phase::RetryBackoff)
            .map(|&p| self.phases[p.index()].sum())
            .sum()
    }

    fn merge(&mut self, other: &ClassPhaseStats) {
        self.end_to_end.merge(&other.end_to_end);
        for (a, b) in self.phases.iter_mut().zip(&other.phases) {
            a.merge(b);
        }
        for (a, &b) in self.outcomes.iter_mut().zip(&other.outcomes) {
            *a += b;
        }
    }
}

impl PhaseAggregate {
    /// An empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    fn class_mut(&mut self, class: OpClass) -> &mut ClassPhaseStats {
        let i = class.index();
        if self.classes.len() <= i {
            self.classes.resize(i + 1, None);
        }
        self.classes[i].get_or_insert_with(Default::default)
    }

    /// Fold one record into the aggregate.
    pub fn record(&mut self, r: &OpRecord) {
        let latency = r.latency().as_secs_f64();
        let stats = self.class_mut(r.class);
        stats.end_to_end.record(latency);
        stats.outcomes[r.outcome as usize] += 1;
        for (phase, d) in r.phases.iter() {
            if !d.is_zero() {
                stats.phases[phase.index()].record(d.as_secs_f64());
            }
        }
    }

    /// Fold one client-side retry/backoff wait into the aggregate.
    pub fn record_retry(&mut self, class: OpClass, wait: Duration) {
        if !wait.is_zero() {
            self.class_mut(class).phases[Phase::RetryBackoff.index()].record(wait.as_secs_f64());
        }
    }

    /// Merge another aggregate into this one.
    pub fn merge(&mut self, other: &PhaseAggregate) {
        if self.classes.len() < other.classes.len() {
            self.classes.resize(other.classes.len(), None);
        }
        for (i, theirs) in other.classes.iter().enumerate() {
            if let Some(theirs) = theirs {
                self.classes[i]
                    .get_or_insert_with(Default::default)
                    .merge(theirs);
            }
        }
    }

    /// Stats for one class, if any record of that class was seen.
    pub fn class(&self, class: OpClass) -> Option<&ClassPhaseStats> {
        self.classes.get(class.index()).and_then(|c| c.as_deref())
    }

    /// Iterate `(class, stats)` pairs in fixed [`OpClass::index`] order.
    pub fn iter(&self) -> impl Iterator<Item = (OpClass, &ClassPhaseStats)> {
        OpClass::ALL
            .iter()
            .filter_map(|&c| self.class(c).map(|s| (c, s)))
    }

    /// Total records folded in (end-to-end observations across classes).
    pub fn total_records(&self) -> u64 {
        self.classes
            .iter()
            .flatten()
            .map(|c| c.end_to_end.count())
            .sum()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total_records() == 0
    }
}

/// The one op recorder: an optional record buffer beside an optional
/// streaming [`PhaseAggregate`]. Both are off until switched on.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    records: Vec<OpRecord>,
    capacity: usize,
    dropped: u64,
    aggregate: Option<Box<PhaseAggregate>>,
}

impl Tracer {
    /// Keep at most `capacity` records, or more if a larger capacity was
    /// already requested. A full buffer is *not* evicted — it stops
    /// recording and counts drops, so the retained prefix stays
    /// contiguous.
    pub fn keep_records(&mut self, capacity: usize) {
        self.capacity = self.capacity.max(capacity);
    }

    /// Stream every record into a [`PhaseAggregate`] as well.
    pub fn enable_aggregation(&mut self) {
        self.aggregate.get_or_insert_with(Box::default);
    }

    /// Record one operation.
    pub fn record(&mut self, r: OpRecord) {
        if let Some(agg) = &mut self.aggregate {
            agg.record(&r);
        }
        if self.records.len() < self.capacity {
            self.records.push(r);
        } else if self.capacity > 0 {
            self.dropped += 1;
        }
    }

    /// The retained records, in completion-processing order.
    pub fn records(&self) -> &[OpRecord] {
        &self.records
    }

    /// Operations that arrived after the record buffer filled (always 0
    /// when no buffer is kept).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The streaming aggregate, if aggregation is enabled.
    pub fn phase_stats(&self) -> Option<&PhaseAggregate> {
        self.aggregate.as_deref()
    }

    /// Mutable access to the streaming aggregate (used by client harnesses
    /// to fold in retry-phase spans).
    pub fn phase_stats_mut(&mut self) -> Option<&mut PhaseAggregate> {
        self.aggregate.as_deref_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: u64, class: OpClass) -> OpRecord {
        let mut phases = PhaseBreadcrumb::new();
        phases.add(Phase::ClientSend, Duration::from_nanos(250_000));
        phases.add(Phase::QueueWait, Duration::from_nanos(100_000));
        phases.add(Phase::Service, Duration::from_nanos(400_000));
        phases.add(Phase::ReplicaSync, Duration::from_nanos(150_000));
        phases.add(Phase::Transfer, Duration::from_nanos(100_000));
        OpRecord {
            issued: SimTime(t),
            completed: SimTime(t + 1_000_000),
            actor: 0,
            class,
            partition: 0,
            outcome: OpOutcome::Ok,
            throttled: false,
            bytes_up: 10,
            bytes_down: 20,
            phases,
        }
    }

    #[test]
    fn capacity_bounds_recording() {
        let mut t = Tracer::default();
        t.keep_records(2);
        t.keep_records(1); // the largest capacity requested wins
        for i in 0..5 {
            t.record(rec(i, OpClass::QueuePut));
        }
        assert_eq!(t.records().len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn latency_is_completion_minus_issue() {
        let r = rec(5, OpClass::TableQuery);
        assert_eq!(r.latency(), Duration::from_millis(1));
    }

    #[test]
    fn breadcrumb_partitions_latency() {
        let r = rec(0, OpClass::QueuePut);
        assert_eq!(r.phases.total(), r.latency());
        assert_eq!(r.phases.get(Phase::Service), Duration::from_nanos(400_000));
        assert_eq!(r.phases.get(Phase::RetryBackoff), Duration::ZERO);
    }

    #[test]
    fn outcome_classification() {
        assert!(OpOutcome::TimedOutExecuted.executed());
        assert!(!OpOutcome::TimedOutLost.executed());
        assert!(OpOutcome::Ok.executed());
        assert!(!OpOutcome::Faulted.executed());
        assert_eq!(OpOutcome::Error.label(), "failed");
        assert_eq!(OpOutcome::TimedOutLost.label(), "timed_out");
        assert_eq!(OpOutcome::TimedOutExecuted.label(), "timed_out");
    }

    #[test]
    fn record_stays_small_and_plain() {
        // Copy, no heap: the unbounded history of a verification run costs
        // one fixed-size record per op.
        assert!(std::mem::size_of::<OpRecord>() <= 104);
    }

    #[test]
    fn aggregate_only_keeps_no_records() {
        let mut t = Tracer::default();
        t.enable_aggregation();
        for i in 0..100 {
            t.record(rec(i, OpClass::QueuePut));
        }
        assert!(t.records().is_empty());
        assert_eq!(t.dropped(), 0);
        let agg = t.phase_stats().unwrap();
        assert_eq!(agg.total_records(), 100);
        let stats = agg.class(OpClass::QueuePut).unwrap();
        assert_eq!(stats.end_to_end().count(), 100);
        assert_eq!(stats.outcome_count(OpOutcome::Ok), 100);
        assert_eq!(stats.phase(Phase::Service).count(), 100);
        // Per-phase sums reconcile with end-to-end sums exactly here: every
        // breadcrumb partitions its record's latency.
        assert!((stats.phase_sum() - stats.end_to_end().sum()).abs() < 1e-9);
    }

    #[test]
    fn aggregate_merge_matches_single_stream() {
        let mut a = PhaseAggregate::new();
        let mut b = PhaseAggregate::new();
        let mut whole = PhaseAggregate::new();
        for i in 0..50 {
            let r = rec(i, OpClass::BlobUploadSingle);
            whole.record(&r);
            if i % 2 == 0 {
                a.record(&r)
            } else {
                b.record(&r)
            }
        }
        a.merge(&b);
        assert_eq!(a.total_records(), whole.total_records());
        let (ac, wc) = (
            a.class(OpClass::BlobUploadSingle).unwrap(),
            whole.class(OpClass::BlobUploadSingle).unwrap(),
        );
        assert_eq!(ac.end_to_end().quantile(0.5), wc.end_to_end().quantile(0.5));
        assert_eq!(ac.outcome_count(OpOutcome::Ok), 50);
    }

    #[test]
    fn retry_spans_land_in_retry_phase() {
        let mut agg = PhaseAggregate::new();
        agg.record_retry(OpClass::QueueGet, Duration::from_millis(3));
        agg.record_retry(OpClass::QueueGet, Duration::from_millis(5));
        agg.record_retry(OpClass::QueueGet, Duration::ZERO); // ignored
        let stats = agg.class(OpClass::QueueGet).unwrap();
        let retry = stats.phase(Phase::RetryBackoff);
        assert_eq!(retry.count(), 2);
        assert!((retry.sum() - 0.008).abs() < 1e-9);
        // Retry waits are client-side: excluded from server reconciliation.
        assert_eq!(stats.phase_sum(), 0.0);
    }
}
