//! Accounting, the last stage of the op path: every telemetry sink the
//! cluster feeds — the per-class counters, the gauge timeline and the op
//! recorder — and the views read back from them: the metrics snapshot
//! with its partition heat table, and time-weighted resource usage.
//! Every sink is passive: it reads resources through side-effect-free
//! accessors, so no switch here moves a completion time.

use super::Cluster;
use crate::faults::FaultMetrics;
use crate::metrics::{ClusterMetrics, MetricsSnapshot, PartitionHeat};
use crate::timeline::{ClusterSample, ClusterTimeline, ResourceUsage};
use crate::trace::{OpOutcome, OpRecord, Tracer};
use azsim_core::resource::Pipe;
use azsim_core::SimTime;
use azsim_storage::{PartitionKey, StorageOk, StorageResult};
use std::time::Duration;

impl Cluster {
    /// Server-side metrics.
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.metrics
    }

    /// Counters of injected faults (all zero under the inert default).
    pub fn fault_metrics(&self) -> &FaultMetrics {
        self.faults.metrics()
    }

    /// Keep every [`OpRecord`] — including whether timed-out operations
    /// secretly executed — as the ground-truth history of a verification
    /// run. Off by default (one branch per op when off).
    pub fn enable_history(&mut self) {
        self.tracer
            .get_or_insert_with(Tracer::default)
            .keep_records(usize::MAX);
    }

    /// Keep up to `capacity` [`OpRecord`]s (the largest capacity requested
    /// wins, so a history stays unbounded). Off by default.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.tracer
            .get_or_insert_with(Tracer::default)
            .keep_records(capacity);
    }

    /// Stream every operation into a per-class/per-phase aggregate —
    /// O(1) memory per operation — beside any record buffer.
    pub fn enable_phase_profiling(&mut self) {
        self.tracer
            .get_or_insert_with(Tracer::default)
            .enable_aggregation();
    }

    /// Sample the gauge timeline (token-bucket fill, FIFO backlog,
    /// inflight ops, fault windows, …) at the given virtual-time
    /// resolution. Off by default — and when off, the per-operation cost
    /// is a single branch. Sampling is passive, so completion times are
    /// bit-identical with the timeline on or off.
    pub fn enable_timeline(&mut self, resolution: Duration) {
        self.timeline = Some(ClusterTimeline::new(resolution));
    }

    /// The gauge timeline, if sampling is enabled.
    pub fn timeline(&self) -> Option<&ClusterTimeline> {
        self.timeline.as_ref()
    }

    /// The op recorder, if tracing, profiling or the history is enabled.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Mutable trace sink, if tracing is enabled (client harnesses use this
    /// to fold retry-phase spans into the aggregate).
    pub fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        self.tracer.as_mut()
    }

    /// The partition an [`OpRecord::partition`] id names.
    pub fn partition_key(&self, id: u32) -> &PartitionKey {
        &self.slots[id as usize].key
    }

    /// Exportable snapshot of everything the cluster measured: per-class
    /// counters, fault tallies, the hottest partitions (top 64 by op count,
    /// ties broken by label), and — when phase profiling is enabled —
    /// per-class/per-phase latency histograms.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut heat: Vec<PartitionHeat> = self
            .slots
            .iter()
            .filter(|s| s.ops > 0)
            .map(|s| PartitionHeat {
                partition: s.key.to_string(),
                server: s.server,
                ops: s.ops,
                throttled: s.throttled,
            })
            .collect();
        heat.sort_by(|a, b| {
            b.ops
                .cmp(&a.ops)
                .then_with(|| a.partition.cmp(&b.partition))
        });
        heat.truncate(64);
        MetricsSnapshot::build(
            &self.metrics,
            self.faults.metrics(),
            heat,
            self.tracer.as_ref().and_then(|t| t.phase_stats()),
        )
    }

    /// Time-weighted usage of every cluster resource over `[0, end]`:
    /// token buckets (saturation needs the timeline enabled; throttle
    /// counts are always exact), partition FIFOs and all shared pipes
    /// (busy-time utilization, exact regardless of the timeline). Rows
    /// come out in a fixed construction order; consumers rank them.
    pub fn resource_usage(&self, end: SimTime) -> Vec<ResourceUsage> {
        let window = end.saturating_since(SimTime::ZERO);
        let mut out = Vec::new();
        out.push(ResourceUsage {
            resource: "account_tx".into(),
            kind: "token_bucket".into(),
            saturation: self
                .timeline
                .as_ref()
                .map(|tl| tl.account_tx_saturation(end))
                .unwrap_or(0.0),
            throttled: self.account_tx.throttle_count(),
            busy_s: 0.0,
        });
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.ops == 0 {
                continue;
            }
            let label = slot.key.to_string();
            if let Some(bucket) = &slot.bucket {
                out.push(ResourceUsage {
                    resource: format!("bucket:{label}"),
                    kind: "token_bucket".into(),
                    saturation: self
                        .timeline
                        .as_ref()
                        .and_then(|tl| tl.slot_saturation(i, end))
                        .unwrap_or(0.0),
                    throttled: bucket.throttle_count(),
                    busy_s: 0.0,
                });
            }
            for (name, pipe) in [("write", &slot.write_pipe), ("read", &slot.read_pipe)] {
                if let Some(pipe) = pipe.as_ref().filter(|p| p.bytes_transferred() > 0) {
                    out.push(ResourceUsage::busy(
                        format!("pipe:blob-{name}:{label}"),
                        "pipe",
                        pipe.busy_time(),
                        window,
                    ));
                }
            }
            if slot.fifo.busy_time() > Duration::ZERO {
                out.push(ResourceUsage::busy(
                    format!("fifo:{label}"),
                    "fifo",
                    slot.fifo.busy_time(),
                    window,
                ));
            }
        }
        if self.table_frontend.bytes_transferred() > 0 {
            out.push(ResourceUsage::busy(
                "pipe:table_frontend".into(),
                "pipe",
                self.table_frontend.busy_time(),
                window,
            ));
        }
        for (name, pipe) in [
            ("account_up", &self.account_up),
            ("account_down", &self.account_down),
        ] {
            out.push(ResourceUsage::busy(
                format!("pipe:{name}"),
                "pipe",
                pipe.busy_time(),
                window,
            ));
        }
        // Server and NIC pipes are numerous and rarely the binding limit:
        // report only the busiest of each family.
        out.extend(busiest(
            "server_rx",
            self.server_rx.iter().map(Some),
            window,
        ));
        out.extend(busiest(
            "server_tx",
            self.server_tx.iter().map(Some),
            window,
        ));
        out.extend(busiest("nic", self.nics.iter().map(Option::as_ref), window));
        out
    }

    /// Sample every instrumented gauge at one arrival (no-op unless the
    /// timeline is enabled). Reads only side-effect-free accessors, so the
    /// simulated outcome is untouched.
    pub(super) fn sample_timeline(&mut self, now: SimTime, actor: usize, slot: usize) {
        let Some(tl) = self.timeline.as_mut() else {
            return;
        };
        let backlog = |free: SimTime| free.saturating_since(now).as_secs_f64();
        let s = &self.slots[slot];
        tl.observe_slot(
            now,
            slot,
            &s.key,
            s.bucket.as_ref().map(|b| b.fill(now)),
            s.write_pipe.as_ref().map(|p| backlog(p.next_free())),
            backlog(s.fifo.next_free()),
        );
        tl.observe_cluster(
            now,
            ClusterSample {
                account_tx_fill: self.account_tx.fill(now),
                up_backlog_s: backlog(self.account_up.next_free()),
                down_backlog_s: backlog(self.account_down.next_free()),
                table_frontend_backlog_s: backlog(self.table_frontend.next_free()),
                nic_backlog_s: self
                    .nics
                    .get(actor)
                    .and_then(|n| n.as_ref())
                    .map(|p| backlog(p.next_free())),
                fault_windows: self.faults.active_windows(now),
            },
        );
    }

    /// Account one finished operation in every sink — the class counters,
    /// the timeline and the recorder — and hand back its completion time
    /// and result. Both exits of [`Cluster::submit`] end here.
    #[inline(always)]
    pub(super) fn finish(
        &mut self,
        op: OpRecord,
        result: StorageResult<StorageOk>,
    ) -> (SimTime, StorageResult<StorageOk>) {
        let c = self.metrics.counter_mut(op.class);
        if op.throttled {
            c.throttled += 1;
        } else if op.outcome.executed() {
            // A lost ack still counts as executed server-side, but no
            // response arrived, so the latency histogram sees no sample.
            c.completed += 1;
            c.bytes_up += op.bytes_up;
            c.bytes_down += op.bytes_down;
            if op.outcome == OpOutcome::Ok {
                c.latency.record(op.latency().as_secs_f64());
            }
        } else {
            c.failed += 1;
        }
        if let Some(tl) = self.timeline.as_mut() {
            tl.note_outcome(op.issued, op.completed, op.throttled);
            if matches!(
                op.outcome,
                OpOutcome::TimedOutLost | OpOutcome::TimedOutExecuted
            ) {
                tl.note_ambiguous(op.issued);
            }
        }
        if let Some(tr) = &mut self.tracer {
            tr.record(op);
        }
        (op.completed, result)
    }
}

/// The busiest pipe of one family with any busy time (ties: the lowest
/// index), as a `pipe:{family}:{index}` usage row; `None` entries are
/// pipes not created yet.
fn busiest<'a>(
    family: &str,
    pipes: impl Iterator<Item = Option<&'a Pipe>>,
    window: Duration,
) -> Option<ResourceUsage> {
    let (i, busy) = pipes
        .enumerate()
        .filter_map(|(i, p)| Some((i, p?.busy_time())))
        .filter(|(_, b)| *b > Duration::ZERO)
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))?;
    Some(ResourceUsage::busy(
        format!("pipe:{family}:{i}"),
        "pipe",
        busy,
        window,
    ))
}
