//! Cluster-side timeline instrumentation: gauge sampling points, inflight
//! tracking and time-weighted resource-usage accounting.
//!
//! [`ClusterTimeline`] owns a [`GaugeRecorder`] plus the bookkeeping the
//! recorder itself does not know about: which gauge ids belong to which
//! cluster resource, the inflight-operation heap, and per-resource
//! [`SaturationTracker`]s. The cluster samples it once per submitted
//! operation through side-effect-free resource accessors
//! ([`azsim_core::resource::TokenBucket::fill`], `next_free`), so an
//! enabled timeline observes the simulation without perturbing it: all
//! virtual completion times — and therefore every golden figure CSV — are
//! bit-identical with sampling on or off.
//!
//! Sampling at arrivals is exact for saturation accounting: every resource
//! in the discrete-event model changes state only at arrivals, so carrying
//! the last observed state forward between samples reconstructs the true
//! state function.

use azsim_core::timeline::{CounterId, GaugeId, GaugeRecorder, SaturationTracker};
use azsim_core::SimTime;
use azsim_storage::PartitionKey;
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

/// Gauge handles of one partition slot's series.
struct SlotSeries {
    /// Token-bucket fill (queue/table partitions only).
    fill: Option<GaugeId>,
    /// Per-blob write-pipe backlog in seconds (blob partitions only).
    pipe_backlog: Option<GaugeId>,
    /// Partition-server FIFO backlog in seconds.
    fifo_backlog: GaugeId,
}

/// Cluster-wide gauge snapshot taken at one arrival.
pub(crate) struct ClusterSample {
    /// Account transaction bucket fill, in tokens.
    pub account_tx_fill: f64,
    /// Account uplink backlog, seconds.
    pub up_backlog_s: f64,
    /// Account downlink backlog, seconds.
    pub down_backlog_s: f64,
    /// Shared table front-end backlog, seconds.
    pub table_frontend_backlog_s: f64,
    /// Submitting actor's NIC backlog, seconds (if the NIC exists yet).
    pub nic_backlog_s: Option<f64>,
    /// Scheduled fault windows containing the sample instant.
    pub fault_windows: usize,
}

/// The cluster's timeline state (present only when sampling is enabled).
pub struct ClusterTimeline {
    recorder: GaugeRecorder,
    g_account_tx_fill: GaugeId,
    g_inflight: GaugeId,
    g_fault_windows: GaugeId,
    g_up_backlog: GaugeId,
    g_down_backlog: GaugeId,
    g_table_frontend_backlog: GaugeId,
    g_nic_backlog: GaugeId,
    c_submitted: CounterId,
    c_throttled: CounterId,
    c_ambiguous: CounterId,
    submitted: u64,
    throttled: u64,
    ambiguous: u64,
    /// Per-slot gauge handles, lazily registered — every partition gets a
    /// series; the recorder's adaptive budget bounds total memory.
    slot_series: Vec<Option<SlotSeries>>,
    /// Per-slot bucket saturation, O(1) each.
    slot_sat: Vec<SaturationTracker>,
    account_tx_sat: SaturationTracker,
    /// Completion times of operations still in flight.
    inflight: BinaryHeap<Reverse<u64>>,
}

impl ClusterTimeline {
    /// Global bucket budget across every gauge/counter series. Equal to
    /// the worst case of the old design (64 capped slot series × 512
    /// buckets each), but spent adaptively: any number of partitions may
    /// register series, and when the total overflows, each series coarsens
    /// its own resolution to a fair share instead of later partitions
    /// being dropped outright.
    pub const BUCKET_BUDGET: usize = 64 * 512;

    /// A timeline sampling at the given virtual-time resolution.
    pub fn new(resolution: Duration) -> Self {
        let mut recorder = GaugeRecorder::new(resolution).with_adaptive_budget(Self::BUCKET_BUDGET);
        let g_account_tx_fill = recorder.register_gauge("account_tx.fill", "tokens");
        let g_inflight = recorder.register_gauge("cluster.inflight", "ops");
        let g_fault_windows = recorder.register_gauge("faults.active_windows", "windows");
        let g_up_backlog = recorder.register_gauge("account_up.backlog", "seconds");
        let g_down_backlog = recorder.register_gauge("account_down.backlog", "seconds");
        let g_table_frontend_backlog = recorder.register_gauge("table_frontend.backlog", "seconds");
        let g_nic_backlog = recorder.register_gauge("nic.backlog", "seconds");
        let c_submitted = recorder.register_counter("ops.submitted");
        let c_throttled = recorder.register_counter("ops.throttled");
        let c_ambiguous = recorder.register_counter("ops.ambiguous");
        ClusterTimeline {
            recorder,
            g_account_tx_fill,
            g_inflight,
            g_fault_windows,
            g_up_backlog,
            g_down_backlog,
            g_table_frontend_backlog,
            g_nic_backlog,
            c_submitted,
            c_throttled,
            c_ambiguous,
            submitted: 0,
            throttled: 0,
            ambiguous: 0,
            slot_series: Vec::new(),
            slot_sat: Vec::new(),
            account_tx_sat: SaturationTracker::new(),
            inflight: BinaryHeap::new(),
        }
    }

    /// The recorded series and events.
    pub fn recorder(&self) -> &GaugeRecorder {
        &self.recorder
    }

    /// Record one slot's state at an arrival. `bucket_fill` is present for
    /// queue/table partitions, `pipe_backlog_s` for blob partitions.
    pub(crate) fn observe_slot(
        &mut self,
        now: SimTime,
        slot_id: usize,
        key: &PartitionKey,
        bucket_fill: Option<f64>,
        pipe_backlog_s: Option<f64>,
        fifo_backlog_s: f64,
    ) {
        if self.slot_series.len() <= slot_id {
            self.slot_series.resize_with(slot_id + 1, || None);
            self.slot_sat
                .resize_with(slot_id + 1, SaturationTracker::new);
        }
        if let Some(fill) = bucket_fill {
            // A bucket is saturated when not even one token is left: the
            // next arrival at this instant would be throttled.
            self.slot_sat[slot_id].observe(now, fill < 1.0);
        }
        if self.slot_series[slot_id].is_none() {
            let label = key.to_string();
            let fill_id = bucket_fill.map(|_| {
                self.recorder
                    .register_gauge(format!("bucket_fill:{label}"), "tokens")
            });
            let pipe_id = pipe_backlog_s.map(|_| {
                self.recorder
                    .register_gauge(format!("blob_write_backlog:{label}"), "seconds")
            });
            let fifo_id = self
                .recorder
                .register_gauge(format!("fifo_backlog:{label}"), "seconds");
            self.slot_series[slot_id] = Some(SlotSeries {
                fill: fill_id,
                pipe_backlog: pipe_id,
                fifo_backlog: fifo_id,
            });
        }
        if let Some(series) = &self.slot_series[slot_id] {
            if let (Some(id), Some(v)) = (series.fill, bucket_fill) {
                self.recorder.record_gauge(id, now, v);
            }
            if let (Some(id), Some(v)) = (series.pipe_backlog, pipe_backlog_s) {
                self.recorder.record_gauge(id, now, v);
            }
            self.recorder
                .record_gauge(series.fifo_backlog, now, fifo_backlog_s);
        }
    }

    /// Record the cluster-wide gauges at an arrival.
    pub(crate) fn observe_cluster(&mut self, now: SimTime, s: ClusterSample) {
        self.account_tx_sat.observe(now, s.account_tx_fill < 1.0);
        self.recorder
            .record_gauge(self.g_account_tx_fill, now, s.account_tx_fill);
        self.recorder
            .record_gauge(self.g_up_backlog, now, s.up_backlog_s);
        self.recorder
            .record_gauge(self.g_down_backlog, now, s.down_backlog_s);
        self.recorder.record_gauge(
            self.g_table_frontend_backlog,
            now,
            s.table_frontend_backlog_s,
        );
        if let Some(v) = s.nic_backlog_s {
            self.recorder.record_gauge(self.g_nic_backlog, now, v);
        }
        self.recorder
            .record_gauge(self.g_fault_windows, now, s.fault_windows as f64);
        // Drain completions the virtual clock has passed, then record how
        // many operations are still in flight.
        while let Some(Reverse(done)) = self.inflight.peek().copied() {
            if done <= now.as_nanos() {
                self.inflight.pop();
            } else {
                break;
            }
        }
        self.recorder
            .record_gauge(self.g_inflight, now, self.inflight.len() as f64);
    }

    /// Account one ambiguous outcome (the client observed a timeout and
    /// cannot know whether the operation executed) at `now`.
    pub(crate) fn note_ambiguous(&mut self, now: SimTime) {
        self.ambiguous += 1;
        self.recorder
            .record_counter(self.c_ambiguous, now, self.ambiguous as f64);
    }

    /// Account one submitted operation's outcome: arrival at `now`,
    /// (virtual) completion at `done`, throttled or not.
    pub(crate) fn note_outcome(&mut self, now: SimTime, done: SimTime, throttled: bool) {
        self.submitted += 1;
        if throttled {
            self.throttled += 1;
        }
        self.recorder
            .record_counter(self.c_submitted, now, self.submitted as f64);
        self.recorder
            .record_counter(self.c_throttled, now, self.throttled as f64);
        self.inflight.push(Reverse(done.as_nanos()));
    }

    /// Time-weighted saturation of one slot's token bucket, if observed.
    pub(crate) fn slot_saturation(&self, slot_id: usize, end: SimTime) -> Option<f64> {
        self.slot_sat
            .get(slot_id)
            .filter(|t| t.observed())
            .map(|t| t.fraction(end))
    }

    /// Time-weighted saturation of the account transaction bucket.
    pub(crate) fn account_tx_saturation(&self, end: SimTime) -> f64 {
        self.account_tx_sat.fraction(end)
    }
}

/// Time-weighted usage of one cluster resource over a run — the raw
/// material of bottleneck attribution.
#[derive(Clone, Debug, Serialize)]
pub struct ResourceUsage {
    /// Stable resource label (e.g. `bucket:queue:mix-shared`,
    /// `pipe:table_frontend`, `account_tx`).
    pub resource: String,
    /// Resource kind: `token_bucket`, `fifo` or `pipe`.
    pub kind: String,
    /// Fraction of the observed window the resource was saturated
    /// (buckets: time with < 1 token; FIFOs/pipes: busy-time utilization).
    pub saturation: f64,
    /// Admissions rejected by this resource (token buckets only).
    pub throttled: u64,
    /// Total busy time, seconds (FIFOs and pipes).
    pub busy_s: f64,
}

impl ResourceUsage {
    /// Build a pipe/FIFO usage row from exact busy-time accounting.
    pub(crate) fn busy(resource: String, kind: &str, busy: Duration, window: Duration) -> Self {
        let w = window.as_secs_f64();
        ResourceUsage {
            resource,
            kind: kind.to_string(),
            saturation: if w > 0.0 {
                (busy.as_secs_f64() / w).min(1.0)
            } else {
                0.0
            },
            throttled: 0,
            busy_s: busy.as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn every_slot_gets_a_series_within_the_adaptive_budget() {
        // 5 slots past the old 64-series cap: all of them get gauge series
        // now (no drop cliff), and the adaptive budget keeps total bucket
        // memory bounded no matter how many slots register.
        let mut tl = ClusterTimeline::new(Duration::from_millis(10));
        let slots = 69;
        for i in 0..slots {
            let key = PartitionKey::Queue {
                queue: format!("q{i}"),
            };
            for t in 0..20u64 {
                tl.observe_slot(at(i as u64 * 100 + t), i, &key, Some(50.0), None, 0.0);
            }
        }
        let fills = tl
            .recorder()
            .gauges()
            .iter()
            .filter(|g| g.name.starts_with("bucket_fill:"))
            .count();
        assert_eq!(fills, slots, "every partition slot has its own series");
        assert!(tl.recorder().total_buckets() <= ClusterTimeline::BUCKET_BUDGET);
        // Saturation tracking covers every slot too.
        assert!(tl.slot_saturation(slots - 1, at(100_000)).is_some());
    }

    #[test]
    fn inflight_gauge_tracks_outstanding_completions() {
        let mut tl = ClusterTimeline::new(Duration::from_millis(1));
        let sample = |tl: &mut ClusterTimeline, t| {
            tl.observe_cluster(
                t,
                ClusterSample {
                    account_tx_fill: 100.0,
                    up_backlog_s: 0.0,
                    down_backlog_s: 0.0,
                    table_frontend_backlog_s: 0.0,
                    nic_backlog_s: None,
                    fault_windows: 0,
                },
            );
        };
        tl.note_outcome(at(0), at(100), false);
        tl.note_outcome(at(1), at(50), false);
        sample(&mut tl, at(10)); // both still in flight
        sample(&mut tl, at(60)); // the at(50) completion drained
        sample(&mut tl, at(200)); // all drained
        let inflight = tl
            .recorder()
            .gauges()
            .iter()
            .find(|g| g.name == "cluster.inflight")
            .unwrap();
        let values: Vec<f64> = inflight.series.iter().map(|(_, b)| b.last).collect();
        assert_eq!(values, vec![2.0, 1.0, 0.0]);
    }

    #[test]
    fn counters_and_saturation_accumulate() {
        let mut tl = ClusterTimeline::new(Duration::from_millis(100));
        let key = PartitionKey::Queue { queue: "q".into() };
        // Saturated from t=0 to t=200, then recovered.
        tl.observe_slot(at(0), 0, &key, Some(0.2), None, 0.0);
        tl.observe_slot(at(200), 0, &key, Some(5.0), None, 0.0);
        tl.note_outcome(at(0), at(1), true);
        tl.note_outcome(at(200), at(201), false);
        let sat = tl.slot_saturation(0, at(400)).unwrap();
        assert!((sat - 0.5).abs() < 1e-12, "saturation {sat}");
        let throttled = tl
            .recorder()
            .counters()
            .iter()
            .find(|c| c.name == "ops.throttled")
            .unwrap();
        let total: f64 = throttled.series.series().iter().map(|(_, b)| b.sum).sum();
        assert_eq!(total, 1.0);
    }
}
