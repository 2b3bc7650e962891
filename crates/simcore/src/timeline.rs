//! Virtual-time telemetry: gauge timelines, counter-delta series and
//! saturation tracking.
//!
//! Aggregates (histograms, counters) answer *how much*; a timeline answers
//! *when*. [`GaugeRecorder`] collects samples of registered gauges against
//! the virtual clock and stores them in [`TimeSeries`] buckets of a
//! configurable resolution. Storage is O(1) amortized per sample and
//! bounded for arbitrarily long runs: when a series exceeds its bucket
//! budget it **coarsens by merging** — adjacent buckets are pairwise
//! merged and the resolution doubles, so a series always covers the whole
//! run at the finest resolution its budget allows. An optional **adaptive
//! global budget** ([`GaugeRecorder::with_adaptive_budget`]) additionally
//! bounds the total across all series: when exceeded, every series
//! shrinks to its fair share, so per-series resolution degrades with
//! observed sample rate instead of capping how many series may exist.
//!
//! Everything here is passive: recording reads the virtual clock it is
//! handed and never advances or perturbs simulation state. The intended
//! wiring is that a model samples its resources (queue depths, token-bucket
//! fill, inflight counts) through side-effect-free accessors at event
//! arrival times, so enabling a timeline cannot change any simulated
//! outcome.

use crate::time::SimTime;
use std::time::Duration;

/// Handle to a registered gauge series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered counter series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// Aggregated samples of one time bucket.
#[derive(Clone, Copy, Debug)]
pub struct Bucket {
    /// Smallest sample in the bucket.
    pub min: f64,
    /// Largest sample in the bucket.
    pub max: f64,
    /// Last sample in the bucket (arrival order).
    pub last: f64,
    /// Sum of samples (for means; for counter series this is the delta).
    pub sum: f64,
    /// Number of samples merged in.
    pub count: u64,
}

impl Bucket {
    fn of(v: f64) -> Self {
        Bucket {
            min: v,
            max: v,
            last: v,
            sum: v,
            count: 1,
        }
    }

    fn push(&mut self, v: f64) {
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.last = v;
        self.sum += v;
        self.count += 1;
    }

    /// Merge a later bucket into this one (coarsening).
    fn merge(&mut self, other: &Bucket) {
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.last = other.last;
        self.sum += other.sum;
        self.count += other.count;
    }

    /// Mean of the samples in the bucket.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A bounded, self-coarsening series of time buckets.
///
/// Buckets are stored sparsely as `(bucket_index, stats)` pairs in
/// ascending index order; sampling an empty stretch of virtual time costs
/// nothing. Samples are expected in non-decreasing time order (the event
/// heap delivers arrivals that way); a defensively-handled out-of-order
/// sample merges into the newest bucket.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    resolution_ns: u64,
    max_buckets: usize,
    buckets: Vec<(u64, Bucket)>,
}

impl TimeSeries {
    /// An empty series at the given resolution, keeping at most
    /// `max_buckets` buckets before coarsening.
    pub fn new(resolution: Duration, max_buckets: usize) -> Self {
        TimeSeries {
            resolution_ns: (resolution.as_nanos() as u64).max(1),
            max_buckets: max_buckets.max(2),
            buckets: Vec::new(),
        }
    }

    /// Record one sample at virtual time `t`.
    pub fn record(&mut self, t: SimTime, v: f64) {
        let idx = t.as_nanos() / self.resolution_ns;
        match self.buckets.last_mut() {
            // Same bucket as the previous sample, or a (defensive)
            // out-of-order sample: fold into the newest bucket.
            Some((last_idx, b)) if *last_idx >= idx => b.push(v),
            _ => {
                self.buckets.push((idx, Bucket::of(v)));
                if self.buckets.len() > self.max_buckets {
                    self.coarsen();
                }
            }
        }
    }

    /// Halve the resolution by merging adjacent bucket pairs. Amortized
    /// O(1) per sample: each coarsening halves the bucket count, so a
    /// series of n samples coarsens at most log(n) times over its life.
    fn coarsen(&mut self) {
        self.resolution_ns = self.resolution_ns.saturating_mul(2);
        let mut out: Vec<(u64, Bucket)> = Vec::with_capacity(self.buckets.len() / 2 + 1);
        for (idx, b) in self.buckets.drain(..) {
            let nidx = idx / 2;
            match out.last_mut() {
                Some((i, acc)) if *i == nidx => acc.merge(&b),
                _ => out.push((nidx, b)),
            }
        }
        self.buckets = out;
    }

    /// Tighten the bucket budget to `max` (never below 2) and coarsen
    /// until the series fits. Tightening is permanent: later samples keep
    /// respecting the new budget. Used by [`GaugeRecorder`]'s adaptive
    /// global budget to shrink each series to its fair share.
    pub fn shrink_to(&mut self, max: usize) {
        self.max_buckets = max.max(2);
        while self.buckets.len() > self.max_buckets {
            self.coarsen();
        }
    }

    /// Current bucket width (grows as the series coarsens).
    pub fn resolution(&self) -> Duration {
        Duration::from_nanos(self.resolution_ns)
    }

    /// Number of retained buckets.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether no sample was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Total samples recorded over the series' life.
    pub fn sample_count(&self) -> u64 {
        self.buckets.iter().map(|(_, b)| b.count).sum()
    }

    /// Iterate `(bucket_start_time, bucket)` in time order.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &Bucket)> + '_ {
        let res = self.resolution_ns;
        self.buckets
            .iter()
            .map(move |(idx, b)| (SimTime(idx.saturating_mul(res)), b))
    }
}

/// A monotone counter sampled as per-bucket deltas: feed it cumulative
/// totals and each bucket's `sum` holds the increment that landed in that
/// bucket (so `sum / resolution` is a rate).
#[derive(Clone, Debug)]
pub struct CounterSeries {
    last_total: f64,
    series: TimeSeries,
}

impl CounterSeries {
    fn new(resolution: Duration, max_buckets: usize) -> Self {
        CounterSeries {
            last_total: 0.0,
            series: TimeSeries::new(resolution, max_buckets),
        }
    }

    /// Record the counter's cumulative value at time `t`; the positive
    /// delta since the previous observation is what lands in the series.
    pub fn record_total(&mut self, t: SimTime, total: f64) {
        let delta = (total - self.last_total).max(0.0);
        self.last_total = total;
        self.series.record(t, delta);
    }

    /// Tighten the underlying series' bucket budget (see
    /// [`TimeSeries::shrink_to`]).
    pub fn shrink_to(&mut self, max: usize) {
        self.series.shrink_to(max);
    }

    /// The delta series.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }
}

/// A discrete event on the timeline (fault window edges, breaker
/// transitions, retry storms).
#[derive(Clone, Debug)]
pub struct TimelineEvent {
    /// Virtual time of the event.
    pub at: SimTime,
    /// Event kind (stable snake_case, e.g. `breaker_open`).
    pub kind: String,
    /// Free-form label (partition, fault description, …).
    pub label: String,
}

/// One registered gauge with its series.
#[derive(Clone, Debug)]
pub struct GaugeSeries {
    /// Stable series name (e.g. `account_tx.fill`).
    pub name: String,
    /// Unit label (e.g. `tokens`, `ops`, `seconds`).
    pub unit: String,
    /// The samples.
    pub series: TimeSeries,
}

/// One registered counter with its delta series.
#[derive(Clone, Debug)]
pub struct CounterDeltaSeries {
    /// Stable series name (e.g. `ops.completed`).
    pub name: String,
    /// The per-bucket deltas.
    pub series: CounterSeries,
}

/// The telemetry hub: registered gauges, counters and a bounded event log,
/// all sampled against virtual time.
#[derive(Clone, Debug)]
pub struct GaugeRecorder {
    resolution: Duration,
    max_buckets: usize,
    gauges: Vec<GaugeSeries>,
    counters: Vec<CounterDeltaSeries>,
    events: Vec<TimelineEvent>,
    max_events: usize,
    dropped_events: u64,
    /// Global bucket budget across every series (None: per-series caps
    /// only, the original behavior).
    bucket_budget: Option<usize>,
    /// Running total of live buckets across every series.
    total_buckets: usize,
    /// Series holding at least one bucket (a series never empties again).
    live: usize,
    /// The fair share the last budget pass shrank every series to.
    enforced_fair: Option<usize>,
    /// Series a pass at an unchanged fair share still has to visit: those
    /// registered since the last pass (their budget is still the
    /// recorder's default) and those a sample left over their budget.
    unsettled: Vec<SeriesRef>,
}

/// One registered series, gauge or counter, by its index.
#[derive(Clone, Copy, Debug)]
enum SeriesRef {
    Gauge(usize),
    Counter(usize),
}

impl GaugeRecorder {
    /// Default bucket budget per series.
    pub const DEFAULT_MAX_BUCKETS: usize = 512;
    /// Default event-log bound.
    pub const DEFAULT_MAX_EVENTS: usize = 4096;

    /// A recorder sampling at the given virtual-time resolution.
    pub fn new(resolution: Duration) -> Self {
        Self::with_limits(
            resolution,
            Self::DEFAULT_MAX_BUCKETS,
            Self::DEFAULT_MAX_EVENTS,
        )
    }

    /// A recorder with explicit bucket and event budgets.
    pub fn with_limits(resolution: Duration, max_buckets: usize, max_events: usize) -> Self {
        GaugeRecorder {
            resolution,
            max_buckets,
            gauges: Vec::new(),
            counters: Vec::new(),
            events: Vec::new(),
            max_events,
            dropped_events: 0,
            bucket_budget: None,
            total_buckets: 0,
            live: 0,
            enforced_fair: None,
            unsettled: Vec::new(),
        }
    }

    /// Floor below which the adaptive budget never shrinks one series: a
    /// handful of buckets keeps even starved series able to show shape.
    pub const MIN_SERIES_BUCKETS: usize = 8;

    /// Enable the adaptive global bucket budget: the recorder tracks total
    /// buckets across *all* series, and whenever the total exceeds
    /// `total`, every non-empty series shrinks to its fair share
    /// (`total / live_series`, floored at [`Self::MIN_SERIES_BUCKETS`]) by
    /// coarsening its own resolution. A series' resolution thus degrades
    /// with its own sample rate and with global series pressure — memory
    /// stays bounded without any fixed cap on the *number* of series. When
    /// the floor dominates (more than `total / MIN_SERIES_BUCKETS` live
    /// series) the budget is exceeded by at most the floor per series.
    pub fn with_adaptive_budget(mut self, total: usize) -> Self {
        self.bucket_budget = Some(total.max(Self::MIN_SERIES_BUCKETS));
        self
    }

    /// The configured global bucket budget, if adaptive mode is on.
    pub fn bucket_budget(&self) -> Option<usize> {
        self.bucket_budget
    }

    /// Live buckets across every series right now.
    pub fn total_buckets(&self) -> usize {
        self.total_buckets
    }

    /// Account a series' bucket-count change and re-balance if the global
    /// budget is exceeded.
    fn note_growth(&mut self, series: SeriesRef, before: usize, after: usize) {
        if after > before {
            if before == 0 {
                self.live += 1;
            }
            // A sparse series' one coarsening step need not make it fit.
            let max = self.series_mut(series).max_buckets;
            if before <= max && after > max {
                self.unsettled.push(series);
            }
        }
        self.total_buckets = (self.total_buckets + after).saturating_sub(before);
        if let Some(budget) = self.bucket_budget {
            if self.total_buckets > budget {
                self.enforce_budget(budget);
            }
        }
    }

    fn series_mut(&mut self, series: SeriesRef) -> &mut TimeSeries {
        match series {
            SeriesRef::Gauge(i) => &mut self.gauges[i].series,
            SeriesRef::Counter(i) => &mut self.counters[i].series.series,
        }
    }

    /// Shrink every series to its fair share of the budget.
    ///
    /// The share only ever falls (`live` only grows), and a series shrunk
    /// to it keeps `max_buckets == fair` from then on, for which
    /// `shrink_to(fair)` does nothing unless a sample left it over that
    /// budget. So while the share stands where the last pass left it, only
    /// the `unsettled` series need visiting — which is what keeps a
    /// recorder past its floor (`total_buckets > budget` on every sample)
    /// at O(1) per sample instead of a pass over every series.
    fn enforce_budget(&mut self, budget: usize) {
        // Only reached with `total_buckets > budget`, so some series is live.
        let fair = (budget / self.live).clamp(Self::MIN_SERIES_BUCKETS, self.max_buckets.max(2));
        if self.enforced_fair != Some(fair) {
            self.enforced_fair = Some(fair);
            self.unsettled.clear();
            self.unsettled
                .extend((0..self.gauges.len()).map(SeriesRef::Gauge));
            self.unsettled
                .extend((0..self.counters.len()).map(SeriesRef::Counter));
        }
        while let Some(series) = self.unsettled.pop() {
            let series = self.series_mut(series);
            let before = series.len();
            series.shrink_to(fair);
            let freed = before - series.len();
            self.total_buckets -= freed;
        }
    }

    /// Configured base resolution (individual series may have coarsened).
    pub fn resolution(&self) -> Duration {
        self.resolution
    }

    /// Register a gauge series; the returned id is its stable handle.
    pub fn register_gauge(&mut self, name: impl Into<String>, unit: impl Into<String>) -> GaugeId {
        self.gauges.push(GaugeSeries {
            name: name.into(),
            unit: unit.into(),
            series: TimeSeries::new(self.resolution, self.max_buckets),
        });
        let id = self.gauges.len() - 1;
        self.unsettled.push(SeriesRef::Gauge(id));
        GaugeId(id)
    }

    /// Record one gauge sample.
    pub fn record_gauge(&mut self, id: GaugeId, t: SimTime, v: f64) {
        let before = self.gauges[id.0].series.len();
        self.gauges[id.0].series.record(t, v);
        let after = self.gauges[id.0].series.len();
        self.note_growth(SeriesRef::Gauge(id.0), before, after);
    }

    /// Register a counter series (fed cumulative totals).
    pub fn register_counter(&mut self, name: impl Into<String>) -> CounterId {
        self.counters.push(CounterDeltaSeries {
            name: name.into(),
            series: CounterSeries::new(self.resolution, self.max_buckets),
        });
        let id = self.counters.len() - 1;
        self.unsettled.push(SeriesRef::Counter(id));
        CounterId(id)
    }

    /// Record a counter's cumulative value.
    pub fn record_counter(&mut self, id: CounterId, t: SimTime, total: f64) {
        let before = self.counters[id.0].series.series().len();
        self.counters[id.0].series.record_total(t, total);
        let after = self.counters[id.0].series.series().len();
        self.note_growth(SeriesRef::Counter(id.0), before, after);
    }

    /// Append a discrete event (bounded; overflow is counted, not kept).
    pub fn push_event(&mut self, at: SimTime, kind: impl Into<String>, label: impl Into<String>) {
        if self.events.len() < self.max_events {
            self.events.push(TimelineEvent {
                at,
                kind: kind.into(),
                label: label.into(),
            });
        } else {
            self.dropped_events += 1;
        }
    }

    /// Registered gauges in registration order.
    pub fn gauges(&self) -> &[GaugeSeries] {
        &self.gauges
    }

    /// Registered counters in registration order.
    pub fn counters(&self) -> &[CounterDeltaSeries] {
        &self.counters
    }

    /// The retained events in arrival order.
    pub fn events(&self) -> &[TimelineEvent] {
        &self.events
    }

    /// Events lost to the bound.
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }
}

/// Exact time-weighted saturation accounting in O(1) memory.
///
/// Feed it a boolean "is this resource saturated?" observation at every
/// arrival; between observations the last state is carried forward, which
/// is exact for state that only changes at arrivals (as all resources in a
/// discrete-event model do).
#[derive(Clone, Copy, Debug, Default)]
pub struct SaturationTracker {
    started: bool,
    start: SimTime,
    last: SimTime,
    is_sat: bool,
    saturated_ns: u64,
}

impl SaturationTracker {
    /// A tracker that has seen nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observe the resource's state at time `now` (non-decreasing).
    pub fn observe(&mut self, now: SimTime, saturated: bool) {
        if !self.started {
            self.started = true;
            self.start = now;
            self.last = now;
        }
        if now > self.last {
            if self.is_sat {
                self.saturated_ns += now.as_nanos() - self.last.as_nanos();
            }
            self.last = now;
        }
        self.is_sat = saturated;
    }

    /// Fraction of `[first_observation, end]` spent saturated. Pure: the
    /// tracker itself is not advanced.
    pub fn fraction(&self, end: SimTime) -> f64 {
        if !self.started {
            return 0.0;
        }
        let mut sat = self.saturated_ns;
        let mut last = self.last;
        if end > last && self.is_sat {
            sat += end.as_nanos() - last.as_nanos();
        }
        if end > last {
            last = end;
        }
        let window = last.as_nanos().saturating_sub(self.start.as_nanos());
        if window == 0 {
            return if self.is_sat { 1.0 } else { 0.0 };
        }
        sat as f64 / window as f64
    }

    /// Whether any observation was made.
    pub fn observed(&self) -> bool {
        self.started
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn series_buckets_by_resolution() {
        let mut s = TimeSeries::new(Duration::from_millis(100), 512);
        s.record(at(10), 1.0);
        s.record(at(20), 3.0);
        s.record(at(150), 5.0);
        assert_eq!(s.len(), 2);
        let buckets: Vec<_> = s.iter().collect();
        assert_eq!(buckets[0].0, SimTime::ZERO);
        assert_eq!(buckets[0].1.count, 2);
        assert_eq!(buckets[0].1.min, 1.0);
        assert_eq!(buckets[0].1.max, 3.0);
        assert_eq!(buckets[0].1.last, 3.0);
        assert_eq!(buckets[0].1.mean(), 2.0);
        assert_eq!(buckets[1].0, at(100));
        assert_eq!(buckets[1].1.last, 5.0);
    }

    #[test]
    fn series_coarsens_by_merging_and_stays_bounded() {
        let mut s = TimeSeries::new(Duration::from_millis(1), 8);
        for i in 0..1000u64 {
            s.record(at(i), i as f64);
        }
        assert!(s.len() <= 8, "bounded: {} buckets", s.len());
        // Coarsening must not lose mass: every sample remains accounted.
        assert_eq!(s.sample_count(), 1000);
        let total: f64 = s.iter().map(|(_, b)| b.sum).sum();
        assert_eq!(total, (0..1000u64).map(|i| i as f64).sum::<f64>());
        // Resolution doubled some number of times from the original 1 ms.
        assert!(s.resolution() > Duration::from_millis(1));
        assert_eq!(s.resolution().as_nanos() % 1_000_000, 0);
        // Buckets stay in ascending time order.
        let times: Vec<_> = s.iter().map(|(t, _)| t).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
    }

    #[test]
    fn out_of_order_sample_folds_into_newest_bucket() {
        let mut s = TimeSeries::new(Duration::from_millis(10), 512);
        s.record(at(100), 1.0);
        s.record(at(5), 2.0); // defensive path
        assert_eq!(s.len(), 1);
        assert_eq!(s.sample_count(), 2);
    }

    #[test]
    fn counter_series_records_deltas() {
        let mut c = CounterSeries::new(Duration::from_millis(100), 512);
        c.record_total(at(10), 5.0);
        c.record_total(at(50), 12.0);
        c.record_total(at(250), 12.0);
        c.record_total(at(260), 20.0);
        let buckets: Vec<_> = c.series().iter().collect();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].1.sum, 12.0); // 5 + 7
        assert_eq!(buckets[1].1.sum, 8.0); // 0 + 8
    }

    #[test]
    fn recorder_routes_by_id_and_bounds_events() {
        let mut r = GaugeRecorder::with_limits(Duration::from_millis(10), 64, 2);
        let g1 = r.register_gauge("depth", "ops");
        let g2 = r.register_gauge("fill", "tokens");
        let c1 = r.register_counter("ops");
        r.record_gauge(g1, at(1), 4.0);
        r.record_gauge(g2, at(1), 50.0);
        r.record_counter(c1, at(1), 10.0);
        assert_eq!(r.gauges().len(), 2);
        assert_eq!(r.gauges()[0].name, "depth");
        assert_eq!(r.gauges()[0].unit, "ops");
        assert_eq!(r.gauges()[1].series.sample_count(), 1);
        assert_eq!(r.counters()[0].series.series().sample_count(), 1);
        for i in 0..5 {
            r.push_event(at(i), "k", "l");
        }
        assert_eq!(r.events().len(), 2);
        assert_eq!(r.dropped_events(), 3);
    }

    #[test]
    fn adaptive_budget_bounds_total_buckets_across_series() {
        let mut r = GaugeRecorder::new(Duration::from_millis(1)).with_adaptive_budget(1024);
        let ids: Vec<_> = (0..64)
            .map(|i| r.register_gauge(format!("g{i}"), "x"))
            .collect();
        for t in 0..200u64 {
            for &id in &ids {
                r.record_gauge(id, at(t), t as f64);
            }
        }
        let total: usize = r.gauges().iter().map(|g| g.series.len()).sum();
        assert!(total <= 1024, "budget exceeded: {total} buckets");
        assert_eq!(r.total_buckets(), total);
        // No series was dropped and no sample was lost — only coarsened.
        assert_eq!(r.gauges().len(), 64);
        for g in r.gauges() {
            assert_eq!(g.series.sample_count(), 200, "{}", g.name);
        }
    }

    #[test]
    fn hot_series_coarsen_while_cold_series_stay_fine() {
        let mut r = GaugeRecorder::new(Duration::from_millis(1)).with_adaptive_budget(64);
        let hot = r.register_gauge("hot", "x");
        let cold = r.register_gauge("cold", "x");
        r.record_gauge(cold, at(0), 1.0);
        r.record_gauge(cold, at(5), 1.0);
        for t in 0..500u64 {
            r.record_gauge(hot, at(t), 1.0);
        }
        let (hot_s, cold_s) = (&r.gauges()[0].series, &r.gauges()[1].series);
        // The fast sampler absorbed the coarsening; the quiet series kept
        // the base resolution.
        assert!(hot_s.resolution() > cold_s.resolution());
        assert_eq!(cold_s.resolution(), Duration::from_millis(1));
        assert_eq!(hot_s.sample_count(), 500);
    }

    #[test]
    fn without_adaptive_budget_behavior_is_unchanged() {
        let mut adaptive = GaugeRecorder::with_limits(Duration::from_millis(1), 512, 16);
        let mut plain = GaugeRecorder::with_limits(Duration::from_millis(1), 512, 16);
        let a = adaptive.register_gauge("g", "x");
        let p = plain.register_gauge("g", "x");
        for t in 0..300u64 {
            adaptive.record_gauge(a, at(t), t as f64);
            plain.record_gauge(p, at(t), t as f64);
        }
        assert_eq!(
            adaptive.gauges()[0].series.len(),
            plain.gauges()[0].series.len()
        );
        assert_eq!(
            adaptive.gauges()[0].series.resolution(),
            plain.gauges()[0].series.resolution()
        );
        assert_eq!(plain.bucket_budget(), None);
    }

    /// The recorder as it was before budget enforcement was amortised,
    /// kept as the reference: a full pass over every series on every new
    /// bucket past the budget, `live` and the total recounted each time.
    impl GaugeRecorder {
        fn recount_live(&self) -> usize {
            self.gauges.iter().filter(|g| !g.series.is_empty()).count()
                + self
                    .counters
                    .iter()
                    .filter(|c| !c.series.series().is_empty())
                    .count()
        }

        fn enforce_budget_full_pass(&mut self, budget: usize) {
            let live = self.recount_live();
            if live == 0 {
                return;
            }
            let fair = (budget / live).clamp(Self::MIN_SERIES_BUCKETS, self.max_buckets.max(2));
            let mut total = 0usize;
            for g in &mut self.gauges {
                g.series.shrink_to(fair);
                total += g.series.len();
            }
            for c in &mut self.counters {
                c.series.shrink_to(fair);
                total += c.series.series().len();
            }
            self.total_buckets = total;
        }

        fn note_growth_full_pass(&mut self, before: usize, after: usize) {
            self.total_buckets = (self.total_buckets + after).saturating_sub(before);
            if let Some(budget) = self.bucket_budget {
                if self.total_buckets > budget {
                    self.enforce_budget_full_pass(budget);
                }
            }
        }
    }

    /// The amortised recorder and the full-pass reference, fed in step.
    /// Series `i` is a gauge when `i` is even and a counter when odd.
    struct Pair {
        amortised: GaugeRecorder,
        reference: GaugeRecorder,
        series: usize,
    }

    impl Pair {
        fn new(budget: usize) -> Self {
            let make = || GaugeRecorder::new(Duration::from_millis(1)).with_adaptive_budget(budget);
            Pair {
                amortised: make(),
                reference: make(),
                series: 0,
            }
        }

        fn register(&mut self) {
            for r in [&mut self.amortised, &mut self.reference] {
                if self.series.is_multiple_of(2) {
                    r.register_gauge("g", "x");
                } else {
                    r.register_counter("c");
                }
            }
            self.series += 1;
        }

        fn record(&mut self, series: usize, t: SimTime, v: f64) {
            let (slot, r) = (series / 2, &mut self.reference);
            if series.is_multiple_of(2) {
                self.amortised.record_gauge(GaugeId(slot), t, v);
                let before = r.gauges[slot].series.len();
                r.gauges[slot].series.record(t, v);
                r.note_growth_full_pass(before, r.gauges[slot].series.len());
            } else {
                self.amortised.record_counter(CounterId(slot), t, v);
                let before = r.counters[slot].series.series().len();
                r.counters[slot].series.record_total(t, v);
                r.note_growth_full_pass(before, r.counters[slot].series.series().len());
            }
        }

        /// Same budget accounting and, per series, the same resolution,
        /// bucket budget, bucket count and bucket contents.
        fn check(&self) -> Result<(), proptest::test_runner::TestCaseError> {
            let (a, r) = (&self.amortised, &self.reference);
            proptest::prop_assert_eq!(a.total_buckets(), r.total_buckets());
            proptest::prop_assert_eq!(a.live, r.recount_live());
            for (x, y) in a.gauges.iter().zip(&r.gauges) {
                proptest::prop_assert_eq!(format!("{:?}", x.series), format!("{:?}", y.series));
            }
            for (x, y) in a.counters.iter().zip(&r.counters) {
                proptest::prop_assert_eq!(format!("{:?}", x.series), format!("{:?}", y.series));
            }
            Ok(())
        }
    }

    proptest::proptest! {
        /// Random sampling over a growing set of series, under budgets
        /// small enough that the fair share falls step by step to the
        /// floor and then stays there.
        #[test]
        fn prop_amortised_budget_matches_full_pass(
            budget in 8usize..400,
            ops in proptest::collection::vec((0u8..8, 0usize..1000, 0u64..4, 0u32..100), 1..600)
        ) {
            let mut pair = Pair::new(budget);
            pair.register();
            let mut now = 0;
            for (kind, pick, dt, v) in ops {
                if kind == 0 {
                    pair.register();
                } else {
                    now += dt;
                    pair.record(pick % pair.series, at(now), f64::from(v));
                }
                pair.check()?;
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2))]
        /// The production budget (64 × 512 buckets) with more live series
        /// than it has floor-sized shares for (4 096), some of them
        /// registered after the floor took over: the regime in which the
        /// reference makes a full pass on every new bucket.
        #[test]
        fn prop_amortised_budget_matches_full_pass_past_the_floor(
            offset in 0usize..5000,
            late in 1usize..200,
        ) {
            let mut pair = Pair::new(64 * 512);
            for _ in 0..5000 {
                pair.register();
            }
            // One bucket per series per round: the seventh overruns the
            // budget, the ninth starts each series coarsening back under.
            for round in 0..10u64 {
                if round == 7 {
                    for _ in 0..late {
                        pair.register();
                    }
                }
                for i in 0..pair.series {
                    let series = (i + offset) % pair.series;
                    pair.record(series, at(round), (round + i as u64) as f64);
                }
                pair.check()?;
                if round == 7 {
                    proptest::prop_assert!(pair.amortised.live > 4096);
                    proptest::prop_assert!(pair.amortised.total_buckets() > 64 * 512);
                    proptest::prop_assert_eq!(
                        pair.amortised.enforced_fair,
                        Some(GaugeRecorder::MIN_SERIES_BUCKETS)
                    );
                }
            }
        }
    }

    #[test]
    fn shrink_to_coarsens_and_keeps_mass() {
        let mut s = TimeSeries::new(Duration::from_millis(1), 512);
        for t in 0..100u64 {
            s.record(at(t), 1.0);
        }
        assert_eq!(s.len(), 100);
        s.shrink_to(10);
        assert!(s.len() <= 10, "{} buckets", s.len());
        assert_eq!(s.sample_count(), 100);
        // The tightened budget holds for future samples too.
        for t in 100..300u64 {
            s.record(at(t), 1.0);
        }
        assert!(s.len() <= 10, "{} buckets", s.len());
    }

    #[test]
    fn saturation_fraction_is_time_weighted() {
        let mut t = SaturationTracker::new();
        t.observe(at(0), false);
        t.observe(at(100), true); // [0,100) unsaturated
        t.observe(at(300), false); // [100,300) saturated
                                   // Window [0,400]: 200 ms of 400 ms saturated.
        assert!((t.fraction(at(400)) - 0.5).abs() < 1e-12);
        // `fraction` is pure: asking twice gives the same answer.
        assert_eq!(t.fraction(at(400)), t.fraction(at(400)));
        // Carrying the final (unsaturated) state further dilutes.
        assert!(t.fraction(at(800)) < 0.5);
    }

    #[test]
    fn saturation_carries_last_state_to_end() {
        let mut t = SaturationTracker::new();
        t.observe(at(0), true);
        assert!((t.fraction(at(100)) - 1.0).abs() < 1e-12);
        let empty = SaturationTracker::new();
        assert_eq!(empty.fraction(at(100)), 0.0);
    }
}
