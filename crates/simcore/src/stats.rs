//! Small statistics helpers used across the benchmark harness.

/// Online mean/min/max/variance accumulator (Welford's algorithm), used for
/// per-operation latency summaries.
#[derive(Clone, Debug)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Default for OnlineStats {
    /// Same as [`OnlineStats::new`]. (A derived `Default` would zero-fill
    /// `min`/`max` instead of starting them at ±∞, silently corrupting any
    /// accumulator created via `entry(..).or_default()`.)
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sample standard deviation (0 for fewer than two observations).
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }
}

/// Sub-bucket resolution of [`Histogram`]: 2^6 = 64 sub-buckets per octave.
const SUB_BITS: u32 = 6;
const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// HDR-style log-bucketed histogram over non-negative durations in seconds.
///
/// Values are quantized to integer nanoseconds and placed into buckets with
/// [`SUB_BUCKETS`] sub-divisions per power of two, giving a fixed relative
/// quantile error bound of [`Histogram::RELATIVE_ERROR`] (1/128, < 0.8 %)
/// for any value above 128 ns; values at or below 127 ns are exact at
/// nanosecond resolution. Memory is O(log range): at most 3 776 buckets,
/// grown lazily, independent of how many observations are recorded.
///
/// Robustness: NaN and negative inputs count as 0, +∞ and anything above
/// [`Histogram::MAX_SECONDS`] (~584 years) clamp to the top — recording
/// never panics. Merging adds bucket counts, so a merged histogram has
/// *identical* buckets to one built from the concatenated streams: count is
/// conserved exactly and sum up to float rounding, under arbitrary merge
/// trees.
#[derive(Clone, Debug)]
pub struct Histogram {
    /// Bucket counts, grown lazily. Index 0 holds observations that
    /// quantize to zero nanoseconds.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    /// Same as [`Histogram::new`] (hand-written for the same ±∞ min/max
    /// reason as [`OnlineStats`]).
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Worst-case relative error of [`Histogram::quantile`] for values in
    /// the logarithmic region (> 127 ns): half a bucket width, 1/128.
    pub const RELATIVE_ERROR: f64 = 1.0 / 128.0;

    /// Largest representable duration in seconds (~584 years); larger and
    /// non-finite inputs clamp here.
    pub const MAX_SECONDS: f64 = 1.8e10;

    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Vec::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Map any f64 into the recordable domain [0, MAX_SECONDS].
    fn sanitize(x: f64) -> f64 {
        if x.is_nan() || x <= 0.0 {
            0.0
        } else {
            x.min(Self::MAX_SECONDS)
        }
    }

    /// Bucket index for a non-zero nanosecond value.
    fn index_of(nanos: u64) -> usize {
        debug_assert!(nanos >= 1);
        let msb = 63 - nanos.leading_zeros();
        if msb <= SUB_BITS {
            // Exact region: one bucket per nanosecond below 2^(SUB_BITS+1).
            nanos as usize
        } else {
            // `nanos >> shift` is a 7-bit value in [64, 128): add, don't
            // OR, so its top bit carries into the octave field.
            let shift = msb - SUB_BITS;
            ((shift as usize) << SUB_BITS) + (nanos >> shift) as usize
        }
    }

    /// Midpoint (representative value) of a bucket, in nanoseconds.
    fn bucket_mid_nanos(index: usize) -> f64 {
        if index < 2 * SUB_BUCKETS {
            index as f64
        } else {
            let shift = (index >> SUB_BITS) - 1;
            let low = (((index & (SUB_BUCKETS - 1)) | SUB_BUCKETS) as u64) << shift;
            let width = 1u64 << shift;
            low as f64 + width as f64 / 2.0
        }
    }

    /// Record one observation (seconds). Never panics; see type docs for
    /// how out-of-domain values are clamped.
    pub fn record(&mut self, x: f64) {
        let x = Self::sanitize(x);
        let nanos = (x * 1e9).round() as u64;
        let idx = if nanos == 0 { 0 } else { Self::index_of(nanos) };
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += x;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merge another histogram into this one (element-wise bucket add).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of (sanitized) observations in seconds — accumulated from
    /// the raw values, not bucket midpoints, so per-phase sums reconcile
    /// with end-to-end sums to float precision.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation (0 when empty). Exact, not bucketed.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty). Exact, not bucketed.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Nearest-rank `q`-quantile (0 ≤ q ≤ 1); 0 when empty. Ranks 0 and
    /// n−1 return the exact min/max; interior ranks return the midpoint of
    /// the rank's bucket, within [`Histogram::RELATIVE_ERROR`] of the
    /// exact order statistic.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        if rank == 0 {
            return self.min;
        }
        if rank == self.count - 1 {
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if rank < seen {
                let v = Self::bucket_mid_nanos(i) * 1e-9;
                return v.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// Per-class quantile recorder. Backed by [`Histogram`], so memory is O(1)
/// in the number of observations (it used to keep every sample in a
/// `Vec<f64>`); quantiles carry the histogram's ≤ 0.8 % relative error.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    hist: Histogram,
}

impl Samples {
    /// An empty recorder.
    pub fn new() -> Self {
        Samples {
            hist: Histogram::new(),
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.hist.record(x);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.hist.count() as usize
    }

    /// Whether no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.hist.is_empty()
    }

    /// Merge another recorder into this one.
    pub fn merge(&mut self, other: &Samples) {
        self.hist.merge(&other.hist);
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        self.hist.quantile(q)
    }

    /// Median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.hist.mean()
    }

    /// The backing histogram.
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-12);
        // Population stddev is 2.0; sample stddev = sqrt(32/7).
        assert!((s.stddev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn default_equals_new_not_zero_fill() {
        // Regression: a derived Default zero-filled min/max, making every
        // `or_default()` accumulator report min = 0 forever.
        let mut s = OnlineStats::default();
        s.record(5.0);
        s.record(9.0);
        assert_eq!(s.min(), 5.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_zeroed() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.stddev(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.record(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &data[..37] {
            left.record(x);
        }
        for &x in &data[37..] {
            right.record(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.stddev() - whole.stddev()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.record(3.0);
        let before = a.clone();
        a.merge(&OnlineStats::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());

        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e.count(), 1);
        assert_eq!(e.mean(), 3.0);
    }

    /// |got − want| within the histogram's advertised relative error.
    fn close(got: f64, want: f64) -> bool {
        (got - want).abs() <= want.abs() * Histogram::RELATIVE_ERROR + 1e-9
    }

    #[test]
    fn histogram_small_values_are_nanosecond_exact() {
        let mut h = Histogram::new();
        // 1..=100 ns lie in the exact region.
        for n in 1..=100u64 {
            h.record(n as f64 * 1e-9);
        }
        assert_eq!(h.count(), 100);
        // Nearest rank: round(99 * 0.5) = 50 → the 51st smallest value.
        assert!((h.quantile(0.5) - 51e-9).abs() < 1e-12);
        assert!((h.quantile(0.0) - 1e-9).abs() < 1e-15);
        assert!((h.quantile(1.0) - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn histogram_quantiles_within_relative_error() {
        let mut h = Histogram::new();
        let data: Vec<f64> = (1..=10_000).map(|i| i as f64 * 1e-4).collect();
        for &x in &data {
            h.record(x);
        }
        for q in [0.1, 0.5, 0.9, 0.95, 0.99, 0.999] {
            let idx = ((data.len() - 1) as f64 * q).round() as usize;
            assert!(
                close(h.quantile(q), data[idx]),
                "q={q} got={} want={}",
                h.quantile(q),
                data[idx]
            );
        }
        assert_eq!(h.quantile(0.0), 1e-4);
        assert_eq!(h.quantile(1.0), 1.0);
        assert!((h.sum() - data.iter().sum::<f64>()).abs() < 1e-6);
    }

    #[test]
    fn histogram_clamps_pathological_inputs() {
        let mut h = Histogram::new();
        for x in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.0,
            0.0,
            5e-324,
            f64::MAX,
            1e9,
        ] {
            h.record(x);
        }
        assert_eq!(h.count(), 8);
        assert!(h.sum().is_finite());
        for q in [0.0, 0.5, 1.0] {
            assert!(h.quantile(q).is_finite());
        }
        assert!(h.max() <= Histogram::MAX_SECONDS);
        assert_eq!(h.min(), 0.0);
    }

    #[test]
    fn histogram_merge_equals_concatenation() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for i in 0..500 {
            let x = (i as f64 * 0.37).sin().abs() * 2.5;
            whole.record(x);
            if i % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.sum() - whole.sum()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), whole.quantile(q), "q={q}");
        }
    }

    #[test]
    fn samples_quantiles() {
        let mut s = Samples::new();
        for x in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.record(x);
        }
        assert_eq!(s.len(), 5);
        assert!(close(s.median(), 3.0));
        // Extreme ranks are exact min/max even under bucketing.
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert!((s.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn samples_empty() {
        let s = Samples::new();
        assert!(s.is_empty());
        assert_eq!(s.median(), 0.0);
        assert_eq!(s.mean(), 0.0);
    }

    proptest::proptest! {
        /// Merged stats equal whole-stream stats for arbitrary splits.
        #[test]
        fn prop_merge_associative(
            data in proptest::collection::vec(-1e6f64..1e6, 1..300),
            split in 0usize..300
        ) {
            let split = split.min(data.len());
            let mut whole = OnlineStats::new();
            for &x in &data { whole.record(x); }
            let mut l = OnlineStats::new();
            let mut r = OnlineStats::new();
            for &x in &data[..split] { l.record(x); }
            for &x in &data[split..] { r.record(x); }
            l.merge(&r);
            proptest::prop_assert_eq!(l.count(), whole.count());
            proptest::prop_assert!((l.mean() - whole.mean()).abs() < 1e-6);
            proptest::prop_assert!((l.sum() - whole.sum()).abs() < 1e-3);
        }

        /// merge(a, b) answers quantiles within the advertised relative
        /// error of the exact order statistics of the concatenated stream.
        #[test]
        fn prop_hist_merge_quantiles_within_bound(
            a in proptest::collection::vec(0.0f64..50.0, 1..200),
            b in proptest::collection::vec(0.0f64..50.0, 1..200),
        ) {
            let mut ha = Histogram::new();
            for &x in &a { ha.record(x); }
            let mut hb = Histogram::new();
            for &x in &b { hb.record(x); }
            ha.merge(&hb);
            let mut all: Vec<f64> = a.iter().chain(&b).copied().collect();
            all.sort_by(|x, y| x.partial_cmp(y).unwrap());
            proptest::prop_assert_eq!(ha.count(), all.len() as u64);
            for q in [0.0f64, 0.25, 0.5, 0.9, 0.99, 1.0] {
                let want = all[((all.len() - 1) as f64 * q).round() as usize];
                let got = ha.quantile(q);
                proptest::prop_assert!(
                    (got - want).abs() <= want.abs() * Histogram::RELATIVE_ERROR + 1e-9,
                    "q={} got={} want={}", q, got, want
                );
            }
        }

        /// Recording extreme values (0, subnormals, 1e9 s, ±∞, NaN) and
        /// merging never panics, and the count is always conserved.
        #[test]
        fn prop_hist_extremes_never_panic(
            picks in proptest::collection::vec((0u8..8u8, 0.0f64..1e9), 1..100),
            split in 0usize..100,
        ) {
            let values: Vec<f64> = picks.iter().map(|&(k, v)| match k {
                0 => 0.0,
                1 => f64::MIN_POSITIVE,
                2 => 5e-324,          // subnormal
                3 => 1e9,             // a billion seconds
                4 => f64::INFINITY,
                5 => f64::NAN,
                6 => -v,
                _ => v,
            }).collect();
            let split = split.min(values.len());
            let mut l = Histogram::new();
            let mut r = Histogram::new();
            for &x in &values[..split] { l.record(x); }
            for &x in &values[split..] { r.record(x); }
            l.merge(&r);
            proptest::prop_assert_eq!(l.count(), values.len() as u64);
            proptest::prop_assert!(l.sum().is_finite());
            for q in [0.0f64, 0.5, 0.999, 1.0] {
                proptest::prop_assert!(l.quantile(q).is_finite());
            }
        }

        /// Count and sum are conserved under arbitrary merge trees: a left
        /// fold and a pairwise reduction over the same chunks agree.
        #[test]
        fn prop_hist_merge_tree_conserves(
            data in proptest::collection::vec(0.0f64..1e4, 1..256),
            chunk in 1usize..32,
        ) {
            let parts: Vec<Histogram> = data.chunks(chunk).map(|c| {
                let mut h = Histogram::new();
                for &x in c { h.record(x); }
                h
            }).collect();
            let mut left = Histogram::new();
            for p in &parts { left.merge(p); }
            let mut level = parts;
            while level.len() > 1 {
                let mut next = Vec::new();
                for pair in level.chunks(2) {
                    let mut m = pair[0].clone();
                    if let Some(b) = pair.get(1) { m.merge(b); }
                    next.push(m);
                }
                level = next;
            }
            let tree = level.pop().unwrap();
            proptest::prop_assert_eq!(left.count(), data.len() as u64);
            proptest::prop_assert_eq!(tree.count(), left.count());
            proptest::prop_assert!(
                (left.sum() - tree.sum()).abs() <= 1e-6 * left.sum().abs().max(1.0)
            );
            for q in [0.25f64, 0.5, 0.75, 0.99] {
                proptest::prop_assert_eq!(left.quantile(q), tree.quantile(q));
            }
        }
    }
}
