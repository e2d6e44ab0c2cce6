//! Summary statistics used throughout the MFC reproduction.
//!
//! The MFC detection rule is built on order statistics of the per-client
//! normalized response times: the coordinator uses the **median** for the
//! Base and Small Query stages and the **90th percentile** for the Large
//! Object stage (paper §2.2.3).  The experiment harness additionally needs
//! histograms for the §5 stopping-crowd-size breakdowns (Figures 7–9,
//! Tables 4–5) and time-weighted averages for the server-side utilization
//! curves (Figures 5–6).

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// Returns the `q`-quantile (`0.0 ≤ q ≤ 1.0`) of `values` using linear
/// interpolation between closest ranks, or `None` for an empty slice.
///
/// The input does not need to be sorted.
///
/// # Examples
///
/// ```
/// use mfc_simcore::stats::percentile;
///
/// let xs = [10.0, 20.0, 30.0, 40.0];
/// assert_eq!(percentile(&xs, 0.5), Some(25.0));
/// assert_eq!(percentile(&xs, 0.0), Some(10.0));
/// assert_eq!(percentile(&xs, 1.0), Some(40.0));
/// assert_eq!(percentile(&[], 0.5), None);
/// ```
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let mut scratch = values.to_vec();
    percentile_mut(&mut scratch, q)
}

/// [`percentile`] over a caller-owned scratch buffer.
///
/// Computes the quantile by *selection* (`select_nth_unstable`) instead of a
/// full sort — O(n) rather than O(n log n) — reordering `values` in the
/// process.  Callers that need several quantiles of the same sample can
/// reuse one buffer across calls (see [`Summary::from_values`]); repeated
/// selection on an already-partitioned buffer is nearly free.
pub fn percentile_mut(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = q * (values.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let frac = rank - lo as f64;
    let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("NaN in percentile input");
    let (_, lo_value, above) = values.select_nth_unstable_by(lo, cmp);
    let lo_value = *lo_value;
    if frac == 0.0 {
        return Some(lo_value);
    }
    // The rank straddles two order statistics; the (lo+1)-th is the minimum
    // of the partition above the pivot.
    let hi_value = above.iter().copied().fold(f64::INFINITY, f64::min);
    Some(lo_value * (1.0 - frac) + hi_value * frac)
}

/// Returns the median of `values`, or `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Returns the arithmetic mean, or `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// A five-number-style summary of a sample.
///
/// # Examples
///
/// ```
/// use mfc_simcore::Summary;
///
/// let s = Summary::from_values(&[1.0, 2.0, 3.0, 4.0, 100.0]).unwrap();
/// assert_eq!(s.count, 5);
/// assert_eq!(s.median, 3.0);
/// assert_eq!(s.max, 100.0);
/// assert!(s.mean > s.median, "the outlier drags the mean up");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 90th percentile — the detector used for the Large Object stage.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Population standard deviation.
    pub std_dev: f64,
}

impl Summary {
    /// Builds a summary from raw samples, or `None` if the slice is empty.
    pub fn from_values(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mean_v = mean(values)?;
        let var = values.iter().map(|v| (v - mean_v).powi(2)).sum::<f64>() / values.len() as f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in values {
            min = min.min(v);
            max = max.max(v);
        }
        // One scratch buffer for all three selection-based quantiles.
        let mut scratch = values.to_vec();
        Some(Summary {
            count: values.len(),
            min,
            max,
            mean: mean_v,
            median: percentile_mut(&mut scratch, 0.5)?,
            p90: percentile_mut(&mut scratch, 0.90)?,
            p99: percentile_mut(&mut scratch, 0.99)?,
            std_dev: var.sqrt(),
        })
    }
}

/// Streaming mean / variance / extrema via Welford's algorithm.
///
/// Used where samples are produced one at a time and storing them all would
/// be wasteful (e.g. per-request service times inside the server simulator).
///
/// # Examples
///
/// ```
/// use mfc_simcore::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-9);
/// assert!((s.std_dev() - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples pushed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the samples, or zero if none were pushed.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or zero with fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }
}

/// A histogram over explicit bucket boundaries.
///
/// The §5 figures report the *fraction of servers* whose stopping crowd size
/// falls into buckets such as 10–20, 20–30, 30–40, 40–50 and "NoStop"; this
/// type produces exactly that kind of breakdown.
///
/// # Examples
///
/// ```
/// use mfc_simcore::Histogram;
///
/// let mut h = Histogram::new(&[10.0, 20.0, 30.0]);
/// h.record(5.0);   // bucket 0: < 10
/// h.record(15.0);  // bucket 1: [10, 20)
/// h.record(25.0);  // bucket 2: [20, 30)
/// h.record(99.0);  // bucket 3: >= 30 (overflow)
/// assert_eq!(h.counts(), &[1, 1, 1, 1]);
/// assert_eq!(h.total(), 4);
/// assert!((h.fraction(1) - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with the given ascending bucket edges.
    ///
    /// With `n` edges there are `n + 1` buckets: `(-inf, e0)`, `[e0, e1)`,
    /// …, `[e(n-1), +inf)`.
    ///
    /// # Panics
    ///
    /// Panics if the edges are not strictly ascending.
    pub fn new(edges: &[f64]) -> Self {
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly ascending"
        );
        Histogram {
            edges: edges.to_vec(),
            counts: vec![0; edges.len() + 1],
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        // Edges are validated strictly ascending at construction, so the
        // first edge above `value` is a partition point — binary search
        // instead of a linear scan.  The negated predicate keeps the old
        // NaN behaviour (all comparisons false => overflow bucket).
        let bucket = self
            .edges
            .partition_point(|&e| !matches!(value.partial_cmp(&e), Some(std::cmp::Ordering::Less)));
        self.counts[bucket] += 1;
    }

    /// Per-bucket counts (length = number of edges + 1).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The bucket edges this histogram was built with.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Total number of recorded observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of observations in bucket `index` (zero if nothing recorded).
    pub fn fraction(&self, index: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.counts[index] as f64 / total as f64
        }
    }

    /// Fractions for all buckets, summing to 1 when any data was recorded.
    pub fn fractions(&self) -> Vec<f64> {
        // One total for the whole vector rather than re-summing every
        // bucket per element (which made this quadratic in bucket count).
        let total = self.total();
        if total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }
}

/// A time-weighted average of a piecewise-constant signal, such as the
/// number of busy workers, resident memory, or access-link utilization.
///
/// The lab validation figures (Figures 5 and 6) plot server-side resource
/// usage against crowd size; the server simulator tracks each resource with
/// one of these and reports the mean level over the epoch.
///
/// # Examples
///
/// ```
/// use mfc_simcore::{TimeWeighted, SimTime, SimDuration};
///
/// let mut util = TimeWeighted::new(SimTime::ZERO, 0.0);
/// util.set(SimTime::ZERO + SimDuration::from_secs(1), 10.0);
/// util.set(SimTime::ZERO + SimDuration::from_secs(3), 0.0);
/// // 1s at 0, 2s at 10, observed over 4s total.
/// assert!((util.average_until(SimTime::ZERO + SimDuration::from_secs(4)) - 5.0).abs() < 1e-9);
/// assert_eq!(util.peak(), 10.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeWeighted {
    start: SimTime,
    last_change: SimTime,
    current: f64,
    weighted_sum: f64,
    peak: f64,
}

impl TimeWeighted {
    /// Starts tracking a signal whose value is `initial` at time `start`.
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeighted {
            start,
            last_change: start,
            current: initial,
            weighted_sum: 0.0,
            peak: initial,
        }
    }

    /// Records that the signal changed to `value` at time `now`.
    ///
    /// Changes must be reported in non-decreasing time order; out-of-order
    /// updates are clamped to the last change time.
    pub fn set(&mut self, now: SimTime, value: f64) {
        let now = now.max(self.last_change);
        let elapsed = (now - self.last_change).as_secs_f64();
        self.weighted_sum += self.current * elapsed;
        self.current = value;
        self.last_change = now;
        self.peak = self.peak.max(value);
    }

    /// Adds `delta` to the current value at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let next = self.current + delta;
        self.set(now, next);
    }

    /// Current value of the signal.
    pub fn current(&self) -> f64 {
        self.current
    }

    /// Largest value the signal has reached.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Time-weighted average of the signal from the start of tracking until
    /// `end`.  Returns the current value exactly if the signal has held it
    /// since the start (including when no time has elapsed).
    pub fn average_until(&self, end: SimTime) -> f64 {
        if self.last_change == self.start {
            return self.current;
        }
        let end = end.max(self.last_change);
        let total = (end - self.start).as_secs_f64();
        let tail = self.current * (end - self.last_change).as_secs_f64();
        (self.weighted_sum + tail) / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 1.0), Some(7.0));
        assert_eq!(percentile(&[1.0, 2.0], 0.5), Some(1.5));
        // Quantiles outside [0,1] are clamped.
        assert_eq!(percentile(&[1.0, 2.0], 2.0), Some(2.0));
        assert_eq!(percentile(&[1.0, 2.0], -1.0), Some(1.0));
    }

    #[test]
    fn percentile_is_order_invariant() {
        let a = [5.0, 1.0, 9.0, 3.0, 7.0];
        let mut b = a;
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            assert_eq!(percentile(&a, q), percentile(&b, q));
        }
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn summary_matches_hand_computation() {
        let s = Summary::from_values(&[2.0, 4.0, 6.0, 8.0]).unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 8.0);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.median, 5.0);
        assert!((s.std_dev - 5.0_f64.sqrt()).abs() < 1e-12);
        assert!(Summary::from_values(&[]).is_none());
    }

    #[test]
    fn online_stats_empty_and_single() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        let mut s = OnlineStats::new();
        s.push(3.0);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), Some(3.0));
        assert_eq!(s.max(), Some(3.0));
    }

    #[test]
    fn online_stats_matches_batch() {
        let values = [1.0, 4.0, 9.0, 16.0, 25.0, 36.0];
        let mut s = OnlineStats::new();
        for v in values {
            s.push(v);
        }
        let batch = Summary::from_values(&values).unwrap();
        assert!((s.mean() - batch.mean).abs() < 1e-9);
        assert!((s.std_dev() - batch.std_dev).abs() < 1e-9);
    }

    #[test]
    fn histogram_buckets() {
        let mut h = Histogram::new(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        for v in [5.0, 10.0, 19.9, 20.0, 45.0, 500.0] {
            h.record(v);
        }
        assert_eq!(h.counts(), &[1, 2, 1, 0, 1, 1]);
        assert_eq!(h.total(), 6);
        let fr = h.fractions();
        assert!((fr.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_bucketing_matches_linear_scan() {
        let edges = [1.0, 2.5, 10.0, 10.5, 100.0];
        let mut h = Histogram::new(&edges);
        let values = [
            -5.0,
            0.0,
            1.0,
            2.49,
            2.5,
            10.0,
            10.49,
            99.9,
            100.0,
            1e9,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NAN,
        ];
        for &v in &values {
            let expected = edges.iter().position(|&e| v < e).unwrap_or(edges.len());
            let before = h.counts()[expected];
            h.record(v);
            assert_eq!(h.counts()[expected], before + 1, "value {v}");
        }
        assert_eq!(h.total(), values.len() as u64);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn histogram_rejects_unsorted_edges() {
        let _ = Histogram::new(&[10.0, 5.0]);
    }

    #[test]
    fn histogram_empty_fraction_is_zero() {
        let h = Histogram::new(&[1.0]);
        assert_eq!(h.fraction(0), 0.0);
    }

    #[test]
    fn time_weighted_average_and_peak() {
        let t0 = SimTime::ZERO;
        let mut w = TimeWeighted::new(t0, 2.0);
        w.set(t0 + SimDuration::from_secs(2), 6.0);
        w.add(t0 + SimDuration::from_secs(4), -6.0);
        // 2s at 2.0 + 2s at 6.0 + 1s at 0.0 over 5 seconds = 16 / 5.
        let avg = w.average_until(t0 + SimDuration::from_secs(5));
        assert!((avg - 3.2).abs() < 1e-9);
        assert_eq!(w.peak(), 6.0);
        assert_eq!(w.current(), 0.0);
    }

    #[test]
    fn time_weighted_no_elapsed_time() {
        let w = TimeWeighted::new(SimTime::ZERO, 7.0);
        assert_eq!(w.average_until(SimTime::ZERO), 7.0);
    }

    #[test]
    fn time_weighted_constant_signal_averages_to_itself_exactly() {
        // 1.25e7 × 21.681882 s / 21.681882 s rounds away from 1.25e7 in
        // floating point; a signal that never changed must still report its
        // value bit for bit.
        let w = TimeWeighted::new(SimTime::ZERO, 1.25e7);
        assert_eq!(
            w.average_until(SimTime::ZERO + SimDuration::from_micros(21_681_882)),
            1.25e7
        );
    }

    #[test]
    fn time_weighted_out_of_order_updates_clamp() {
        let t0 = SimTime::ZERO;
        let mut w = TimeWeighted::new(t0 + SimDuration::from_secs(10), 1.0);
        // An update "before" the last change is treated as happening at the
        // last change time instead of panicking.
        w.set(t0 + SimDuration::from_secs(5), 3.0);
        assert_eq!(w.current(), 3.0);
    }
}
