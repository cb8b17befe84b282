//! Counters, gauges, and histograms for experiment accounting.
//!
//! The evaluation section of the paper reports per-experiment counters such
//! as "sectors written to the host swap area" or "pages scanned by the host
//! reclaim mechanism". Components of the simulation record these with the
//! cheap cell-based primitives in this module; the benchmark harness then
//! snapshots a [`StatSet`] per run.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use sim_core::Counter;
///
/// let faults = Counter::new();
/// faults.incr();
/// faults.add(2);
/// assert_eq!(faults.get(), 3);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Counter {
    value: Cell<u64>,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Increments the counter by one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.set(self.value.get().saturating_add(n));
    }

    /// Returns the current count.
    pub fn get(&self) -> u64 {
        self.value.get()
    }

    /// Resets the counter to zero, returning the previous value.
    pub fn reset(&self) -> u64 {
        self.value.replace(0)
    }
}

/// A value that can move both up and down (e.g. "pages currently tracked").
///
/// # Examples
///
/// ```
/// use sim_core::Gauge;
///
/// let tracked = Gauge::new();
/// tracked.add(10);
/// tracked.sub(3);
/// assert_eq!(tracked.get(), 7);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Gauge {
    value: Cell<i64>,
    high_water: Cell<i64>,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Adds `n` to the gauge.
    pub fn add(&self, n: i64) {
        let v = self.value.get() + n;
        self.value.set(v);
        if v > self.high_water.get() {
            self.high_water.set(v);
        }
    }

    /// Subtracts `n` from the gauge.
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    /// Sets the gauge to an absolute value.
    pub fn set(&self, v: i64) {
        self.value.set(v);
        if v > self.high_water.get() {
            self.high_water.set(v);
        }
    }

    /// Returns the current value.
    pub fn get(&self) -> i64 {
        self.value.get()
    }

    /// Returns the highest value the gauge ever reached.
    pub fn high_water(&self) -> i64 {
        self.high_water.get()
    }
}

/// A histogram with caller-provided bucket upper bounds.
///
/// Samples larger than the last bound land in an implicit overflow bucket.
///
/// # Examples
///
/// ```
/// use sim_core::Histogram;
///
/// let mut h = Histogram::with_bounds(&[10, 100]);
/// h.record(5);
/// h.record(50);
/// h.record(500);
/// assert_eq!(h.bucket_counts(), &[1, 1, 1]);
/// assert_eq!(h.count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
}

impl Histogram {
    /// Creates a histogram with the given ascending bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn with_bounds(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must be strictly ascending");
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        let idx = self.bounds.partition_point(|&b| b < sample);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += u128::from(sample);
        self.max = self.max.max(sample);
    }

    /// Returns per-bucket counts; the final entry is the overflow bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Returns the number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Returns the arithmetic mean of recorded samples, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            None
        } else {
            Some(self.sum as f64 / self.total as f64)
        }
    }

    /// Returns the largest recorded sample (zero if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The bucket upper bounds this histogram was created with.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Absorbs another histogram's samples into this one.
    ///
    /// Used to combine per-task histograms into a suite-wide view after
    /// parallel experiment execution; merging in a fixed task order keeps
    /// the combined histogram bit-identical across schedules.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms have different bucket bounds.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram bounds must match to merge");
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// A named snapshot of counters taken at the end of an experiment run.
///
/// # Examples
///
/// ```
/// use sim_core::StatSet;
///
/// let mut stats = StatSet::new();
/// stats.set("disk_ops", 12);
/// stats.set("swap_sectors_written", 4096);
/// assert_eq!(stats.get("disk_ops"), 12);
/// assert_eq!(stats.get("missing"), 0);
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct StatSet {
    values: BTreeMap<String, u64>,
}

impl StatSet {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        StatSet::default()
    }

    /// Sets a named value, replacing any previous value.
    pub fn set(&mut self, name: &str, value: u64) {
        self.values.insert(name.to_owned(), value);
    }

    /// Adds to a named value (starting from zero if absent).
    pub fn add(&mut self, name: &str, value: u64) {
        *self.values.entry(name.to_owned()).or_insert(0) += value;
    }

    /// Returns a named value, or zero if it was never set.
    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Merges another snapshot into this one, summing shared names.
    pub fn merge(&mut self, other: &StatSet) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }

    /// Number of named values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no values were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl fmt::Display for StatSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.iter() {
            writeln!(f, "{k:40} {v}")?;
        }
        Ok(())
    }
}

impl FromIterator<(String, u64)> for StatSet {
    fn from_iter<I: IntoIterator<Item = (String, u64)>>(iter: I) -> Self {
        StatSet { values: iter.into_iter().collect() }
    }
}

impl Extend<(String, u64)> for StatSet {
    fn extend<I: IntoIterator<Item = (String, u64)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.add(&k, v);
        }
    }
}

/// Declares a counter record: a struct of public `u64` event counts, each
/// written once with its doc comment, plus a `to_stat_set` method that
/// renders every counter (zero or not) into a [`StatSet`]. A counter's
/// report key is the record's `prefix` followed by the field name.
///
/// # Examples
///
/// ```
/// sim_core::counters! {
///     /// Per-device request accounting.
///     pub struct DeviceStats prefix "dev_" {
///         /// Requests serviced.
///         ops,
///         /// Requests that paid a seek.
///         seeks,
///     }
/// }
///
/// let stats = DeviceStats { ops: 3, ..DeviceStats::default() };
/// let set = stats.to_stat_set();
/// assert_eq!(set.get("dev_ops"), 3);
/// assert_eq!(set.len(), 2);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident prefix $prefix:literal {
            $( $(#[$field_meta:meta])* $field:ident ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        $vis struct $name {
            $( $(#[$field_meta])* pub $field: u64, )*
        }

        impl $name {
            /// Renders the record as a named `StatSet` for reports: every
            /// counter under its prefixed key, zero-valued ones included.
            pub fn to_stat_set(&self) -> $crate::StatSet {
                let mut s = $crate::StatSet::new();
                $( s.set(concat!($prefix, stringify!($field)), self.$field); )*
                s
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
        assert_eq!(c.reset(), 42);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_saturates_instead_of_overflowing() {
        let c = Counter::new();
        c.add(u64::MAX);
        c.add(10);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let g = Gauge::new();
        g.add(5);
        g.add(10);
        g.sub(12);
        assert_eq!(g.get(), 3);
        assert_eq!(g.high_water(), 15);
        g.set(100);
        assert_eq!(g.high_water(), 100);
    }

    #[test]
    fn histogram_bucket_assignment() {
        let mut h = Histogram::with_bounds(&[1, 10, 100]);
        for sample in [0, 1, 2, 10, 11, 1000] {
            h.record(sample);
        }
        // buckets: <=1, <=10, <=100, overflow
        assert_eq!(h.bucket_counts(), &[2, 2, 1, 1]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 1000);
        let mean = h.mean().unwrap();
        assert!((mean - (0. + 1. + 2. + 10. + 11. + 1000.) / 6.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_merge_combines_samples() {
        let mut a = Histogram::with_bounds(&[10, 100]);
        let mut b = Histogram::with_bounds(&[10, 100]);
        a.record(5);
        a.record(50);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.bucket_counts(), &[1, 1, 1]);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 500);
        assert!((a.mean().unwrap() - (5. + 50. + 500.) / 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "bounds must match")]
    fn histogram_merge_rejects_mismatched_bounds() {
        let mut a = Histogram::with_bounds(&[10]);
        a.merge(&Histogram::with_bounds(&[20]));
    }

    #[test]
    fn empty_histogram_has_no_mean() {
        let h = Histogram::with_bounds(&[1]);
        assert_eq!(h.mean(), None);
        assert_eq!(h.max(), 0);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_bounds_panic() {
        let _ = Histogram::with_bounds(&[10, 5]);
    }

    #[test]
    fn statset_merge_sums_shared_keys() {
        let mut a = StatSet::new();
        a.set("x", 1);
        a.set("y", 2);
        let mut b = StatSet::new();
        b.set("y", 3);
        b.set("z", 4);
        a.merge(&b);
        assert_eq!(a.get("x"), 1);
        assert_eq!(a.get("y"), 5);
        assert_eq!(a.get("z"), 4);
        assert_eq!(a.len(), 3);
    }

    crate::counters! {
        /// A record with a prefix, for the macro test below.
        struct Probe prefix "probe_" {
            /// First counter.
            hits,
            /// Second counter.
            misses,
        }
    }

    #[test]
    fn counters_key_fields_by_prefix_and_keep_zeros() {
        let set = Probe { misses: 4, ..Probe::default() }.to_stat_set();
        assert_eq!(set.iter().collect::<Vec<_>>(), [("probe_hits", 0), ("probe_misses", 4)]);
    }

    #[test]
    fn statset_collects_from_iterator() {
        let s: StatSet = vec![("a".to_owned(), 1), ("b".to_owned(), 2)].into_iter().collect();
        assert_eq!(s.get("a"), 1);
        assert_eq!(s.get("b"), 2);
        assert!(!s.is_empty());
    }
}
