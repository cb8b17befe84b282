//! Log-bucketed, mergeable latency histograms.
//!
//! [`LatencyHist`] buckets durations by the position of their highest set
//! bit, so the whole distribution fits in a fixed array and merging two
//! histograms is an element-wise integer sum — associative, commutative,
//! and therefore bitwise deterministic no matter how a parallel suite
//! partitions and reassembles its work. Percentile queries report the
//! bucket's deterministic upper bound, so a percentile computed from a
//! merged histogram never depends on merge order either.
//!
//! [`LatencyBook`] keys one histogram per `(vm, class)` pair, and
//! [`LatencyHub`] is the cheap cloneable handle components record
//! through, mirroring [`EventLog`](crate::EventLog)'s sharing model.

use crate::json::JsonWriter;
use sim_core::SimDuration;
use std::cell::RefCell;
use std::rc::Rc;

/// Number of buckets: one for zero plus one per possible highest set bit
/// of a `u64` nanosecond count.
pub const BUCKETS: usize = 65;

/// Which swap-path stage a recorded latency belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LatencyClass {
    /// Host swap-in (including Mapper named refaults) servicing a major
    /// fault.
    SwapIn,
    /// Host swap-out write (write-behind included).
    SwapOut,
    /// Preventer write-emulation lifetime: first emulated write until the
    /// buffer merged or remapped.
    PreventedWrite,
    /// Extra time a disk request spent in retries and backoff.
    RetriedIo,
}

impl LatencyClass {
    /// Every class, in export order.
    pub const ALL: [LatencyClass; 4] = [
        LatencyClass::SwapIn,
        LatencyClass::SwapOut,
        LatencyClass::PreventedWrite,
        LatencyClass::RetriedIo,
    ];

    /// Stable snake_case name used in exports and tables.
    pub fn name(self) -> &'static str {
        match self {
            LatencyClass::SwapIn => "swap_in",
            LatencyClass::SwapOut => "swap_out",
            LatencyClass::PreventedWrite => "prevented_write",
            LatencyClass::RetriedIo => "retried_io",
        }
    }
}

/// A power-of-two log-bucketed latency histogram.
///
/// # Examples
///
/// ```
/// use sim_core::SimDuration;
/// use sim_obs::LatencyHist;
///
/// let mut h = LatencyHist::new();
/// for us in [10, 20, 40, 80] {
///     h.record(SimDuration::from_micros(us));
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.quantile_permille(500) >= SimDuration::from_micros(16));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHist {
    buckets: [u64; BUCKETS],
    count: u64,
    total: SimDuration,
    max: SimDuration,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a duration: 0 holds exact zeros, bucket `i >= 1`
/// holds `[2^(i-1), 2^i - 1]` nanoseconds.
fn bucket_index(d: SimDuration) -> usize {
    let ns = d.as_nanos();
    if ns == 0 {
        0
    } else {
        64 - ns.leading_zeros() as usize
    }
}

/// Deterministic upper bound of a bucket, reported by quantile queries.
fn bucket_upper(index: usize) -> SimDuration {
    if index == 0 {
        SimDuration::ZERO
    } else if index >= 64 {
        SimDuration::from_nanos(u64::MAX)
    } else {
        SimDuration::from_nanos((1u64 << index) - 1)
    }
}

impl LatencyHist {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHist {
            buckets: [0; BUCKETS],
            count: 0,
            total: SimDuration::ZERO,
            max: SimDuration::ZERO,
        }
    }

    /// Records one duration.
    pub fn record(&mut self, d: SimDuration) {
        self.buckets[bucket_index(d)] += 1;
        self.count += 1;
        self.total += d;
        self.max = self.max.max(d);
    }

    /// Folds another histogram in. Element-wise sums keep merging
    /// associative and commutative, so any merge tree over the same
    /// records yields the same histogram.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded durations.
    pub fn total(&self) -> SimDuration {
        self.total
    }

    /// Largest recorded duration.
    pub fn max(&self) -> SimDuration {
        self.max
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean duration (zero when empty).
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            self.total / self.count
        }
    }

    /// The `permille`-th quantile (500 = p50, 990 = p99, 999 = p999) as
    /// the containing bucket's upper bound — a deterministic,
    /// merge-order-independent estimate. Returns zero for an empty
    /// histogram; `permille` is clamped to 1000.
    pub fn quantile_permille(&self, permille: u64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let permille = permille.min(1000);
        // Rank of the quantile sample, 1-based: ceil(count * permille / 1000),
        // at least 1 so p0 still points at the smallest sample's bucket.
        let rank = (self.count * permille).div_ceil(1000).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// p50 shorthand.
    pub fn p50(&self) -> SimDuration {
        self.quantile_permille(500)
    }

    /// p99 shorthand.
    pub fn p99(&self) -> SimDuration {
        self.quantile_permille(990)
    }

    /// p999 shorthand.
    pub fn p999(&self) -> SimDuration {
        self.quantile_permille(999)
    }
}

/// Number of [`LatencyClass`] variants (the width of one VM's row in a
/// [`LatencyBook`]).
const CLASSES: usize = LatencyClass::ALL.len();

/// Per-`(vm, class)` latency histograms for one run.
///
/// Stored as dense per-VM rows indexed by class, so the per-sample
/// recording path is two array indexes — no tree or hash lookup. A
/// `(vm, class)` pair is *present* exactly when its histogram is
/// non-empty, which matches what a keyed map would contain (recording
/// always adds at least one sample).
#[derive(Debug, Clone, Default)]
pub struct LatencyBook {
    rows: Vec<[LatencyHist; CLASSES]>,
}

impl LatencyBook {
    /// An empty book.
    pub fn new() -> Self {
        LatencyBook::default()
    }

    /// Records one duration for a VM and class.
    #[inline]
    pub fn record(&mut self, vm: u32, class: LatencyClass, d: SimDuration) {
        let vm = vm as usize;
        if vm >= self.rows.len() {
            self.rows.resize_with(vm + 1, Default::default);
        }
        self.rows[vm][class as usize].record(d);
    }

    /// Folds another book in (see [`LatencyHist::merge`]). Merging an
    /// empty histogram is the identity, so element-wise merging whole
    /// rows preserves exactly the keyed-map semantics.
    pub fn merge(&mut self, other: &LatencyBook) {
        if other.rows.len() > self.rows.len() {
            self.rows.resize_with(other.rows.len(), Default::default);
        }
        for (mine, theirs) in self.rows.iter_mut().zip(other.rows.iter()) {
            for (m, t) in mine.iter_mut().zip(theirs.iter()) {
                m.merge(t);
            }
        }
    }

    /// Folds another book in while remapping its VM ids. Cluster reports
    /// use this to merge per-host books — where each host numbers its VMs
    /// from zero — into one tenant-indexed book: `map` translates the
    /// other book's VM id into a cluster-wide tenant id, or `None` to
    /// drop that row (e.g. a VM the caller does not track).
    pub fn merge_remapped(&mut self, other: &LatencyBook, map: impl Fn(u32) -> Option<u32>) {
        for (vm, row) in other.rows.iter().enumerate() {
            let Some(tenant) = map(vm as u32) else { continue };
            let tenant = tenant as usize;
            if tenant >= self.rows.len() {
                self.rows.resize_with(tenant + 1, Default::default);
            }
            for (m, t) in self.rows[tenant].iter_mut().zip(row.iter()) {
                m.merge(t);
            }
        }
    }

    /// The histogram for one `(vm, class)` pair, if anything was
    /// recorded.
    pub fn hist(&self, vm: u32, class: LatencyClass) -> Option<&LatencyHist> {
        let hist = &self.rows.get(vm as usize)?[class as usize];
        if hist.is_empty() {
            None
        } else {
            Some(hist)
        }
    }

    /// All histograms of one class merged across VMs.
    pub fn class_hist(&self, class: LatencyClass) -> LatencyHist {
        let mut merged = LatencyHist::new();
        for row in &self.rows {
            merged.merge(&row[class as usize]);
        }
        merged
    }

    /// Iterates `(vm, class, hist)` in deterministic key order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, LatencyClass, &LatencyHist)> {
        self.rows.iter().enumerate().flat_map(|(vm, row)| {
            LatencyClass::ALL
                .iter()
                .zip(row.iter())
                .filter(|(_, h)| !h.is_empty())
                .map(move |(&class, h)| (vm as u32, class, h))
        })
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.iter().all(|row| row.iter().all(|h| h.is_empty()))
    }

    /// Writes the book as a JSON array of per-`(vm, class)` summaries
    /// into an open writer (used by `RunReport::to_json`).
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_array();
        for (vm, class, hist) in self.iter() {
            w.begin_object();
            w.field_u64("vm", u64::from(vm));
            w.field_str("class", class.name());
            w.field_u64("count", hist.count());
            w.field_u64("p50_ns", hist.p50().as_nanos());
            w.field_u64("p99_ns", hist.p99().as_nanos());
            w.field_u64("p999_ns", hist.p999().as_nanos());
            w.field_u64("max_ns", hist.max().as_nanos());
            w.field_u64("mean_ns", hist.mean().as_nanos());
            w.end_object();
        }
        w.end_array();
    }
}

/// A cheap cloneable recording handle shared by every component of one
/// machine, mirroring [`EventLog`](crate::EventLog)'s sharing model.
/// Recording only observes — it can never steer the simulation.
#[derive(Debug, Clone, Default)]
pub struct LatencyHub {
    book: Rc<RefCell<LatencyBook>>,
}

impl LatencyHub {
    /// A fresh hub with an empty book.
    pub fn new() -> Self {
        LatencyHub::default()
    }

    /// Records one duration for a VM and class.
    #[inline]
    pub fn record(&self, vm: u32, class: LatencyClass, d: SimDuration) {
        self.book.borrow_mut().record(vm, class, d);
    }

    /// Sample count recorded so far for one `(vm, class)` pair, without
    /// cloning the book (the cluster scheduler polls this per epoch).
    pub fn class_count(&self, vm: u32, class: LatencyClass) -> u64 {
        self.book.borrow().hist(vm, class).map_or(0, |h| h.count())
    }

    /// Clones the accumulated book out.
    pub fn snapshot(&self) -> LatencyBook {
        self.book.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(bucket_index(SimDuration::ZERO), 0);
        assert_eq!(bucket_index(SimDuration::from_nanos(1)), 1);
        assert_eq!(bucket_index(SimDuration::from_nanos(2)), 2);
        assert_eq!(bucket_index(SimDuration::from_nanos(3)), 2);
        assert_eq!(bucket_index(SimDuration::from_nanos(4)), 3);
        assert_eq!(bucket_index(SimDuration::from_nanos(u64::MAX)), 64);
        assert_eq!(bucket_upper(2), SimDuration::from_nanos(3));
    }

    #[test]
    fn quantiles_walk_the_cumulative_counts() {
        let mut h = LatencyHist::new();
        for ns in [1u64, 2, 2, 3, 100] {
            h.record(SimDuration::from_nanos(ns));
        }
        assert_eq!(h.count(), 5);
        // Rank of p50 over 5 samples is ceil(2.5) = 3 → the [2,3] bucket.
        assert_eq!(h.p50(), SimDuration::from_nanos(3));
        // p99 and p999 both land on the last sample's bucket, capped at max.
        assert_eq!(h.p99(), SimDuration::from_nanos(100));
        assert_eq!(h.p999(), SimDuration::from_nanos(100));
        assert_eq!(h.max(), SimDuration::from_nanos(100));
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHist::new();
        assert!(h.is_empty());
        assert_eq!(h.p50(), SimDuration::ZERO);
        assert_eq!(h.mean(), SimDuration::ZERO);
    }

    #[test]
    fn merge_is_a_bucket_sum() {
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        let mut whole = LatencyHist::new();
        for (i, ns) in [5u64, 17, 90, 1_000, 40_000, 7].iter().enumerate() {
            let d = SimDuration::from_nanos(*ns);
            if i % 2 == 0 {
                a.record(d);
            } else {
                b.record(d);
            }
            whole.record(d);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole, "merge is commutative");
        assert_eq!(ab.p99(), whole.p99());
    }

    #[test]
    fn book_keys_by_vm_and_class() {
        let mut book = LatencyBook::new();
        book.record(0, LatencyClass::SwapIn, SimDuration::from_micros(10));
        book.record(1, LatencyClass::SwapIn, SimDuration::from_micros(20));
        book.record(0, LatencyClass::SwapOut, SimDuration::from_micros(30));
        assert_eq!(book.hist(0, LatencyClass::SwapIn).unwrap().count(), 1);
        assert!(book.hist(1, LatencyClass::SwapOut).is_none());
        assert_eq!(book.class_hist(LatencyClass::SwapIn).count(), 2);
        let keys: Vec<(u32, LatencyClass)> =
            book.iter().map(|(vm, class, _)| (vm, class)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "iteration order is deterministic");
    }

    #[test]
    fn hub_clones_share_one_book() {
        let hub = LatencyHub::new();
        let clone = hub.clone();
        clone.record(0, LatencyClass::RetriedIo, SimDuration::from_micros(5));
        assert_eq!(hub.snapshot().hist(0, LatencyClass::RetriedIo).unwrap().count(), 1);
    }

    #[test]
    fn json_summary_lists_every_key() {
        let mut book = LatencyBook::new();
        book.record(0, LatencyClass::SwapIn, SimDuration::from_micros(10));
        let mut w = JsonWriter::new();
        book.write_json(&mut w);
        let json = w.finish();
        assert!(json.contains("\"class\":\"swap_in\""));
        assert!(json.contains("\"p999_ns\""));
    }
}
