//! End-of-run counter snapshots for experiment accounting.
//!
//! The evaluation section of the paper reports per-experiment counters such
//! as "sectors written to the host swap area" or "pages scanned by the host
//! reclaim mechanism". Each component keeps its counts in a plain record
//! declared with [`counters!`](crate::counters); the run report snapshots
//! every record as a [`StatSet`].

use std::collections::BTreeMap;
use std::fmt;

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
