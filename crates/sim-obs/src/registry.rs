//! The hierarchical metrics registry.
//!
//! Components report metrics under a *scope* (`"host"`, `"disk"`,
//! `"vm0"`, ...) with a metric name inside the scope. The registry holds
//! two metric families:
//!
//! * **counters** — monotone totals, absorbed wholesale from the
//!   components' existing [`StatSet`]s or bumped individually;
//! * **gauges** — instantaneous levels, periodically sampled into a
//!   [`Trace`] for time-series figures.
//!
//! Latency distributions live in [`crate::hist`], not here.
//! [`MetricsRegistry::flatten`] renders everything into one `StatSet`
//! with `scope/name` keys, which keeps reports and their serialization
//! format uniform.

use sim_core::{SimTime, StatSet, Trace};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Default)]
struct Scope {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<&'static str, i64>,
}

impl Scope {
    /// Counters sum, gauges take `other`'s level.
    fn absorb(&mut self, other: &Scope) {
        for (name, &value) in &other.counters {
            if let Some(c) = self.counters.get_mut(name) {
                *c = c.saturating_add(value);
            } else {
                self.counters.insert(name.clone(), value);
            }
        }
        for (&name, &value) in &other.gauges {
            self.gauges.insert(name, value);
        }
    }
}

/// Named, component-scoped counters and gauges.
///
/// # Examples
///
/// ```
/// use sim_obs::MetricsRegistry;
///
/// let mut metrics = MetricsRegistry::new();
/// metrics.counter_add("disk", "ops", 3);
/// metrics.gauge_set("host", "free_pages", 512);
/// let flat = metrics.flatten();
/// assert_eq!(flat.get("disk/ops"), 3);
/// assert_eq!(flat.get("host/free_pages"), 512);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    scopes: BTreeMap<String, Scope>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn scope_mut(&mut self, scope: &str) -> &mut Scope {
        if !self.scopes.contains_key(scope) {
            self.scopes.insert(scope.to_string(), Scope::default());
        }
        self.scopes.get_mut(scope).expect("just inserted")
    }

    /// Adds `delta` to the counter `scope/name`.
    pub fn counter_add(&mut self, scope: &str, name: &str, delta: u64) {
        let s = self.scope_mut(scope);
        if let Some(c) = s.counters.get_mut(name) {
            *c = c.saturating_add(delta);
        } else {
            s.counters.insert(name.to_string(), delta);
        }
    }

    /// Sets the counter `scope/name` to an absolute total.
    pub fn counter_set(&mut self, scope: &str, name: &str, value: u64) {
        self.scope_mut(scope).counters.insert(name.to_string(), value);
    }

    /// Absorbs every entry of a [`StatSet`] as counters under `scope`
    /// (snapshot semantics: values overwrite).
    pub fn absorb_stat_set(&mut self, scope: &str, stats: &StatSet) {
        let s = self.scope_mut(scope);
        for (name, value) in stats.iter() {
            s.counters.insert(name.to_string(), value);
        }
    }

    /// Sets the gauge `scope/name` to its current level.
    ///
    /// Gauge names are `'static` so they double as [`Trace`] series
    /// labels during sampling.
    pub fn gauge_set(&mut self, scope: &str, name: &'static str, value: i64) {
        self.scope_mut(scope).gauges.insert(name, value);
    }

    /// Looks up a counter; zero when absent.
    pub fn counter(&self, scope: &str, name: &str) -> u64 {
        self.scopes.get(scope).and_then(|s| s.counters.get(name)).copied().unwrap_or(0)
    }

    /// Looks up a gauge's latest level.
    pub fn gauge(&self, scope: &str, name: &str) -> Option<i64> {
        self.scopes.get(scope).and_then(|s| s.gauges.get(name)).copied()
    }

    /// Iterates over scope names.
    pub fn scopes(&self) -> impl Iterator<Item = &str> {
        self.scopes.keys().map(String::as_str)
    }

    /// Samples every gauge into `trace` at instant `at`, using the gauge
    /// name as the series label.
    pub fn sample_gauges_into(&self, trace: &mut Trace, at: SimTime) {
        for scope in self.scopes.values() {
            for (&name, &value) in &scope.gauges {
                trace.record(at, name, value);
            }
        }
    }

    /// Merges another registry into this one, scope by scope: counters
    /// sum, gauges take the other registry's (latest) level.
    ///
    /// Merging is deterministic for a fixed merge order, which is how the
    /// parallel experiment suite folds per-task sinks into one registry:
    /// tasks are merged in task order, never in completion order.
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (scope_name, theirs) in &other.scopes {
            self.scope_mut(scope_name).absorb(theirs);
        }
    }

    /// Copies every scope of `other` into this registry under
    /// `prefix/scope` — the collision-free way to keep per-task metrics
    /// distinguishable after a suite-wide merge.
    pub fn absorb_namespaced(&mut self, prefix: &str, other: &MetricsRegistry) {
        for (scope_name, theirs) in &other.scopes {
            self.scope_mut(&format!("{prefix}/{scope_name}")).absorb(theirs);
        }
    }

    /// Renders the whole hierarchy as one flat [`StatSet`] with
    /// `scope/name` keys.
    pub fn flatten(&self) -> StatSet {
        let mut flat = StatSet::new();
        for (scope, s) in &self.scopes {
            for (name, &value) in &s.counters {
                flat.set(&format!("{scope}/{name}"), value);
            }
            for (&name, &value) in &s.gauges {
                flat.set(&format!("{scope}/{name}"), value.max(0) as u64);
            }
        }
        flat
    }
}

impl std::fmt::Display for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (scope, s) in &self.scopes {
            writeln!(f, "[{scope}]")?;
            for (name, value) in &s.counters {
                writeln!(f, "  {name:<40} {value}")?;
            }
            for (name, value) in &s.gauges {
                writeln!(f, "  {name:<40} {value} (gauge)")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_flatten() {
        let mut m = MetricsRegistry::new();
        m.counter_add("disk", "ops", 2);
        m.counter_add("disk", "ops", 3);
        assert_eq!(m.counter("disk", "ops"), 5);
        assert_eq!(m.flatten().get("disk/ops"), 5);
        assert_eq!(m.counter("disk", "missing"), 0);
    }

    #[test]
    fn absorb_overwrites_with_snapshots() {
        let mut m = MetricsRegistry::new();
        let mut s = StatSet::new();
        s.set("swap_ins", 7);
        m.absorb_stat_set("host", &s);
        s.set("swap_ins", 9);
        m.absorb_stat_set("host", &s);
        assert_eq!(m.counter("host", "swap_ins"), 9);
    }

    #[test]
    fn gauges_sample_into_trace() {
        let mut m = MetricsRegistry::new();
        m.gauge_set("guest", "cache_pages", 100);
        m.gauge_set("mapper", "tracked_pages", 40);
        let mut trace = Trace::with_capacity(8);
        m.sample_gauges_into(&mut trace, SimTime::from_nanos(5));
        assert_eq!(trace.series("cache_pages").count(), 1);
        assert_eq!(trace.series("tracked_pages").count(), 1);
        m.gauge_set("guest", "cache_pages", 90);
        m.sample_gauges_into(&mut trace, SimTime::from_nanos(6));
        let values: Vec<i64> = trace.series("cache_pages").map(|e| e.value).collect();
        assert_eq!(values, vec![100, 90]);
    }

    #[test]
    fn merge_sums_counters_and_takes_latest_gauges() {
        let mut a = MetricsRegistry::new();
        a.counter_add("disk", "ops", 2);
        a.gauge_set("host", "free", 10);
        let mut b = MetricsRegistry::new();
        b.counter_add("disk", "ops", 3);
        b.counter_add("host", "faults", 1);
        b.gauge_set("host", "free", 7);
        a.merge_from(&b);
        assert_eq!(a.counter("disk", "ops"), 5);
        assert_eq!(a.counter("host", "faults"), 1);
        assert_eq!(a.gauge("host", "free"), Some(7), "gauges take the merged-in level");
    }

    #[test]
    fn namespaced_absorb_keeps_tasks_apart() {
        let mut task = MetricsRegistry::new();
        task.counter_add("host", "swap_ins", 4);
        let mut suite = MetricsRegistry::new();
        suite.absorb_namespaced("fig03/baseline", &task);
        suite.absorb_namespaced("fig03/vswapper", &task);
        assert_eq!(suite.counter("fig03/baseline/host", "swap_ins"), 4);
        assert_eq!(suite.counter("fig03/vswapper/host", "swap_ins"), 4);
        assert_eq!(suite.counter("host", "swap_ins"), 0);
    }

    #[test]
    fn display_lists_scopes() {
        let mut m = MetricsRegistry::new();
        m.counter_add("host", "faults", 1);
        let text = m.to_string();
        assert!(text.contains("[host]"));
        assert!(text.contains("faults"));
    }
}
