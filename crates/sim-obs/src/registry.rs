//! The hierarchical counter registry.
//!
//! Components report counters under a *scope* (`"host"`, `"disk"`,
//! `"fig03/baseline/host"`, ...) with a counter name inside the scope:
//! monotone totals, absorbed wholesale from the components' [`StatSet`]s
//! or set individually. The experiment suite keeps one registry per unit
//! and folds them into one.
//!
//! Latency distributions live in [`crate::hist`], not here.
//! [`MetricsRegistry::flatten`] renders everything into one `StatSet`
//! with `scope/name` keys.

use sim_core::StatSet;
use std::collections::BTreeMap;

/// One scope's counters, by name.
type Scope = BTreeMap<String, u64>;

/// Adds `delta` to `scope[name]`, saturating.
fn bump(scope: &mut Scope, name: &str, delta: u64) {
    if let Some(c) = scope.get_mut(name) {
        *c = c.saturating_add(delta);
    } else {
        scope.insert(name.to_string(), delta);
    }
}

/// Sums every counter of `theirs` into `mine`.
fn absorb(mine: &mut Scope, theirs: &Scope) {
    for (name, &value) in theirs {
        bump(mine, name, value);
    }
}

/// Named, component-scoped counters.
///
/// # Examples
///
/// ```
/// use sim_obs::MetricsRegistry;
///
/// let mut metrics = MetricsRegistry::new();
/// metrics.counter_add("disk", "ops", 3);
/// metrics.counter_set("host", "free_pages", 512);
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
            self.scopes.insert(scope.to_string(), Scope::new());
        }
        self.scopes.get_mut(scope).expect("just inserted")
    }

    /// Adds `delta` to the counter `scope/name`.
    pub fn counter_add(&mut self, scope: &str, name: &str, delta: u64) {
        bump(self.scope_mut(scope), name, delta);
    }

    /// Sets the counter `scope/name` to an absolute total.
    pub fn counter_set(&mut self, scope: &str, name: &str, value: u64) {
        self.scope_mut(scope).insert(name.to_string(), value);
    }

    /// Absorbs every entry of a [`StatSet`] as counters under `scope`
    /// (snapshot semantics: values overwrite).
    pub fn absorb_stat_set(&mut self, scope: &str, stats: &StatSet) {
        let s = self.scope_mut(scope);
        for (name, value) in stats.iter() {
            s.insert(name.to_string(), value);
        }
    }

    /// Looks up a counter; zero when absent.
    pub fn counter(&self, scope: &str, name: &str) -> u64 {
        self.scopes.get(scope).and_then(|s| s.get(name)).copied().unwrap_or(0)
    }

    /// Iterates over scope names.
    pub fn scopes(&self) -> impl Iterator<Item = &str> {
        self.scopes.keys().map(String::as_str)
    }

    /// Merges another registry into this one, scope by scope: counters
    /// sum.
    ///
    /// Merging is deterministic for a fixed merge order, which is how the
    /// parallel experiment suite folds per-task sinks into one registry:
    /// tasks are merged in task order, never in completion order.
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (scope_name, theirs) in &other.scopes {
            absorb(self.scope_mut(scope_name), theirs);
        }
    }

    /// Copies every scope of `other` into this registry under
    /// `prefix/scope` — the collision-free way to keep per-task metrics
    /// distinguishable after a suite-wide merge.
    pub fn absorb_namespaced(&mut self, prefix: &str, other: &MetricsRegistry) {
        for (scope_name, theirs) in &other.scopes {
            absorb(self.scope_mut(&format!("{prefix}/{scope_name}")), theirs);
        }
    }

    /// Renders the whole hierarchy as one flat [`StatSet`] with
    /// `scope/name` keys.
    pub fn flatten(&self) -> StatSet {
        let mut flat = StatSet::new();
        for (scope, s) in &self.scopes {
            for (name, &value) in s {
                flat.set(&format!("{scope}/{name}"), value);
            }
        }
        flat
    }
}

impl std::fmt::Display for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (scope, s) in &self.scopes {
            writeln!(f, "[{scope}]")?;
            for (name, value) in s {
                writeln!(f, "  {name:<40} {value}")?;
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
    fn merge_sums_counters() {
        let mut a = MetricsRegistry::new();
        a.counter_add("disk", "ops", 2);
        let mut b = MetricsRegistry::new();
        b.counter_add("disk", "ops", 3);
        b.counter_add("host", "faults", 1);
        a.merge_from(&b);
        assert_eq!(a.counter("disk", "ops"), 5);
        assert_eq!(a.counter("host", "faults"), 1);
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
