//! What the benchmark reports: the end-to-end metrics with their gates,
//! and the per-layer metrics every workload measures.

use crate::stats::Summary;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How `compare` judges a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// By medians and spreads, within the bound.
    Bound,
    /// Simulated, so a seed reproduces it exactly: judged seed by seed
    /// with no tolerance when both sides ran the same seeds, otherwise
    /// like [`Gate::Bound`].
    Seeded,
    /// With no tolerance at all: any drop is worse.
    Exact,
}

/// An end-to-end metric and the regression gate `compare` applies.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median the metric may worsen by.
    pub bound: f64,
    /// Absolute change always tolerated, in the metric's unit.
    pub floor: f64,
    pub gate: Gate,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound, floor: 0.0, gate: Gate::Bound }
}

/// The end-to-end metrics, as declared in `BENCHMARK.json`.
pub const END_TO_END: [EndToEnd; 7] = [
    // Machine build plus boot, or building the suite's plans: short, so
    // it also gets a 5 ms floor.
    EndToEnd { floor: 0.005, ..e2e("setup_s", "s", Better::Lower, 0.25) },
    // Host timings are scaled by the contention probe, yet on a shared
    // 2-vCPU box a run can still land 25% slow (see README.md), so
    // their bound is the widest allowed.
    e2e("wall_s", "s", Better::Lower, 0.25),
    e2e("pages_per_s", "pages/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.05),
    // Across seeds these vary by up to 1.1% and 0.1%; for one seed they
    // repeat exactly.
    EndToEnd { gate: Gate::Seeded, ..e2e("sim_runtime_s", "sim_s", Better::Lower, 0.05) },
    EndToEnd { gate: Gate::Seeded, ..e2e("sim_disk_sectors", "sectors", Better::Lower, 0.01) },
    // One failed check in a run of a few hundred moves the ratio by less
    // than any bound, so no drop is tolerated.
    EndToEnd { gate: Gate::Exact, ..e2e("pass_ratio", "ratio", Better::Higher, 0.01) },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The per-layer metrics every workload measures, with their units, as
/// declared in `BENCHMARK.json`. Layer metrics that exist on only some
/// workloads (the guest peel, machine call times, per-experiment busy
/// time) are printed and recorded but not listed here.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("vswap-hostos.guest_major_faults", "count"),
    ("vswap-hostos.host_context_faults", "count"),
    ("vswap-hostos.swap_ins", "count"),
    ("vswap-hostos.swap_outs", "count"),
    ("vswap-hostos.pages_scanned", "count"),
    ("vswap-hostos.reclaim_runs", "count"),
    ("vswap-hostos.zero_fills", "count"),
    ("vswap-hostos.false_swap_reads", "count"),
    ("vswap-hostos.stale_swap_reads", "count"),
    ("vswap-hostos.silent_swap_writes", "count"),
    ("vswap-hostos.scan_per_evict", "ratio"),
    ("vswap-core.mapper.mapped_reads", "count"),
    ("vswap-core.mapper.mapped_writes", "count"),
    ("vswap-core.mapper.named_discards", "count"),
    ("vswap-core.mapper.named_refaults", "count"),
    ("vswap-core.mapper.refault_ratio", "ratio"),
    ("vswap-core.preventer.buffers_opened", "count"),
    ("vswap-core.preventer.merges", "count"),
    ("vswap-core.preventer.remaps", "count"),
    ("vswap-core.preventer.timeouts", "count"),
    ("vswap-core.preventer.remap_ratio", "ratio"),
    ("vswap-disk.ops", "count"),
    ("vswap-disk.seeks", "count"),
    ("vswap-disk.sectors_read", "count"),
    ("vswap-disk.sectors_written", "count"),
    ("vswap-disk.busy_sim_s", "sim_s"),
    ("vswap-disk.sequential_ratio", "ratio"),
    ("sim-obs.events_emitted", "count"),
    ("bench.trace_overhead_s", "s"),
];

/// One reported metric. Its value, the number reported, gated and
/// compared, is the median of its samples. Per-layer values come from a
/// single traced rep and carry an exact summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub summary: Summary,
}

impl Metric {
    /// An end-to-end metric, in the unit [`END_TO_END`] declares.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared there.
    pub fn end_to_end(name: &'static str, summary: Summary) -> Metric {
        let unit = end_to_end(name).expect("declared end-to-end metric").unit;
        Metric { name: name.into(), unit, summary }
    }

    pub fn exact(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric { name: name.into(), unit, summary: Summary::exact(value) }
    }
}

/// Simulated counters of the layers beneath the guest, keyed by
/// `host/`, `disk/`, `mapper/` or `preventer/` plus the counter's name
/// in `RunReport`.
pub type Counters = BTreeMap<String, u64>;

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer counter metrics derived from `c`.
pub fn counter_metrics(c: &Counters) -> Vec<Metric> {
    let get = |key: &str| c.get(key).copied().unwrap_or(0);
    let mut out = Vec::new();
    let mut count = |name: &str, value: u64| out.push(Metric::exact(name, "count", value as f64));
    for name in [
        "guest_major_faults",
        "host_context_faults",
        "swap_ins",
        "swap_outs",
        "pages_scanned",
        "reclaim_runs",
        "zero_fills",
        "false_swap_reads",
        "stale_swap_reads",
        "silent_swap_writes",
    ] {
        count(&format!("vswap-hostos.{name}"), get(&format!("host/{name}")));
    }
    count("vswap-core.mapper.mapped_reads", get("mapper/mapper_mapped_reads"));
    count("vswap-core.mapper.mapped_writes", get("mapper/mapper_mapped_writes"));
    count("vswap-core.mapper.named_discards", get("host/named_discards"));
    count("vswap-core.mapper.named_refaults", get("host/named_refaults"));
    for name in ["buffers_opened", "merges", "remaps", "timeouts"] {
        count(&format!("vswap-core.preventer.{name}"), get(&format!("preventer/preventer_{name}")));
    }
    for (name, key) in [
        ("ops", "disk_ops"),
        ("seeks", "disk_seeks"),
        ("sectors_read", "disk_sectors_read"),
        ("sectors_written", "disk_sectors_written"),
    ] {
        count(&format!("vswap-disk.{name}"), get(&format!("disk/{key}")));
    }
    let evictions = get("host/swap_outs") + get("host/named_discards");
    for (name, unit, value) in [
        ("vswap-hostos.scan_per_evict", "ratio", ratio(get("host/pages_scanned"), evictions)),
        (
            "vswap-core.mapper.refault_ratio",
            "ratio",
            ratio(get("host/named_refaults"), get("host/named_discards")),
        ),
        (
            "vswap-core.preventer.remap_ratio",
            "ratio",
            ratio(get("preventer/preventer_remaps"), get("preventer/preventer_buffers_opened")),
        ),
        ("vswap-disk.busy_sim_s", "sim_s", get("disk/disk_busy_ns") as f64 / 1e9),
        (
            "vswap-disk.sequential_ratio",
            "ratio",
            ratio(get("disk/disk_sequential_ops"), get("disk/disk_ops")),
        ),
    ] {
        out.push(Metric::exact(name, unit, value));
    }
    out
}
