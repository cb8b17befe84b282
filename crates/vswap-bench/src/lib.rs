//! The experiment harness: one module per table/figure of the paper's
//! evaluation (§5), plus ablations.
//!
//! Every experiment exposes `plan(scale) -> ExperimentPlan`, its split
//! into independent units, and [`run_suite`] is the one way to run
//! plans and reassemble their tables. `vswap figures` prints the
//! tables, `vswap verify-tables` diffs them against the [`golden`]
//! corpus, and `EXPERIMENTS.md` records them.
//!
//! # Scales
//!
//! [`Scale::Paper`] reproduces the published experiment sizes (200 MB
//! files in 512 MB guests, ten 2 GB guests on an 8 GB host, …).
//! [`Scale::Smoke`] shrinks everything ~16× so the full suite runs in
//! seconds — used by the golden corpus, the tests and the `vswap-perf`
//! benchmark.

#![warn(missing_docs)]

pub mod experiments;
pub mod golden;
pub mod suite;
pub mod table;

pub use experiments::Scale;
pub use suite::{run_suite, ExperimentPlan, SuiteOptions, SuiteResult, TaskCtx};
pub use table::Table;

/// A function decomposing one experiment into parallel units.
pub type ExperimentPlanFn = fn(Scale) -> ExperimentPlan;

/// One experiment as the suite scheduler sees it.
pub struct SuiteExperiment {
    /// Stable id (`fig03`, ..., `ablate`) — CLI selector, RNG-stream and
    /// golden-file name.
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// Decomposes the experiment into parallel units.
    pub plan: ExperimentPlanFn,
}

/// Every experiment in the suite, in the paper's order.
pub fn suite_experiments() -> Vec<SuiteExperiment> {
    use experiments::*;
    vec![
        SuiteExperiment {
            id: "fig03",
            title: "Figure 3: sequential read of a 200MB file (best case for ballooning)",
            plan: fig03::plan,
        },
        SuiteExperiment {
            id: "fig04",
            title: "Figure 4: ten phased MapReduce guests (dynamic conditions)",
            plan: fig04::plan,
        },
        SuiteExperiment {
            id: "fig05",
            title: "Figure 5: pbzip2 runtime vs actual memory (over-ballooning)",
            plan: fig05::plan,
        },
        SuiteExperiment {
            id: "fig09",
            title: "Figure 9: iterated Sysbench — pathology anatomy",
            plan: fig09::plan,
        },
        SuiteExperiment {
            id: "fig10",
            title: "Figure 10: false-reads microbenchmark",
            plan: fig10::plan,
        },
        SuiteExperiment {
            id: "fig11",
            title: "Figure 11: pbzip2 I/O and reclaim-scan counters",
            plan: fig11::plan,
        },
        SuiteExperiment {
            id: "fig12",
            title: "Figure 12: Kernbench runtime and Preventer remaps",
            plan: fig12::plan,
        },
        SuiteExperiment {
            id: "fig13",
            title: "Figure 13: DaCapo Eclipse runtime",
            plan: fig13::plan,
        },
        SuiteExperiment {
            id: "fig14",
            title: "Figure 14: MapReduce scaling, 1-10 phased guests",
            plan: fig14::plan,
        },
        SuiteExperiment {
            id: "fig15",
            title: "Figure 15: guest page cache vs Mapper-tracked pages",
            plan: fig15::plan,
        },
        SuiteExperiment {
            id: "tab01",
            title: "Table 1: lines of code of the VSwapper components",
            plan: tab01::plan,
        },
        SuiteExperiment {
            id: "tab02",
            title: "Table 2: foreign-hypervisor profile, balloon on/off",
            plan: tab02::plan,
        },
        SuiteExperiment {
            id: "tab03",
            title: "Section 5.3: overheads when memory is plentiful",
            plan: tab03::plan,
        },
        SuiteExperiment { id: "tab04", title: "Section 5.4: Windows guests", plan: tab04::plan },
        SuiteExperiment {
            id: "tab05",
            title: "Section 7 (implemented): VSwapper-enhanced live migration",
            plan: tab05::plan,
        },
        SuiteExperiment {
            id: "ablate",
            title: "Ablations: preventer caps, readahead, reclaim preference, SSD",
            plan: ablation::plan,
        },
        SuiteExperiment {
            id: "chaos",
            title: "Chaos: fault-profile sweep — slowdown and recovery counters",
            plan: chaos::plan,
        },
        SuiteExperiment {
            id: "latency",
            title: "Latency: fault-lifecycle p50/p99/p999 per class and configuration",
            plan: latency::plan,
        },
        SuiteExperiment {
            id: "cluster",
            title: "Cluster: multi-host overcommit with live migration, 10-1000 guests",
            plan: cluster::plan,
        },
        SuiteExperiment {
            id: "devices",
            title: "Devices: policy x {HDD, SSD, NVMe} x queue-depth matrix",
            plan: devices::plan,
        },
        SuiteExperiment {
            id: "cluster-chaos",
            title: "Cluster chaos: host crashes, brown-outs, and link failures across the fleet",
            plan: cluster_chaos::plan,
        },
    ]
}
