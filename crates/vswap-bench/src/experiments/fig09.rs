//! Figure 9: the anatomy of uncooperative swapping — Sysbench
//! iteratively reads a 200 MB file in a 100 MB guest that believes it has
//! 512 MB. Eight iterations; four series:
//!
//! * (a) runtime per iteration — the baseline's U-shape,
//! * (b) page faults taken while *host* code runs — iteration 1's stale
//!   reads, then false-page-anonymity refaults,
//! * (c) page faults taken while *guest* code runs — growing with decayed
//!   swap sequentiality,
//! * (d) sectors written to the host swap area — silent swap writes,
//!   roughly constant per iteration.

use super::common::{host, linux_vm, prepare_and_age};
use super::Scale;
use crate::suite::{ExperimentPlan, TaskCtx, Unit, UnitOut};
use crate::table::Table;
use vswap_core::{Machine, RunReport, SwapPolicy, VmHandle};
use vswap_mem::MemBytes;
use vswap_workloads::{SharedFile, SysbenchRead};

/// The three configurations Figure 9 plots.
pub const CONFIGS: [SwapPolicy; 3] =
    [SwapPolicy::Baseline, SwapPolicy::Vswapper, SwapPolicy::BalloonBaseline];

/// Per-iteration measurements of one configuration.
#[derive(Debug, Clone, Default)]
pub struct IterationSeries {
    /// Runtime per iteration in seconds (Figure 9a).
    pub runtime_secs: Vec<f64>,
    /// Host-context faults per iteration (Figure 9b).
    pub host_faults: Vec<u64>,
    /// Guest-context major faults per iteration (Figure 9c).
    pub guest_faults: Vec<u64>,
    /// Swap sectors written per iteration (Figure 9d).
    pub sectors_written: Vec<u64>,
}

/// Runs the iterated experiment for one policy.
pub fn run_config(
    scale: Scale,
    policy: SwapPolicy,
    iterations: u32,
    ctx: &mut TaskCtx,
) -> IterationSeries {
    let mut m = ctx.machine("iterated-read", policy, host(scale));
    let vm = m.add_vm(linux_vm(scale, "guest", 512, 100)).expect("fits");
    let file_pages = MemBytes::from_mb(scale.mb(200)).pages();
    let shared = prepare_and_age(&mut m, vm, file_pages);
    let mut series = IterationSeries::default();
    for _ in 0..iterations {
        let before = snapshot(&m);
        let report = run_iteration(&mut m, vm, &shared);
        let after = snapshot(&m);
        series.runtime_secs.push(report.vm(vm).runtime_secs());
        series.host_faults.push(after.0 - before.0);
        series.guest_faults.push(after.1 - before.1);
        series.sectors_written.push(after.2 - before.2);
    }
    m.host().audit().expect("invariants hold");
    series
}

fn snapshot(m: &Machine) -> (u64, u64, u64) {
    (
        m.host().stats().host_context_faults,
        m.host().stats().guest_major_faults,
        m.host().disk_stats().swap_sectors_written,
    )
}

fn run_iteration(m: &mut Machine, vm: VmHandle, shared: &SharedFile) -> RunReport {
    m.launch(vm, Box::new(SysbenchRead::new(shared.clone())));
    m.run()
}

/// One unit per configuration: the eight iterations share one machine
/// (the decay of swap sequentiality is the whole point), so a config is
/// the smallest independent piece.
pub fn plan(scale: Scale) -> ExperimentPlan {
    let iterations = 8u32;
    let units = CONFIGS
        .iter()
        .map(|&policy| {
            Unit::new(policy.label(), move |ctx: &mut TaskCtx| {
                let s = run_config(scale, policy, iterations, ctx);
                let mut cells = Vec::new();
                for i in 0..iterations as usize {
                    cells.push(s.runtime_secs[i].into());
                }
                for i in 0..iterations as usize {
                    cells.push(s.host_faults[i].into());
                }
                for i in 0..iterations as usize {
                    cells.push(s.guest_faults[i].into());
                }
                for i in 0..iterations as usize {
                    cells.push(s.sectors_written[i].into());
                }
                UnitOut::Cells(cells)
            })
        })
        .collect();
    ExperimentPlan::new(units, move |outs| {
        let titles = [
            "Figure 9a: runtime per iteration [s]",
            "Figure 9b: host page faults per iteration (stale reads + false anonymity)",
            "Figure 9c: guest page faults per iteration (decayed sequentiality)",
            "Figure 9d: sectors written to host swap per iteration (silent writes)",
        ];
        let series: Vec<Vec<crate::table::Cell>> =
            outs.into_iter().map(UnitOut::into_cells).collect();
        let iters = iterations as usize;
        let mut tables = Vec::new();
        for (panel, title) in titles.into_iter().enumerate() {
            let cols: Vec<String> = std::iter::once("config".to_owned())
                .chain((1..=iters).map(|i| format!("iter {i}")))
                .collect();
            let mut table = Table::new(title, cols.iter().map(String::as_str).collect());
            for (row, policy) in CONFIGS.iter().enumerate() {
                let mut cells = vec![crate::table::Cell::from(policy.label())];
                cells.extend(series[row][panel * iters..(panel + 1) * iters].iter().cloned());
                table.push(cells);
            }
            tables.push(table);
        }
        tables
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(label: &str) -> TaskCtx {
        TaskCtx::standalone(crate::suite::DEFAULT_SEED, label)
    }

    #[test]
    fn smoke_baseline_has_the_papers_signatures() {
        let s = run_config(Scale::Smoke, SwapPolicy::Baseline, 4, &mut ctx("base"));
        // Iteration 1 is dominated by stale reads (host faults), later
        // iterations by guest faults.
        assert!(
            s.host_faults[0] > s.host_faults[2],
            "stale reads happen in iteration 1: {:?}",
            s.host_faults
        );
        assert!(
            s.guest_faults[2] > s.guest_faults[0],
            "guest faults take over later: {:?}",
            s.guest_faults
        );
        // Silent writes happen every iteration.
        assert!(s.sectors_written.iter().all(|&w| w > 0), "{:?}", s.sectors_written);
    }

    #[test]
    fn smoke_vswapper_eliminates_swap_writes() {
        let s = run_config(Scale::Smoke, SwapPolicy::Vswapper, 3, &mut ctx("vswap"));
        let total: u64 = s.sectors_written.iter().sum();
        // File pages are discarded, never swapped; the residue is the
        // handful of anonymous kernel-text pages the Mapper cannot name.
        assert!(total < 64, "the Mapper discards instead of swapping: {:?}", s.sectors_written);
        let b = run_config(Scale::Smoke, SwapPolicy::Baseline, 1, &mut ctx("base"));
        assert!(b.sectors_written[0] > total * 100, "baseline writes dwarf the residue");
    }
}
