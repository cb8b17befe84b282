//! Figure 11: pbzip2 compressing the kernel source inside a 512 MB guest
//! whose actual allocation sweeps 512 → 192 MB. Three counter panels:
//!
//! * (a) disk operations,
//! * (b) sectors written (largely eliminated by VSwapper — "beneficial
//!   for systems that employ SSDs"),
//! * (c) pages scanned by host reclaim (the Mapper roughly doubles scan
//!   traversals at low pressure, §5.3).
//!
//! Figure 5 (the runtime panel of the same sweep, plus the
//! over-ballooning kills) reuses [`run_point`].

use super::common::{host, linux_vm, SWEEP_CONFIGS};
use super::Scale;
use crate::suite::{ExperimentPlan, TaskCtx, Unit, UnitOut};
use crate::table::{Cell, Table};
use vswap_core::{RunReport, SwapPolicy};
use vswap_mem::MemBytes;
use vswap_workloads::pbzip2::{Pbzip2, Pbzip2Config};

/// The actual-memory sweep of Figure 11 (MB).
pub const SWEEP_MB: [u64; 6] = [512, 448, 384, 320, 256, 192];

/// One sweep point's outcome.
#[derive(Debug, Clone)]
pub struct PbzipPoint {
    /// Runtime in simulated seconds (NaN if killed).
    pub runtime_secs: f64,
    /// True if the guest OOM killer claimed the compressor.
    pub killed: bool,
    /// Total disk operations.
    pub disk_ops: u64,
    /// Total sectors written.
    pub sectors_written: u64,
    /// Pages scanned by host reclaim.
    pub pages_scanned: u64,
    /// The full report, for further probing.
    pub report: RunReport,
}

/// The pbzip2 workload configuration at a given scale.
pub fn workload(scale: Scale) -> Pbzip2Config {
    let base = Pbzip2Config::default();
    match scale {
        Scale::Paper => base,
        Scale::Smoke => Pbzip2Config {
            source_pages: MemBytes::from_mb(24).pages(),
            output_pages: MemBytes::from_mb(6).pages(),
            hot_pages: MemBytes::from_mb(6).pages(),
            ..base
        },
    }
}

/// Runs one (policy, actual-MB) point of the sweep.
pub fn run_point(
    scale: Scale,
    policy: SwapPolicy,
    actual_mb: u64,
    ctx: &mut TaskCtx,
) -> PbzipPoint {
    let mut m = ctx.machine("pbzip2", policy, host(scale));
    let vm = m.add_vm(linux_vm(scale, "guest", 512, actual_mb)).expect("fits");
    m.launch(vm, Box::new(Pbzip2::new(workload(scale))));
    let report = m.run();
    m.host().audit().expect("invariants hold");
    ctx.absorb_report("pbzip2", &report);
    let r = report.vm(vm);
    PbzipPoint {
        runtime_secs: r.runtime_secs(),
        killed: r.killed.is_some(),
        disk_ops: report.disk.get("disk_ops"),
        sectors_written: report.disk.get("disk_sectors_written"),
        pages_scanned: report.host.get("pages_scanned"),
        report,
    }
}

/// One unit per `(policy, actual-MB)` sweep point; each point
/// contributes one cell to each of the three panels.
pub fn plan(scale: Scale) -> ExperimentPlan {
    let mut units = Vec::new();
    for &policy in SWEEP_CONFIGS.iter() {
        for &mb in &SWEEP_MB {
            units.push(Unit::new(
                format!("{}/{mb}MB", policy.label()),
                move |ctx: &mut TaskCtx| {
                    let p = run_point(scale, policy, mb, ctx);
                    let cell = |c: Cell| if p.killed { Cell::Missing } else { c };
                    UnitOut::Cells(vec![
                        cell(p.disk_ops.into()),
                        cell(p.sectors_written.into()),
                        cell(p.pages_scanned.into()),
                    ])
                },
            ));
        }
    }
    ExperimentPlan::new(units, |outs| {
        let panels = [
            "Figure 11a: disk operations [count]",
            "Figure 11b: written sectors [count]",
            "Figure 11c: pages scanned by reclaim [count]",
        ];
        let points: Vec<Vec<Cell>> = outs.into_iter().map(UnitOut::into_cells).collect();
        let mut tables = Vec::new();
        for (panel, title) in panels.into_iter().enumerate() {
            let cols: Vec<String> = std::iter::once("config".to_owned())
                .chain(SWEEP_MB.iter().map(|mb| format!("{mb}MB")))
                .collect();
            let mut table = Table::new(title, cols.iter().map(String::as_str).collect());
            for (row_index, policy) in SWEEP_CONFIGS.iter().enumerate() {
                let mut row = vec![Cell::from(policy.label())];
                for col in 0..SWEEP_MB.len() {
                    row.push(points[row_index * SWEEP_MB.len() + col][panel].clone());
                }
                table.push(row);
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
    fn smoke_vswapper_eliminates_writes_under_pressure() {
        let base = run_point(Scale::Smoke, SwapPolicy::Baseline, 192, &mut ctx("base"));
        let vswap = run_point(Scale::Smoke, SwapPolicy::Vswapper, 192, &mut ctx("vswap"));
        assert!(!base.killed && !vswap.killed);
        assert!(
            vswap.report.disk.get("disk_swap_sectors_written") * 4
                < base.report.disk.get("disk_swap_sectors_written").max(1),
            "Figure 11b: the Mapper must all but eliminate swap writes"
        );
        assert!(vswap.runtime_secs <= base.runtime_secs * 1.05);
    }

    #[test]
    fn smoke_plentiful_memory_is_cheap_for_everyone() {
        let base = run_point(Scale::Smoke, SwapPolicy::Baseline, 512, &mut ctx("base512"));
        let vswap = run_point(Scale::Smoke, SwapPolicy::Vswapper, 512, &mut ctx("vswap512"));
        assert!(!base.killed && !vswap.killed);
        // §5.3: VSwapper costs at most a few percent when memory is ample.
        assert!(
            vswap.runtime_secs <= base.runtime_secs * 1.06,
            "vswapper {:.2}s vs baseline {:.2}s",
            vswap.runtime_secs,
            base.runtime_secs
        );
    }
}
