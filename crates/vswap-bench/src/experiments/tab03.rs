//! Section 5.3: overheads and limitations when memory is plentiful.
//!
//! The paper reports: up to 3.5% slowdown with ample memory (mmap is
//! slower than reading, plus COW exits); Mapper metadata never exceeded
//! 14 MB (200-byte `vm_area_struct`s, ≤5% of guest memory worst case);
//! and reclaim traversals up to double at low pressure (Figure 11c).

use super::common::{host, linux_vm};
use super::fig11::workload;
use super::Scale;
use crate::suite::{ExperimentPlan, TaskCtx, Unit, UnitOut};
use crate::table::Table;
use vswap_core::SwapPolicy;
use vswap_workloads::pbzip2::Pbzip2;

/// Bytes the paper charges per tracked page (a `vm_area_struct` plus
/// `i_mmap` bookkeeping).
const BYTES_PER_TRACKED_PAGE: u64 = 200;

/// Runs one pbzip2 machine at the given actual allocation; returns
/// (runtime, mapper high water, pages scanned).
fn run_one(scale: Scale, policy: SwapPolicy, actual_mb: u64, ctx: &mut TaskCtx) -> (f64, u64, u64) {
    let mut m = ctx.machine("overheads", policy, host(scale));
    let vm = m.add_vm(linux_vm(scale, "guest", 512, actual_mb)).expect("fits");
    m.launch(vm, Box::new(Pbzip2::new(workload(scale))));
    let report = m.run();
    m.host().audit().expect("invariants hold");
    ctx.absorb_report("overheads", &report);
    (
        report.vm(vm).runtime_secs(),
        report.mapper.get("mapper_tracked_high_water"),
        report.host.get("pages_scanned"),
    )
}

/// Four units: (baseline, vswapper) × (full allocation, mild squeeze).
/// Full allocation measures the no-pressure overhead; the squeeze makes
/// reclaim actually run so the scan-doubling comparison is meaningful.
pub fn plan(scale: Scale) -> ExperimentPlan {
    let mut units = Vec::new();
    for (tag, mb) in [("full", 512u64), ("squeeze", 448)] {
        for policy in [SwapPolicy::Baseline, SwapPolicy::Vswapper] {
            units.push(Unit::new(format!("{tag}/{}", policy.label()), move |ctx: &mut TaskCtx| {
                let (rt, tracked, scanned) = run_one(scale, policy, mb, ctx);
                UnitOut::Cells(vec![rt.into(), tracked.into(), scanned.into()])
            }));
        }
    }
    ExperimentPlan::new(units, |outs| {
        let rows: Vec<Vec<crate::table::Cell>> =
            outs.into_iter().map(UnitOut::into_cells).collect();
        let get = |row: usize, col: usize| match rows[row][col] {
            crate::table::Cell::Float(v) => v,
            crate::table::Cell::Int(v) => v as f64,
            _ => f64::NAN,
        };
        let mut table = Table::new(
            "Section 5.3: overheads with plentiful memory (paper: <=3.5% slowdown, <=14MB metadata, <=2x scans)",
            vec!["metric", "baseline", "vswapper", "paper bound"],
        );
        table.push(vec![
            "pbzip2 runtime [s]".into(),
            get(0, 0).into(),
            get(1, 0).into(),
            "≤ 1.035× baseline".into(),
        ]);
        let tracked = get(1, 1) as u64;
        table.push(vec![
            "mapper metadata [MB]".into(),
            0u64.into(),
            ((tracked * BYTES_PER_TRACKED_PAGE) / (1024 * 1024)).into(),
            "≤ 14 MB observed".into(),
        ]);
        table.push(vec![
            "pages scanned by reclaim (mild squeeze)".into(),
            (get(2, 2) as u64).into(),
            (get(3, 2) as u64).into(),
            "≤ 2× baseline".into(),
        ]);
        vec![table]
    })
}

#[cfg(test)]
mod tests {
    use crate::suite::smoke_tables;

    #[test]
    fn smoke_overhead_is_small_with_ample_memory() {
        let t = &smoke_tables("tab03")[0];
        let base = t.value("pbzip2 runtime [s]", "baseline").unwrap();
        let vswap = t.value("pbzip2 runtime [s]", "vswapper").unwrap();
        assert!(
            vswap <= base * 1.06,
            "vswapper ({vswap:.2}s) must stay within a few percent of baseline ({base:.2}s)"
        );
    }
}
