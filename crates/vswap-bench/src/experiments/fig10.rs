//! Figure 10: the false-reads microbenchmark (§3.1) — after the iterated
//! Sysbench read, the guest forks a process that allocates and
//! sequentially accesses 200 MB.
//!
//! Every page the new process touches is zeroed over a recycled frame
//! the host has swapped out: one false swap read each for the baseline.
//! The paper compares baseline, vswapper-without-preventer (mapper),
//! and full vswapper — the balloon crashed the workload — and reports
//! that "enabling the Preventer more than doubles the performance",
//! tightly correlated with disk operations.

use super::common::{host, linux_vm, prepare_and_age, SWEEP_CONFIGS};
use super::Scale;
use crate::suite::{ExperimentPlan, TaskCtx, Unit, UnitOut};
use crate::table::{Cell, Table};
use vswap_core::{RunReport, SwapPolicy};
use vswap_mem::MemBytes;
use vswap_workloads::alloctouch::{AccessMode, AllocStream};
use vswap_workloads::SysbenchRead;

/// Runs one configuration; returns (runtime seconds, disk ops during the
/// microbenchmark, killed, report).
pub fn run_config(
    scale: Scale,
    policy: SwapPolicy,
    ctx: &mut TaskCtx,
) -> (f64, u64, bool, RunReport) {
    let mut m = ctx.machine("false-reads", policy, host(scale));
    let vm = m.add_vm(linux_vm(scale, "guest", 512, 100)).expect("fits");
    let file_pages = MemBytes::from_mb(scale.mb(200)).pages();
    let shared = prepare_and_age(&mut m, vm, file_pages);
    // The preceding Sysbench read phase (§3.1 extends that benchmark).
    m.launch(vm, Box::new(SysbenchRead::new(shared)));
    let _ = m.run();
    let ops_before = m.host().disk_stats().ops;
    let pages = MemBytes::from_mb(scale.mb(200)).pages();
    m.launch(vm, Box::new(AllocStream::new(pages, AccessMode::Write)));
    let report = m.run();
    m.host().audit().expect("invariants hold");
    let r = report.vm(vm);
    let rt = r.runtime_secs();
    let killed = r.killed.is_some();
    let ops = report.disk.get("disk_ops") - ops_before;
    (rt, ops, killed, report)
}

/// One unit per configuration bar.
pub fn plan(scale: Scale) -> ExperimentPlan {
    let units = SWEEP_CONFIGS
        .iter()
        .map(|&policy| {
            Unit::new(policy.label(), move |ctx: &mut TaskCtx| {
                let (rt, ops, killed, report) = run_config(scale, policy, ctx);
                UnitOut::Cells(vec![
                    if killed { Cell::Missing } else { rt.into() },
                    if killed { Cell::Missing } else { Cell::Float(ops as f64 / 1000.0) },
                    report.host.get("false_swap_reads").into(),
                ])
            })
        })
        .collect();
    ExperimentPlan::new(units, |outs| {
        let mut table = Table::new(
            "Figure 10: alloc+touch 200MB after the file read — runtime and disk ops ('-' = killed)",
            vec!["config", "runtime [s]", "disk ops [thousands]", "false swap reads"],
        );
        for (policy, out) in SWEEP_CONFIGS.iter().zip(outs) {
            let mut row = vec![Cell::from(policy.label())];
            row.extend(out.into_cells());
            table.push(row);
        }
        vec![table]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(label: &str) -> TaskCtx {
        TaskCtx::standalone(crate::suite::DEFAULT_SEED, label)
    }

    #[test]
    fn smoke_preventer_more_than_halves_mapper_only_runtime_gap() {
        let (base_rt, base_ops, bk, _) =
            run_config(Scale::Smoke, SwapPolicy::Baseline, &mut ctx("base"));
        let (vswap_rt, vswap_ops, vk, vr) =
            run_config(Scale::Smoke, SwapPolicy::Vswapper, &mut ctx("vswap"));
        assert!(!bk && !vk);
        assert!(vswap_rt < base_rt, "vswapper ({vswap_rt:.2}s) must beat baseline ({base_rt:.2}s)");
        assert!(vswap_ops < base_ops, "runtime follows disk ops");
        assert_eq!(vr.host.get("false_swap_reads"), 0);
    }
}
