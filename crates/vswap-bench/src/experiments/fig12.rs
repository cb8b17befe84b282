//! Figure 12: Kernbench (building the Linux kernel) inside a 512 MB
//! guest whose actual allocation sweeps 512 → 192 MB.
//!
//! * (a) runtime — the paper reproduces a VMware white paper's 15%
//!   (baseline) vs 4-5% (balloon) slowdown at 192 MB; VSwapper lands
//!   within 1% of ballooning,
//! * (b) Preventer remaps — up to 80 K false reads eliminated as
//!   compiler processes zero their address spaces over recycled frames.

use super::common::{host, linux_vm, SWEEP_CONFIGS};
use super::Scale;
use crate::suite::{ExperimentPlan, TaskCtx, Unit, UnitOut};
use crate::table::{Cell, Table};
use sim_core::SimDuration;
use vswap_core::{RunReport, SwapPolicy};
use vswap_mem::MemBytes;
use vswap_workloads::kernbench::{Kernbench, KernbenchConfig};

/// The actual-memory sweep of Figure 12 (MB).
pub const SWEEP_MB: [u64; 5] = [512, 448, 384, 256, 192];

/// The kernbench workload at a given scale.
pub fn workload(scale: Scale) -> KernbenchConfig {
    match scale {
        Scale::Paper => KernbenchConfig {
            jobs: 3000,
            source_pages: MemBytes::from_mb(420).pages(),
            read_pages_per_job: 32,
            anon_pages_per_job: 512,
            output_pages_per_job: 4,
            cpu_per_job: SimDuration::from_millis(380),
        },
        Scale::Smoke => KernbenchConfig {
            jobs: 120,
            source_pages: MemBytes::from_mb(26).pages(),
            read_pages_per_job: 32,
            anon_pages_per_job: 128,
            output_pages_per_job: 2,
            cpu_per_job: SimDuration::from_millis(20),
        },
    }
}

/// Runs one (policy, actual-MB) point; returns (report, runtime, killed).
pub fn run_point(
    scale: Scale,
    policy: SwapPolicy,
    actual_mb: u64,
    ctx: &mut TaskCtx,
) -> (RunReport, f64, bool) {
    let mut m = ctx.machine("kernbench", policy, host(scale));
    let vm = m.add_vm(linux_vm(scale, "guest", 512, actual_mb)).expect("fits");
    m.launch(vm, Box::new(Kernbench::new(workload(scale))));
    let report = m.run();
    m.host().audit().expect("invariants hold");
    let rt = report.vm(vm).runtime_secs();
    let killed = report.vm(vm).killed.is_some();
    (report, rt, killed)
}

/// One unit per `(policy, actual-MB)` point of the Kernbench sweep.
pub fn plan(scale: Scale) -> ExperimentPlan {
    let mut units = Vec::new();
    for policy in SWEEP_CONFIGS {
        for &mb in &SWEEP_MB {
            units.push(Unit::new(
                format!("{}/{mb}MB", policy.label()),
                move |ctx: &mut TaskCtx| {
                    let (report, rt, killed) = run_point(scale, policy, mb, ctx);
                    UnitOut::Cells(vec![
                        if killed { Cell::Missing } else { (rt / 60.0).into() },
                        report.preventer.get("preventer_remaps").into(),
                    ])
                },
            ));
        }
    }
    ExperimentPlan::new(units, |outs| {
        let cols: Vec<String> = std::iter::once("config".to_owned())
            .chain(SWEEP_MB.iter().map(|mb| format!("{mb}MB")))
            .collect();
        let mut runtime = Table::new(
            "Figure 12a: Kernbench runtime [minutes]",
            cols.iter().map(String::as_str).collect(),
        );
        let mut remaps = Table::new(
            "Figure 12b: Preventer remaps (false reads eliminated) [count]",
            cols.iter().map(String::as_str).collect(),
        );
        let mut outs = outs.into_iter();
        for policy in SWEEP_CONFIGS {
            let mut rt_row = vec![Cell::from(policy.label())];
            let mut rm_row = vec![Cell::from(policy.label())];
            for _ in &SWEEP_MB {
                let cells = outs.next().expect("one output per unit").into_cells();
                let [rt, rm]: [Cell; 2] = cells.try_into().expect("two cells per point");
                rt_row.push(rt);
                rm_row.push(rm);
            }
            runtime.push(rt_row);
            remaps.push(rm_row);
        }
        vec![runtime, remaps]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(label: &str) -> TaskCtx {
        TaskCtx::standalone(crate::suite::DEFAULT_SEED, label)
    }

    #[test]
    fn smoke_everyone_survives_and_vswapper_tracks_balloon() {
        let (_, base, bk) = run_point(Scale::Smoke, SwapPolicy::Baseline, 192, &mut ctx("base"));
        let (vr, vs, vk) = run_point(Scale::Smoke, SwapPolicy::Vswapper, 192, &mut ctx("vswap"));
        let (_, bal, lk) =
            run_point(Scale::Smoke, SwapPolicy::BalloonBaseline, 192, &mut ctx("balloon"));
        assert!(!bk && !vk && !lk, "no kernbench kills (Figure 12 has no missing bars)");
        assert!(vs <= base * 1.02, "vswapper ({vs:.1}s) must not lose to baseline ({base:.1}s)");
        // Smoke scale exaggerates relative overheads (tiny guests, hot
        // kernel slice comparable to the whole allocation); the
        // paper-scale table in EXPERIMENTS.md shows the ~1% gap.
        assert!(vs <= bal * 2.5, "vswapper ({vs:.1}s) lands near ballooning ({bal:.1}s)");
        assert!(vr.preventer.get("preventer_remaps") > 0, "Figure 12b remaps");
    }
}
