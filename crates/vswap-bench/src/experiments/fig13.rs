//! Figure 13: the DaCapo Eclipse workload inside a 512 MB guest whose
//! actual allocation sweeps 512 → 256 MB.
//!
//! Java's garbage collector sweeps the whole heap — the LRU-pathological
//! case. Ballooning is a few percent faster while it works, but
//! "Eclipse is occasionally killed by the ballooning guest when its
//! allocated memory is smaller than 448MB"; the uncooperative
//! configurations never kill it.

use super::common::{host, linux_vm, SWEEP_CONFIGS};
use super::Scale;
use crate::suite::{ExperimentPlan, TaskCtx, Unit, UnitOut};
use crate::table::{Cell, Table};
use sim_core::SimDuration;
use vswap_core::{RunReport, SwapPolicy};
use vswap_mem::MemBytes;
use vswap_workloads::eclipse::{Eclipse, EclipseConfig};

/// The actual-memory sweep of Figure 13 (MB).
pub const SWEEP_MB: [u64; 5] = [512, 448, 384, 320, 256];

/// The Eclipse workload at a given scale.
pub fn workload(scale: Scale) -> EclipseConfig {
    match scale {
        Scale::Paper => EclipseConfig::default(),
        Scale::Smoke => EclipseConfig {
            heap_pages: MemBytes::from_mb(8).pages(),
            static_pages: MemBytes::from_mb(14).pages(),
            static_touches_per_unit: 2,
            workspace_pages: MemBytes::from_mb(4).pages(),
            units: 60,
            touches_per_unit: 96,
            reads_per_unit: 4,
            writes_per_unit: 1,
            gc_interval: 15,
            gc_chunk: 512,
            cpu_per_unit: SimDuration::from_millis(20),
            seed: 0xec1,
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
    let mut m = ctx.machine("eclipse", policy, host(scale));
    let vm = m.add_vm(linux_vm(scale, "guest", 512, actual_mb)).expect("fits");
    m.launch(vm, Box::new(Eclipse::new(workload(scale))));
    let report = m.run();
    m.host().audit().expect("invariants hold");
    let rt = report.vm(vm).runtime_secs();
    let killed = report.vm(vm).killed.is_some();
    (report, rt, killed)
}

/// One unit per `(policy, actual-MB)` point of the Eclipse sweep.
pub fn plan(scale: Scale) -> ExperimentPlan {
    let mut units = Vec::new();
    for policy in SWEEP_CONFIGS {
        for &mb in &SWEEP_MB {
            units.push(Unit::new(
                format!("{}/{mb}MB", policy.label()),
                move |ctx: &mut TaskCtx| {
                    let (_, rt, killed) = run_point(scale, policy, mb, ctx);
                    UnitOut::Cells(vec![if killed { Cell::Missing } else { rt.into() }])
                },
            ));
        }
    }
    ExperimentPlan::new(units, |outs| {
        let cols: Vec<String> = std::iter::once("config".to_owned())
            .chain(SWEEP_MB.iter().map(|mb| format!("{mb}MB")))
            .collect();
        let mut table = Table::new(
            "Figure 13: Eclipse runtime [s] vs actual guest memory ('-' = killed by guest OOM)",
            cols.iter().map(String::as_str).collect(),
        );
        let mut outs = outs.into_iter();
        for policy in SWEEP_CONFIGS {
            let mut row = vec![Cell::from(policy.label())];
            for _ in &SWEEP_MB {
                let mut cells = outs.next().expect("one output per unit").into_cells();
                row.push(cells.pop().expect("one cell per point"));
            }
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
    fn smoke_balloon_kills_eclipse_below_the_heap_size() {
        let (_, _, killed) =
            run_point(Scale::Smoke, SwapPolicy::BalloonBaseline, 320, &mut ctx("deep"));
        assert!(killed, "deep over-ballooning must kill the JVM");
        let (_, _, alive) =
            run_point(Scale::Smoke, SwapPolicy::BalloonBaseline, 512, &mut ctx("fine"));
        assert!(!alive);
    }

    #[test]
    fn smoke_uncooperative_swapping_keeps_the_jvm_alive() {
        for policy in [SwapPolicy::Baseline, SwapPolicy::Vswapper] {
            let (_, rt, killed) = run_point(Scale::Smoke, policy, 320, &mut ctx(policy.label()));
            assert!(!killed, "{policy} must not kill eclipse");
            assert!(rt > 0.0);
        }
    }
}
