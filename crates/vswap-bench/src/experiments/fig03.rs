//! Figure 3: time for a guest to sequentially read a 200 MB file,
//! believing it has 512 MB of memory while actually granted 100 MB.
//!
//! Paper values (seconds): baseline 38.7, balloon+base 3.1,
//! vswapper 4.0, balloon+vswapper 3.1 — "the best we have observed in
//! favor of ballooning".

use super::common::{host, linux_vm, prepare_and_age, FOUR_CONFIGS};
use super::Scale;
use crate::suite::{ExperimentPlan, TaskCtx, Unit, UnitOut};
use crate::table::Table;
use vswap_mem::MemBytes;
use vswap_workloads::SysbenchRead;

/// Paper-reported runtimes for the four configurations.
pub const PAPER_SECONDS: [(&str, f64); 4] =
    [("baseline", 38.7), ("balloon+base", 3.1), ("vswapper", 4.0), ("balloon+vswap", 3.1)];

/// One unit per configuration: the four sequential-read simulations are
/// independent machines.
pub fn plan(scale: Scale) -> ExperimentPlan {
    let units = FOUR_CONFIGS
        .iter()
        .map(|&policy| {
            Unit::new(policy.label(), move |ctx: &mut TaskCtx| {
                let mut m = ctx.machine("read", policy, host(scale));
                let vm = m.add_vm(linux_vm(scale, "guest", 512, 100)).expect("experiment VM fits");
                let file_pages = MemBytes::from_mb(scale.mb(200)).pages();
                let shared = prepare_and_age(&mut m, vm, file_pages);
                m.launch(vm, Box::new(SysbenchRead::new(shared)));
                let report = m.run();
                ctx.absorb_report("read", &report);
                UnitOut::Value(report.vm(vm).runtime_secs())
            })
        })
        .collect();
    ExperimentPlan::new(units, |outs| {
        let mut table = Table::new(
            "Figure 3: sequential read of a 200MB file (512MB guest, 100MB actual) — runtime [s]",
            vec!["config", "measured [s]", "paper [s]"],
        );
        for ((policy, &(label, paper)), out) in
            FOUR_CONFIGS.iter().zip(PAPER_SECONDS.iter()).zip(outs)
        {
            debug_assert_eq!(label, policy.label());
            table.push(vec![policy.label().into(), out.into_value().into(), paper.into()]);
        }
        vec![table]
    })
}

#[cfg(test)]
mod tests {
    use crate::suite::smoke_tables;

    #[test]
    fn smoke_shape_matches_paper() {
        let tables = smoke_tables("fig03");
        let t = &tables[0];
        let base = t.value("baseline", "measured [s]").unwrap();
        let balloon = t.value("balloon+base", "measured [s]").unwrap();
        let vswap = t.value("vswapper", "measured [s]").unwrap();
        // The paper's ordering: baseline ≫ vswapper ≥ balloon.
        assert!(base > 2.0 * vswap, "baseline ({base:.2}) must dwarf vswapper ({vswap:.2})");
        assert!(base > 2.0 * balloon, "baseline ({base:.2}) must dwarf balloon ({balloon:.2})");
    }
}
