//! Table 2: the "foreign hypervisor" experiment (§5.4, VMware
//! Workstation 9) — a 1 GB sequential file read inside a 440 MB Linux
//! guest reserved 350 MB, with the balloon enabled vs disabled.
//!
//! Paper values: 25 s with the balloon, 78 s without; ~292 K/258 K swap
//! sectors written/read ballooning vs ~1.04 M each without; 3,659 vs
//! 16,488 major faults. The paper adds that the same benchmark on KVM
//! with VSwapper completed in 12 seconds.

use super::common::{host_with_dram, linux_vm, prepare_and_age};
use super::Scale;
use crate::suite::{ExperimentPlan, TaskCtx, Unit, UnitOut};
use crate::table::Table;
use vswap_core::SwapPolicy;
use vswap_mem::MemBytes;
use vswap_workloads::SysbenchRead;

/// The three rows of Table 2.
const ROWS: [(&str, SwapPolicy); 3] = [
    ("balloon enabled", SwapPolicy::BalloonBaseline),
    ("balloon disabled", SwapPolicy::Baseline),
    ("kvm + vswapper", SwapPolicy::Vswapper),
];

/// Runs one configuration of the foreign-hypervisor profile.
fn run_config(scale: Scale, policy: SwapPolicy, ctx: &mut TaskCtx) -> (f64, u64, u64, u64) {
    let mut m = ctx.machine("foreign", policy, host_with_dram(scale, 512));
    let vm = m.add_vm(linux_vm(scale, "guest", 440, 350)).expect("fits");
    let file_pages = MemBytes::from_mb(scale.mb(1024)).pages();
    let shared = prepare_and_age(&mut m, vm, file_pages);
    let reads_before = m.host().disk_stats().swap_sectors_read;
    let writes_before = m.host().disk_stats().swap_sectors_written;
    let faults_before = m.host().stats().guest_major_faults + m.host().stats().host_context_faults;
    m.launch(vm, Box::new(SysbenchRead::new(shared)));
    let report = m.run();
    m.host().audit().expect("invariants hold");
    (
        report.vm(vm).runtime_secs(),
        report.disk.get("disk_swap_sectors_read") - reads_before,
        report.disk.get("disk_swap_sectors_written") - writes_before,
        report.host.get("guest_major_faults") + report.host.get("host_context_faults")
            - faults_before,
    )
}

/// One unit per configuration row.
pub fn plan(scale: Scale) -> ExperimentPlan {
    let units = ROWS
        .iter()
        .map(|&(label, policy)| {
            Unit::new(label, move |ctx: &mut TaskCtx| {
                let (rt, r, w, f) = run_config(scale, policy, ctx);
                UnitOut::Cells(vec![rt.into(), r.into(), w.into(), f.into()])
            })
        })
        .collect();
    ExperimentPlan::new(units, |outs| {
        let mut table = Table::new(
            "Table 2: 1GB sequential read, 440MB guest / 350MB reserved (paper: 25s ballooned, 78s not; KVM+vswapper 12s)",
            vec!["config", "runtime [s]", "swap sectors read", "swap sectors written", "major faults"],
        );
        for (&(label, _), out) in ROWS.iter().zip(outs) {
            let mut row = vec![label.into()];
            row.extend(out.into_cells());
            table.push(row);
        }
        vec![table]
    })
}

#[cfg(test)]
mod tests {
    use crate::suite::smoke_tables;

    #[test]
    fn smoke_disabling_the_balloon_multiplies_swap_activity() {
        let t = &smoke_tables("tab02")[0];
        let on = t.value("balloon enabled", "runtime [s]").unwrap();
        let off = t.value("balloon disabled", "runtime [s]").unwrap();
        let vswap = t.value("kvm + vswapper", "runtime [s]").unwrap();
        assert!(off > 2.0 * on, "disabled ({off:.2}s) must dwarf enabled ({on:.2}s)");
        assert!(vswap < off, "vswapper ({vswap:.2}s) must beat the disabled balloon ({off:.2}s)");
        let w_on = t.value("balloon enabled", "swap sectors written").unwrap();
        let w_off = t.value("balloon disabled", "swap sectors written").unwrap();
        assert!(w_off > w_on, "swap writes must grow without the balloon");
    }
}
