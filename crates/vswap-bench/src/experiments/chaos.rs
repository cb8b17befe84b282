//! Chaos: the fault-injection sweep. Runs the Figure-3 reference
//! workload (sequential read of a 200 MB file in a memory-squeezed
//! 512 MB guest) under the full VSwapper while the physical disk
//! misbehaves according to each [`FaultProfile`], and reports the
//! slowdown plus the recovery counters.
//!
//! Every profile runs the *same* machine seed, so the workload, the
//! reclaim schedule, and the logical content stream are held constant;
//! the only varying factor is the injected-fault schedule. The `none`
//! row is the fault-free reference the slowdown column divides by — and
//! the run the chaos oracle (`tests/chaos.rs`) compares guest-visible
//! content against.

use super::common::{host, linux_vm, prepare_and_age};
use super::Scale;
use crate::suite::{ExperimentPlan, TaskCtx, Unit, UnitOut};
use crate::table::Table;
use vswap_core::{FaultProfile, Machine, MachineConfig, SwapPolicy};
use vswap_mem::MemBytes;
use vswap_workloads::SysbenchRead;

/// Counters reported per profile, beyond the runtime.
const COUNTERS: [&str; 7] =
    ["faults", "retries", "timeouts", "torn", "recovered", "degraded", "remapped slots"];

/// Runs the reference workload under one fault profile. Returns the
/// runtime in seconds followed by the [`COUNTERS`] values.
fn run_profile(scale: Scale, profile: FaultProfile, ctx: &mut TaskCtx) -> (f64, [u64; 7]) {
    // Deliberately NOT seeded from the task stream: every profile must
    // replay the identical workload (and, via the derived fault root,
    // draw its schedule from the same seed), so the sweep isolates the
    // profile as the only independent variable.
    let cfg = MachineConfig::preset(SwapPolicy::Vswapper)
        .with_host(host(scale))
        .with_seed(crate::suite::DEFAULT_SEED)
        .with_faults(profile);
    let mut m = Machine::new(cfg).expect("valid experiment host");
    let vm = m.add_vm(linux_vm(scale, "guest", 512, 100)).expect("experiment VM fits");
    let file_pages = MemBytes::from_mb(scale.mb(200)).pages();
    let shared = prepare_and_age(&mut m, vm, file_pages);
    m.launch(vm, Box::new(SysbenchRead::new(shared)));
    let report = m.run();
    m.host().audit().expect("invariants hold under fault storms");
    ctx.absorb_report(profile.label(), &report);
    let counters = [
        report.disk.get("disk_injected_faults"),
        report.host.get("io_retries"),
        report.disk.get("disk_timed_out_requests"),
        report.disk.get("disk_torn_writes"),
        report.host.get("recovered_pages"),
        report.host.get("degraded_pages"),
        report.host.get("swap_slot_remaps"),
    ];
    (report.vm(vm).runtime_secs(), counters)
}

/// One unit per fault profile.
pub fn plan(scale: Scale) -> ExperimentPlan {
    let units = FaultProfile::ALL
        .iter()
        .map(|&profile| {
            Unit::new(profile.label(), move |ctx: &mut TaskCtx| {
                let (secs, counters) = run_profile(scale, profile, ctx);
                let mut cells = vec![secs.into()];
                cells.extend(counters.into_iter().map(Into::into));
                UnitOut::Cells(cells)
            })
        })
        .collect();
    ExperimentPlan::new(units, |outs| {
        let mut columns = vec!["profile", "runtime [s]", "slowdown"];
        columns.extend(COUNTERS);
        let mut table = Table::new(
            "Chaos: Figure-3 workload under deterministic disk-fault injection (vswapper)",
            columns,
        );
        let rows: Vec<Vec<crate::table::Cell>> =
            outs.into_iter().map(UnitOut::into_cells).collect();
        let reference = match rows.first().and_then(|r| r.first()) {
            Some(crate::table::Cell::Float(s)) => *s,
            _ => f64::NAN,
        };
        for (&profile, cells) in FaultProfile::ALL.iter().zip(rows) {
            let runtime = match cells.first() {
                Some(crate::table::Cell::Float(s)) => *s,
                _ => f64::NAN,
            };
            let mut row = vec![profile.label().into(), cells[0].clone()];
            row.push(if reference > 0.0 { (runtime / reference).into() } else { f64::NAN.into() });
            row.extend(cells.into_iter().skip(1));
            table.push(row);
        }
        vec![table]
    })
}

#[cfg(test)]
mod tests {
    use crate::suite::smoke_tables;

    #[test]
    fn smoke_sweep_reports_faults_and_recoveries() {
        let tables = smoke_tables("chaos");
        let t = &tables[0];
        assert_eq!(t.value("none", "slowdown"), Some(1.0), "the reference row divides itself");
        assert_eq!(t.value("none", "faults"), Some(0.0), "no plan, no faults");
        let storm_faults = t.value("storm", "faults").unwrap();
        assert!(storm_faults > 0.0, "the storm profile must actually inject");
        let storm_slowdown = t.value("storm", "slowdown").unwrap();
        assert!(
            storm_slowdown >= 1.0,
            "faults cannot speed the disk up: slowdown {storm_slowdown:.2}"
        );
        let recovered =
            t.value("latent", "recovered").unwrap() + t.value("latent", "degraded").unwrap();
        assert!(recovered > 0.0, "latent sectors must trigger the degradation paths");
    }

    #[test]
    fn transient_profile_retries_without_degrading() {
        let tables = smoke_tables("chaos");
        let t = &tables[0];
        assert!(t.value("transient", "retries").unwrap() > 0.0, "transients are retried");
        assert_eq!(t.value("transient", "degraded"), Some(0.0), "no mapping is invalidated");
    }
}
