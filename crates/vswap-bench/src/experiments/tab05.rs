//! Section 7 (future work), implemented: live migration enhanced by
//! VSwapper.
//!
//! The paper proposes migrating *memory mappings* instead of named
//! memory pages and skipping pages that were never written. This
//! experiment migrates a warmed 512 MB guest (200 MB of file cache plus
//! boot state, 256 MB actual allocation) over a 1 Gb/s link, idle and
//! while actively re-scanning its file, under baseline uncooperative
//! swapping vs. VSwapper.

use super::common::{host, linux_vm, prepare_and_age};
use super::Scale;
use crate::suite::{ExperimentPlan, TaskCtx, Unit, UnitOut};
use crate::table::Table;
use vswap_core::{LiveMigration, MigrationConfig, SwapPolicy};
use vswap_mem::MemBytes;
use vswap_workloads::{SharedFile, SysbenchPrepare, SysbenchRead};

/// The four migration scenarios of the table.
const SCENARIOS: [(&str, SwapPolicy, bool); 4] = [
    ("baseline, idle", SwapPolicy::Baseline, false),
    ("vswapper, idle", SwapPolicy::Vswapper, false),
    ("baseline, active", SwapPolicy::Baseline, true),
    ("vswapper, active", SwapPolicy::Vswapper, true),
];

/// Runs one migration scenario; returns
/// (MB sent, total seconds, downtime ms, rounds, reference pages, readbacks).
fn migrate(
    scale: Scale,
    policy: SwapPolicy,
    active: bool,
    ctx: &mut TaskCtx,
) -> (f64, f64, f64, u64, u64, u64) {
    let mut m = ctx.machine("migration", policy, host(scale));
    let vm = m.add_vm(linux_vm(scale, "guest", 512, 256)).expect("fits");
    let file_pages = MemBytes::from_mb(scale.mb(200)).pages();
    let shared = prepare_and_age(&mut m, vm, file_pages);
    // Warm the cache with one full read.
    m.launch(vm, Box::new(SysbenchRead::new(shared)));
    m.run();
    if active {
        // Keep *writing* while the migration runs: rewriting the test
        // file dirties cache pages every round.
        m.launch(vm, Box::new(SysbenchPrepare::new(file_pages, SharedFile::new())));
    }
    let report = LiveMigration::new(MigrationConfig::default()).run(&mut m, vm);
    m.host().audit().expect("invariants hold");
    (
        report.total_bytes as f64 / 1e6,
        report.total_time.as_secs_f64(),
        report.downtime.as_millis_f64(),
        report.rounds.len() as u64,
        report.sum(|r| r.reference_pages),
        report.sum(|r| r.swap_readbacks),
    )
}

/// One unit per migration scenario.
pub fn plan(scale: Scale) -> ExperimentPlan {
    let units = SCENARIOS
        .iter()
        .map(|&(label, policy, active)| {
            Unit::new(label, move |ctx: &mut TaskCtx| {
                let (mb, secs, down, rounds, refs, readbacks) = migrate(scale, policy, active, ctx);
                UnitOut::Cells(vec![
                    mb.into(),
                    secs.into(),
                    down.into(),
                    rounds.into(),
                    refs.into(),
                    readbacks.into(),
                ])
            })
        })
        .collect();
    ExperimentPlan::new(units, |outs| {
        let mut table = Table::new(
            "Section 7 (implemented): live migration of a warmed 512MB guest over 1Gb/s",
            vec![
                "scenario",
                "traffic [MB]",
                "time [s]",
                "downtime [ms]",
                "rounds",
                "reference pages",
                "swap readbacks",
            ],
        );
        for (&(label, ..), out) in SCENARIOS.iter().zip(outs) {
            let mut row = vec![label.into()];
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
    fn smoke_vswapper_cuts_migration_traffic() {
        let (base_mb, base_s, ..) =
            migrate(Scale::Smoke, SwapPolicy::Baseline, false, &mut ctx("base"));
        let (vswap_mb, vswap_s, _, _, refs, _) =
            migrate(Scale::Smoke, SwapPolicy::Vswapper, false, &mut ctx("vswap"));
        assert!(refs > 0, "named pages travel as references");
        assert!(
            vswap_mb * 2.0 < base_mb,
            "traffic must at least halve: {vswap_mb:.1} vs {base_mb:.1} MB"
        );
        assert!(vswap_s < base_s);
    }

    #[test]
    fn smoke_baseline_reads_swap_for_the_wire() {
        let (.., readbacks) = migrate(Scale::Smoke, SwapPolicy::Baseline, false, &mut ctx("rb"));
        assert!(readbacks > 0, "a squeezed baseline guest has swapped pages to read back");
    }
}
