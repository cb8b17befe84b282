//! Latency: per-class fault-lifecycle latency distributions. Runs the
//! Figure-3 reference workload (sequential read of a 200 MB file in a
//! memory-squeezed 512 MB guest) under each of the four configurations
//! with a transient-fault disk, and reports the p50/p99/p999 of every
//! [`LatencyClass`]: swap-in (including Mapper named refaults),
//! write-behind swap-out queueing, Preventer buffered-emulation
//! lifetimes, and retried I/O.
//!
//! The distributions come from the machine's always-on
//! [`sim_obs::LatencyBook`], which merges with an element-wise sum —
//! so this table is bitwise identical at any `--jobs`, with or without
//! event tracing attached.

use super::common::{host, linux_vm, prepare_and_age, FOUR_CONFIGS};
use super::Scale;
use crate::suite::{ExperimentPlan, TaskCtx, Unit, UnitOut};
use crate::table::Table;
use sim_obs::LatencyClass;
use vswap_core::{FaultProfile, MachineConfig, SwapPolicy};
use vswap_mem::MemBytes;
use vswap_workloads::alloctouch::{AccessMode, AllocStream};
use vswap_workloads::SysbenchRead;

/// Columns reported per (config, class) row, beyond the row key.
const COLUMNS: [&str; 5] = ["count", "p50 [us]", "p99 [us]", "p999 [us]", "max [us]"];

/// Runs the reference workload under one policy and summarizes its
/// latency book: [`COLUMNS`] values per class, classes in
/// [`LatencyClass::ALL`] order.
fn run_policy(scale: Scale, policy: SwapPolicy, ctx: &mut TaskCtx) -> Vec<Vec<f64>> {
    // Transient faults make the retried-I/O class non-empty without
    // perturbing logical content; the fault schedule derives from the
    // machine seed, so the sweep stays deterministic.
    let cfg =
        MachineConfig::preset(policy).with_host(host(scale)).with_faults(FaultProfile::Transient);
    let mut m = ctx.instrumented("latency", cfg);
    let vm = m.add_vm(linux_vm(scale, "guest", 512, 100)).expect("experiment VM fits");
    let file_pages = MemBytes::from_mb(scale.mb(200)).pages();
    let shared = prepare_and_age(&mut m, vm, file_pages);
    m.launch(vm, Box::new(SysbenchRead::new(shared)));
    let _ = m.run();
    // A write-heavy phase over recycled frames (the Figure-10 shape):
    // full-page writes onto swapped-out pages are exactly what the
    // Preventer buffers, populating the prevented-write class.
    let pages = MemBytes::from_mb(scale.mb(200)).pages();
    m.launch(vm, Box::new(AllocStream::new(pages, AccessMode::Write)));
    let report = m.run();
    ctx.absorb_report("latency", &report);
    LatencyClass::ALL
        .iter()
        .map(|&class| {
            let h = report.latency.class_hist(class);
            vec![
                h.count() as f64,
                h.p50().as_micros_f64(),
                h.p99().as_micros_f64(),
                h.p999().as_micros_f64(),
                h.max().as_micros_f64(),
            ]
        })
        .collect()
}

/// One unit per configuration.
pub fn plan(scale: Scale) -> ExperimentPlan {
    let units = FOUR_CONFIGS
        .iter()
        .map(|&policy| {
            Unit::new(policy.label(), move |ctx: &mut TaskCtx| {
                let cells =
                    run_policy(scale, policy, ctx).into_iter().flatten().map(Into::into).collect();
                UnitOut::Cells(cells)
            })
        })
        .collect();
    ExperimentPlan::new(units, |outs| {
        let mut columns = vec!["config/class"];
        columns.extend(COLUMNS);
        let mut table = Table::new(
            "Latency: fault-lifecycle latency distributions under transient disk faults",
            columns,
        );
        for (&policy, out) in FOUR_CONFIGS.iter().zip(outs) {
            let cells = out.into_cells();
            for (i, class) in LatencyClass::ALL.iter().enumerate() {
                let mut row = vec![format!("{}/{}", policy.label(), class.name()).into()];
                row.extend(cells[i * COLUMNS.len()..(i + 1) * COLUMNS.len()].iter().cloned());
                table.push(row);
            }
        }
        vec![table]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::smoke_tables;

    #[test]
    fn smoke_distributions_are_populated_and_ordered() {
        let tables = smoke_tables("latency");
        let t = &tables[0];
        // Ballooning exists to avoid host swap, so only the unassisted
        // policies are required to show swap-in traffic.
        for policy in [SwapPolicy::Baseline, SwapPolicy::Vswapper] {
            let key = format!("{}/swap_in", policy.label());
            let count = t.value(&key, "count").unwrap();
            assert!(count > 0.0, "{key}: memory pressure must cause swap-ins");
            let p50 = t.value(&key, "p50 [us]").unwrap();
            let p99 = t.value(&key, "p99 [us]").unwrap();
            let max = t.value(&key, "max [us]").unwrap();
            assert!(p50 <= p99 && p99 <= max, "{key}: quantiles must be ordered");
        }
        let retried = format!("{}/retried_io", SwapPolicy::Baseline.label());
        assert!(
            t.value(&retried, "count").unwrap() > 0.0,
            "transient faults must produce retried I/O"
        );
    }

    #[test]
    fn preventer_class_tracks_the_preventer_policies() {
        let tables = smoke_tables("latency");
        let t = &tables[0];
        let without = format!("{}/prevented_write", SwapPolicy::Baseline.label());
        assert_eq!(t.value(&without, "count"), Some(0.0), "no Preventer, no buffered writes");
        let with = format!("{}/prevented_write", SwapPolicy::Vswapper.label());
        assert!(
            t.value(&with, "count").unwrap() > 0.0,
            "the Preventer must buffer guest writes under pressure"
        );
    }
}
