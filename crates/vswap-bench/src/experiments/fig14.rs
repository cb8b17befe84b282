//! Figure 14: phased execution of 1–10 guests running the Metis
//! MapReduce word-count, started 10 seconds apart, on a host with 8 GB —
//! enough for about four of the 2 GB guests.
//!
//! The dynamic-conditions headline: once memory pressure sets in (seven
//! or more guests), a cascading slowdown begins. MOM-managed ballooning
//! reacts too slowly and ends up *behind* plain uncooperative swapping;
//! the VSwapper configurations degrade most gracefully (the paper:
//! balloon-only, baseline, and vswapper are 0.96–1.84×, 0.96–1.79×, and
//! 0.97–1.11× of balloon+vswapper, respectively).

use super::common::{host_with_dram, linux_vm, phase_gap, FOUR_CONFIGS};
use super::Scale;
use crate::suite::{ExperimentPlan, TaskCtx, Unit, UnitOut};
use crate::table::{Cell, Table};
use sim_core::SimTime;
use vswap_core::{MachineConfig, RunReport, SwapPolicy};
use vswap_guestos::GuestSpec;
use vswap_hypervisor::BalloonPolicy;
use vswap_mem::MemBytes;
use vswap_workloads::mapreduce::{MapReduce, MapReduceConfig};

/// The MapReduce workload at a given scale, seeded per guest.
pub fn workload(scale: Scale, seed: u64) -> MapReduceConfig {
    match scale {
        Scale::Paper => MapReduceConfig { seed, ..MapReduceConfig::default() },
        Scale::Smoke => MapReduceConfig {
            input_pages: MemBytes::from_mb(18).pages(),
            table_pages: MemBytes::from_mb(56).pages(),
            output_pages: MemBytes::from_mb(1).pages(),
            seed,
            ..MapReduceConfig::default()
        },
    }
}

/// Runs `guests` phased MapReduce guests under one policy; returns the
/// mean completion time in seconds and the full report. Guest workload
/// seeds split off the task's RNG stream, so every `(policy, guests)`
/// point is reproducible independently of scheduling.
pub fn run_point(
    scale: Scale,
    policy: SwapPolicy,
    guests: u32,
    ctx: &mut TaskCtx,
) -> (f64, RunReport) {
    // 8 GB host; 2 GB guests with 2 VCPUs, per §5.2. The physical disk
    // must hold every guest's private 20 GB image (§5.2: "each guest
    // virtual disk is private").
    let mut host = host_with_dram(scale, 8 * 1024);
    host.disk_pages =
        host.swap_pages + u64::from(guests + 1) * MemBytes::from_mb(scale.mb(21 * 1024)).pages();
    let mut cfg = MachineConfig::preset(policy).with_host(host);
    if policy.ballooning() {
        // Dynamic conditions use the MOM manager, not a static balloon.
        cfg = cfg.with_auto_balloon(BalloonPolicy::default());
    }
    let mut m = ctx.instrumented("consolidation", cfg);
    let gap = phase_gap(scale);
    for i in 0..guests {
        let mem = MemBytes::from_mb(scale.mb(2048));
        let spec = linux_vm(scale, &format!("guest{i}"), 2048, 2048)
            .with_vcpus(2)
            .with_guest(GuestSpec { memory: mem, ..linux_vm(scale, "template", 2048, 2048).guest });
        let vm = m.add_vm(spec).expect("fits on disk");
        m.launch_at(
            vm,
            Box::new(MapReduce::new(workload(scale, ctx.seed()))),
            SimTime::ZERO + gap * u64::from(i),
        );
    }
    let report = m.run();
    m.host().audit().expect("invariants hold");
    ctx.absorb_report("consolidation", &report);
    let mean = report.mean_runtime_secs().unwrap_or(f64::NAN);
    (mean, report)
}

/// Guest counts plotted by Figure 14.
pub fn guest_counts(scale: Scale) -> Vec<u32> {
    match scale {
        Scale::Paper => (1..=10).collect(),
        Scale::Smoke => vec![1, 3, 5],
    }
}

/// One unit per `(policy, guest count)` point: each multi-guest
/// consolidation run is an independent simulation, and they dominate the
/// suite's wall-clock — exactly what the worker pool should chew on.
pub fn plan(scale: Scale) -> ExperimentPlan {
    let counts = guest_counts(scale);
    let mut units = Vec::new();
    for policy in FOUR_CONFIGS {
        for &n in &counts {
            units.push(Unit::new(
                format!("{}/{n}-guests", policy.label()),
                move |ctx: &mut TaskCtx| {
                    let (mean, _) = run_point(scale, policy, n, ctx);
                    UnitOut::Value(mean)
                },
            ));
        }
    }
    ExperimentPlan::new(units, move |outs| {
        let cols: Vec<String> = std::iter::once("config".to_owned())
            .chain(counts.iter().map(|n| format!("{n} guests")))
            .collect();
        let mut table = Table::new(
            "Figure 14: mean MapReduce completion time [s], guests started 10s apart",
            cols.iter().map(String::as_str).collect(),
        );
        let mut outs = outs.into_iter();
        for policy in FOUR_CONFIGS {
            let mut row = vec![Cell::from(policy.label())];
            for _ in &counts {
                row.push(outs.next().expect("one output per unit").into_value().into());
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
    fn smoke_overcommit_slows_everyone_but_vswapper_least() {
        let (solo, _) = run_point(Scale::Smoke, SwapPolicy::Baseline, 1, &mut ctx("solo"));
        let (base, _) = run_point(Scale::Smoke, SwapPolicy::Baseline, 5, &mut ctx("base"));
        let (vswap, _) = run_point(Scale::Smoke, SwapPolicy::Vswapper, 5, &mut ctx("vswap"));
        assert!(base > solo, "overcommit must cost something: {base:.1} vs {solo:.1}");
        assert!(vswap < base, "vswapper mean ({vswap:.1}s) must beat baseline mean ({base:.1}s)");
    }
}
