//! Cluster chaos: the fleet-level fault-tolerance sweep. Runs the
//! cluster experiment's phased file-scan fleet while the *cluster
//! itself* misbehaves according to each [`ClusterFaultProfile`] — hosts
//! fail-stop and their guests are evacuated onto survivors, brown-outs
//! stall whole hosts for an epoch, and migration links drop mid
//! pre-copy, forcing aborts, rollback, and bounded retry.
//!
//! Every `(policy, fleet)` point runs the *same* machine seed across
//! all profiles, so the workload and reclaim schedule are held constant
//! and the only varying factor is the injected fleet-fault schedule.
//! The `none` column is byte-identical to a fault-free cluster run —
//! the invariance the chaos oracle (`tests/cluster_chaos.rs`) pins.
//!
//! The headline mirrors the paper's thesis from the fault-tolerance
//! side: with the Mapper on, a crashed host's clean file-backed pages
//! are recovered from their disk-image block references, so evacuation
//! re-faults only what was genuinely volatile; the baseline must
//! re-fault everything it lost.

use super::cluster::{cluster_host, scan_pages, tenant_vm};
use super::common::phase_gap;
use super::Scale;
use crate::suite::{ExperimentPlan, TaskCtx, Unit, UnitOut};
use crate::table::{Cell, Table};
use sim_core::SimTime;
use vswap_core::workload_api::FileScan;
use vswap_core::{
    Cluster, ClusterConfig, ClusterFaultProfile, ClusterReport, MachineConfig, SwapPolicy,
};

/// The policies swept: the paper's two poles. Chaos is about the
/// fault-tolerance machinery, not the full policy matrix.
const POLICIES: [SwapPolicy; 2] = [SwapPolicy::Baseline, SwapPolicy::Vswapper];

/// `(hosts, guests)` fleet points. Big enough that crashes leave
/// survivors with real work to absorb, small enough to sweep.
fn points(scale: Scale) -> Vec<(u32, u32)> {
    match scale {
        Scale::Paper => vec![(4, 60), (8, 150)],
        Scale::Smoke => vec![(3, 9), (4, 16)],
    }
}

/// One `(policy, fleet, profile)` chaos point.
#[derive(Debug, Clone, Copy)]
pub struct ChaosPoint {
    /// Swap policy every host in the fleet runs.
    pub policy: SwapPolicy,
    /// Hosts in the fleet.
    pub hosts: u32,
    /// Tenant guests placed across the fleet.
    pub guests: u32,
    /// Fleet-level fault schedule to inject.
    pub profile: ClusterFaultProfile,
    /// Drives the machine. The suite passes
    /// [`crate::suite::DEFAULT_SEED`] for every profile, so the sweep
    /// isolates the fault schedule as the only variable.
    pub seed: u64,
    /// Optionally decouples the fault schedule from the machine seed.
    pub fault_seed: Option<u64>,
}

/// Runs one chaos point and returns the mean completion time plus the
/// merged report (for the fault counters).
///
/// # Panics
///
/// Panics if a host audit fails after the run — chaos must degrade
/// performance, never accounting invariants.
pub fn run_point(scale: Scale, pt: ChaosPoint, ctx: &mut TaskCtx) -> (f64, ClusterReport) {
    let ChaosPoint { policy, hosts, guests, profile, seed, fault_seed } = pt;
    let machine =
        MachineConfig::preset(policy).with_host(cluster_host(scale, guests)).with_seed(seed);
    let mut cfg = ClusterConfig::homogeneous(hosts, machine).with_cluster_faults(profile);
    if let Some(fs) = fault_seed {
        cfg = cfg.with_cluster_fault_seed(fs);
    }
    let mut cluster = Cluster::new(cfg).expect("valid cluster host");
    let gap = phase_gap(scale);
    let pages = scan_pages(scale);
    for i in 0..guests {
        let tenant = cluster
            .place_vm(tenant_vm(scale, &format!("tenant{i:04}")))
            .expect("fits on the emptiest host");
        cluster.launch_at(
            tenant,
            Box::new(FileScan::new(pages, 2)),
            SimTime::ZERO + gap * u64::from(i / hosts),
        );
    }
    let report = cluster.run();
    cluster.audit().expect("cluster invariants hold under fleet chaos");
    for h in &report.hosts {
        ctx.absorb_report(&format!("cluster-chaos/{}", h.name), &h.report);
    }
    let mean = report.mean_runtime_secs().unwrap_or(f64::NAN);
    (mean, report)
}

/// One unit per `(policy, fleet, profile)` point.
pub fn plan(scale: Scale) -> ExperimentPlan {
    let pts = points(scale);
    let mut units = Vec::new();
    for policy in POLICIES {
        for &(hosts, guests) in &pts {
            for profile in ClusterFaultProfile::ALL {
                units.push(Unit::new(
                    format!("{}/{hosts}h-{guests}g/{}", policy.label(), profile.label()),
                    move |ctx: &mut TaskCtx| {
                        let pt = ChaosPoint {
                            policy,
                            hosts,
                            guests,
                            profile,
                            seed: crate::suite::DEFAULT_SEED,
                            fault_seed: None,
                        };
                        let (mean, report) = run_point(scale, pt, ctx);
                        UnitOut::Cells(vec![
                            mean.into(),
                            Cell::Int(report.crash_count() as u64),
                            Cell::Int(report.evacuated_guests()),
                            Cell::Int(report.recovered_pages()),
                            Cell::Int(report.refaulted_pages()),
                            Cell::Int(report.abort_count() as u64),
                            Cell::Int(report.abandoned_migrations),
                            Cell::Int(report.brownout_epochs()),
                            Cell::Int(report.kill_count() as u64),
                        ])
                    },
                ));
            }
        }
    }
    ExperimentPlan::new(units, move |outs| {
        let profile_cols: Vec<&str> = ClusterFaultProfile::ALL.iter().map(|p| p.label()).collect();
        let mut headers = vec!["config"];
        headers.extend(&profile_cols);
        let mut runtime = Table::new(
            "Cluster chaos: mean scan completion time [s] by fleet fault profile",
            headers,
        );
        let mut events = Table::new(
            "Cluster chaos: fault events (crashes/evacuated/recovered/refaulted/aborts/abandoned/brownouts/kills)",
            {
                let mut h = vec!["config"];
                h.extend(&profile_cols);
                h
            },
        );
        let mut outs = outs.into_iter();
        for policy in POLICIES {
            for &(hosts, guests) in &pts {
                let label = format!("{}/{hosts}h-{guests}g", policy.label());
                let mut mean_row = vec![Cell::from(label.clone())];
                let mut event_row = vec![Cell::from(label)];
                for _ in ClusterFaultProfile::ALL {
                    let cells = outs.next().expect("one output per unit").into_cells();
                    mean_row.push(cells[0].clone());
                    let ints: Vec<String> = cells[1..].iter().map(ToString::to_string).collect();
                    event_row.push(Cell::Text(ints.join("/")));
                }
                runtime.push(mean_row);
                events.push(event_row);
            }
        }
        vec![runtime, events]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(label: &str) -> TaskCtx {
        TaskCtx::standalone(crate::suite::DEFAULT_SEED, label)
    }

    #[test]
    fn none_profile_matches_the_fault_free_cluster_exactly() {
        let pt = ChaosPoint {
            policy: SwapPolicy::Vswapper,
            hosts: 3,
            guests: 9,
            profile: ClusterFaultProfile::None,
            seed: crate::suite::DEFAULT_SEED,
            fault_seed: None,
        };
        let (_, with_none) = run_point(Scale::Smoke, pt, &mut ctx("a"));
        assert_eq!(with_none.crash_count(), 0);
        assert_eq!(with_none.abort_count(), 0);
        assert_eq!(with_none.brownout_epochs(), 0);
        assert!(with_none.hosts.iter().all(|h| h.alive), "no faults, no dead hosts");
    }

    #[test]
    fn crashes_profile_evacuates_and_still_completes_every_workload() {
        let pt = ChaosPoint {
            policy: SwapPolicy::Vswapper,
            hosts: 4,
            guests: 16,
            profile: ClusterFaultProfile::Crashes,
            seed: crate::suite::DEFAULT_SEED,
            fault_seed: None,
        };
        let (mean, report) = run_point(Scale::Smoke, pt, &mut ctx("c"));
        assert!(mean.is_finite());
        assert_eq!(report.completed_workloads(), 16, "evacuation must not lose a workload");
        assert!(report.crash_count() >= 1, "the crash profile must actually crash a host");
        assert_eq!(report.evacuated_guests(), report.crashes.iter().map(|c| c.guests).sum::<u64>());
    }
}
