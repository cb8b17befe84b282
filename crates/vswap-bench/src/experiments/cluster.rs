//! Cluster mode: Figure 14's cascade experiment taken to datacenter
//! scale. A fleet of 1–32 hosts runs 10–1,000 phased file-scan guests
//! under the pressure-driven overcommit scheduler, with live migration
//! shedding the hottest-swapping guest off any host whose swap pressure
//! is sustained (§7 future work: migration enhanced by VSwapper).
//!
//! The headline is *where the cascade point moves*: as guests-per-host
//! climbs past the comfortable ratio, baseline hosts collapse into swap
//! storms that migration alone cannot outrun, while the VSwapper
//! configurations keep mean completion time flat for longer — the same
//! ordering Figure 14 shows on one host, reproduced across the fleet.

use super::common::{phase_gap, SWEEP_CONFIGS};
use super::Scale;
use crate::suite::{ExperimentPlan, TaskCtx, Unit, UnitOut};
use crate::table::{Cell, Table};
use sim_core::SimTime;
use vswap_core::workload_api::FileScan;
use vswap_core::{Cluster, ClusterConfig, ClusterReport, MachineConfig, SwapPolicy};
use vswap_guestos::GuestSpec;
use vswap_hostos::HostSpec;
use vswap_hypervisor::VmSpec;
use vswap_mem::MemBytes;

/// `(hosts, guests)` points swept by the cluster experiment. The ratio
/// of guests per host climbs across the sweep, so the early points are
/// comfortable and the late ones overcommit every host in the fleet.
pub fn points(scale: Scale) -> Vec<(u32, u32)> {
    match scale {
        Scale::Paper => vec![(1, 10), (2, 30), (4, 60), (8, 150), (16, 400), (32, 1000)],
        Scale::Smoke => vec![(1, 4), (2, 10), (4, 24)],
    }
}

/// Per-host hardware for the cluster sweep: enough DRAM for the early
/// points, clearly overcommitted at the late ones, and a virtual-disk
/// pool sized so every guest image (plus a migrated copy of each) fits
/// on any single host.
pub fn cluster_host(scale: Scale, guests: u32) -> HostSpec {
    // Swap is sized for the worst case — the whole fleet crowding onto
    // one host with every guest's perceived-minus-granted gap swapped
    // out — so the sweep measures slowdown, not swap-device exhaustion.
    let (dram_mb, swap_mb, guest_disk_mb) = match scale {
        Scale::Paper => (1024, 4096, 256),
        Scale::Smoke => (48, 256, 24),
    };
    let swap_pages = MemBytes::from_mb(swap_mb).pages();
    HostSpec {
        dram: MemBytes::from_mb(dram_mb),
        swap_pages,
        disk_pages: swap_pages
            + 2 * u64::from(guests + 1) * MemBytes::from_mb(guest_disk_mb).pages(),
        ..HostSpec::paper_testbed()
    }
}

/// The tenant guest: perceived memory comfortably above its grant, so a
/// crowded host squeezes it into host-level swapping — the condition the
/// scheduler's swap-rate signal watches for.
pub fn tenant_vm(scale: Scale, name: &str) -> VmSpec {
    let (mem_mb, actual_mb, disk_mb, swap_mb) = match scale {
        Scale::Paper => (96, 64, 256, 32),
        Scale::Smoke => (16, 8, 24, 8),
    };
    let memory = MemBytes::from_mb(mem_mb);
    VmSpec::linux(name, memory, MemBytes::from_mb(actual_mb)).with_guest(GuestSpec {
        memory,
        disk: MemBytes::from_mb(disk_mb),
        swap: MemBytes::from_mb(swap_mb),
        kernel_pages: MemBytes::from_mb(2).pages(),
        boot_file_pages: MemBytes::from_mb(scale.mb(64)).pages(),
        boot_anon_pages: MemBytes::from_mb(scale.mb(24)).pages(),
        ..GuestSpec::linux_default()
    })
}

/// Pages each tenant's file scan touches per pass.
pub fn scan_pages(scale: Scale) -> u64 {
    match scale {
        Scale::Paper => MemBytes::from_mb(48).pages(),
        Scale::Smoke => MemBytes::from_mb(12).pages(),
    }
}

/// Runs one `(policy, hosts, guests)` cluster point: boots the fleet,
/// places every tenant through the overcommit scheduler, runs phased
/// file scans to completion, and absorbs every host's report into the
/// task metrics. Returns the mean completion time in seconds and the
/// merged cluster report.
///
/// # Panics
///
/// Panics if a host audit fails after the run (an invariant bug, not a
/// measurement).
pub fn run_point(
    scale: Scale,
    policy: SwapPolicy,
    hosts: u32,
    guests: u32,
    ctx: &mut TaskCtx,
) -> (f64, ClusterReport) {
    let machine =
        MachineConfig::preset(policy).with_host(cluster_host(scale, guests)).with_seed(ctx.seed());
    let mut cluster =
        Cluster::new(ClusterConfig::homogeneous(hosts, machine)).expect("valid cluster host");
    let gap = phase_gap(scale);
    let pages = scan_pages(scale);
    for i in 0..guests {
        let tenant = cluster
            .place_vm(tenant_vm(scale, &format!("tenant{i:04}")))
            .expect("fits on the emptiest host");
        // Phase index advances once per fleet-wide wave, so launches
        // stagger the way Figure 14 staggers its guests.
        cluster.launch_at(
            tenant,
            Box::new(FileScan::new(pages, 2)),
            SimTime::ZERO + gap * u64::from(i / hosts),
        );
    }
    let report = cluster.run();
    cluster.audit().expect("cluster invariants hold");
    for h in &report.hosts {
        ctx.absorb_report(&format!("cluster/{}", h.name), &h.report);
    }
    let mean = report.mean_runtime_secs().unwrap_or(f64::NAN);
    (mean, report)
}

/// One unit per `(policy, hosts, guests)` point — each fleet run is an
/// independent simulation, sized for the suite's worker pool.
pub fn plan(scale: Scale) -> ExperimentPlan {
    let pts = points(scale);
    let mut units = Vec::new();
    for policy in SWEEP_CONFIGS {
        for &(hosts, guests) in &pts {
            units.push(Unit::new(
                format!("{}/{hosts}h-{guests}g", policy.label()),
                move |ctx: &mut TaskCtx| {
                    let (mean, report) = run_point(scale, policy, hosts, guests, ctx);
                    UnitOut::Cells(vec![
                        mean.into(),
                        Cell::Int(report.migration_count() as u64),
                        Cell::Int(report.kill_count() as u64),
                    ])
                },
            ));
        }
    }
    ExperimentPlan::new(units, move |outs| {
        let cols: Vec<String> = std::iter::once("config".to_owned())
            .chain(pts.iter().map(|(h, g)| format!("{h}h/{g}g")))
            .collect();
        let headers: Vec<&str> = cols.iter().map(String::as_str).collect();
        let mut runtime = Table::new(
            "Cluster: mean scan completion time [s] by fleet size (cascade point)",
            headers.clone(),
        );
        let mut migrations = Table::new(
            "Cluster: live migrations triggered by the overcommit scheduler",
            headers.clone(),
        );
        let mut kills = Table::new("Cluster: guest OOM kills across the fleet", headers);
        let mut outs = outs.into_iter();
        for policy in SWEEP_CONFIGS {
            let mut mean_row = vec![Cell::from(policy.label())];
            let mut mig_row = vec![Cell::from(policy.label())];
            let mut kill_row = vec![Cell::from(policy.label())];
            for _ in &pts {
                let cells = outs.next().expect("one output per unit").into_cells();
                let mut cells = cells.into_iter();
                mean_row.push(cells.next().expect("mean cell"));
                mig_row.push(cells.next().expect("migration cell"));
                kill_row.push(cells.next().expect("kill cell"));
            }
            runtime.push(mean_row);
            migrations.push(mig_row);
            kills.push(kill_row);
        }
        vec![runtime, migrations, kills]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(label: &str) -> TaskCtx {
        TaskCtx::standalone(crate::suite::DEFAULT_SEED, label)
    }

    #[test]
    fn smoke_fleet_completes_every_tenant() {
        let (mean, report) = run_point(Scale::Smoke, SwapPolicy::Vswapper, 2, 10, &mut ctx("a"));
        assert_eq!(report.completed_workloads(), 10);
        assert!(mean.is_finite() && mean > 0.0);
        assert_eq!(report.hosts.len(), 2);
    }

    #[test]
    fn overcommitted_fleet_is_pressured_and_deterministic() {
        let (mean1, r1) = run_point(Scale::Smoke, SwapPolicy::Baseline, 4, 24, &mut ctx("p"));
        let (mean2, r2) = run_point(Scale::Smoke, SwapPolicy::Baseline, 4, 24, &mut ctx("p"));
        assert_eq!(r1.completed_workloads(), 24);
        assert_eq!(mean1, mean2, "same seed, same fleet, same answer");
        assert_eq!(r1.migration_count(), r2.migration_count());
        assert_eq!(r1.to_json(), r2.to_json());
        // The crowded fleet actually swaps — the pressure signal the
        // scheduler watches is live at this point.
        assert!(r1.host_stat("swap_ins") > 0, "overcommit must swap");
    }
}
