//! Device matrix: policy × {HDD, SSD, NVMe} × queue depth.
//!
//! The paper's §5.1 claims VSwapper "remains beneficial for systems
//! that employ SSDs" — an untestable claim on a rotational-only model.
//! With the multi-queue backend this experiment answers it directly:
//! does the Mapper's write elimination still pay when seeks are free
//! and the device completes commands out of order behind deep queues?
//!
//! Each point runs pbzip2 at 192 MB actual memory inside a 512 MB
//! guest (the ablation suite's SSD workload) on one device/depth
//! combination, for the baseline and the full VSwapper.

use super::common::{host, linux_vm};
use super::fig11;
use super::Scale;
use crate::suite::{ExperimentPlan, TaskCtx, Unit, UnitOut};
use crate::table::{Cell, Table};
use vswap_core::SwapPolicy;
use vswap_disk::DiskSpec;
use vswap_hostos::HostSpec;
use vswap_workloads::pbzip2::Pbzip2;

/// A named constructor for one device tier.
type DiskEntry = (&'static str, fn() -> DiskSpec);

/// The device tiers of the matrix.
pub const DISKS: [DiskEntry; 3] =
    [("hdd", DiskSpec::hdd_7200), ("ssd", DiskSpec::ssd), ("nvme", DiskSpec::nvme)];

/// The submission-ring depths of the sweep. Depth 1 on the HDD profile
/// is the paper's synchronous swap path (and the timing every other
/// golden is pinned to).
pub const DEPTHS: [u32; 3] = [1, 8, 32];

/// The two ends of the policy spectrum; the intermediate configs add
/// nothing to the device question.
pub const POLICIES: [SwapPolicy; 2] = [SwapPolicy::Baseline, SwapPolicy::Vswapper];

/// One row of the matrix: a full pbzip2 run on one device/depth/policy
/// combination.
fn run_point(
    scale: Scale,
    disk: DiskSpec,
    depth: u32,
    policy: SwapPolicy,
    ctx: &mut TaskCtx,
) -> Vec<Cell> {
    let host_spec = HostSpec { disk, disk_queue_depth: depth, ..host(scale) };
    let mut m = ctx.machine("devices", policy, host_spec);
    let vm = m.add_vm(linux_vm(scale, "guest", 512, 192)).expect("fits");
    m.launch(vm, Box::new(Pbzip2::new(fig11::workload(scale))));
    let report = m.run();
    m.host().audit().expect("invariants hold");
    ctx.absorb_report("devices", &report);
    vec![
        report.vm(vm).runtime_secs().into(),
        report.disk.get("disk_swap_sectors_written").into(),
        report.disk.get("disk_ooo_completions").into(),
        report.disk.get("disk_max_inflight").into(),
    ]
}

/// One unit per `(device, depth, policy)` point.
pub fn plan(scale: Scale) -> ExperimentPlan {
    let mut units = Vec::new();
    for (disk_label, disk) in DISKS {
        for depth in DEPTHS {
            for policy in POLICIES {
                units.push(Unit::new(
                    format!("{disk_label}-qd{depth}/{}", policy.label()),
                    move |ctx: &mut TaskCtx| {
                        UnitOut::Cells(run_point(scale, disk(), depth, policy, ctx))
                    },
                ));
            }
        }
    }
    ExperimentPlan::new(units, |outs| {
        let mut table = Table::new(
            "Devices: pbzip2 @ 192MB across disk tiers and queue depths \
             (does write elimination pay when seeks are free?)",
            vec![
                "device / config",
                "runtime [s]",
                "swap sectors written",
                "ooo completions",
                "max inflight",
            ],
        );
        let mut outs = outs.into_iter();
        for (disk_label, _) in DISKS {
            for depth in DEPTHS {
                for policy in POLICIES {
                    let cells = outs.next().expect("one output per unit").into_cells();
                    let mut row =
                        vec![Cell::from(format!("{disk_label} qd{depth} / {}", policy.label()))];
                    row.extend(cells);
                    table.push(row);
                }
            }
        }
        vec![table]
    })
}

#[cfg(test)]
mod tests {
    use crate::suite::smoke_tables;

    #[test]
    fn smoke_write_elimination_pays_even_on_nvme() {
        let tables = smoke_tables("devices");
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        let base = t.value("nvme qd32 / baseline", "swap sectors written").unwrap();
        let vswap = t.value("nvme qd32 / vswapper", "swap sectors written").unwrap();
        assert!(
            vswap < base / 4.0,
            "write elimination must hold with free seeks and deep queues: {vswap} vs {base}"
        );
    }

    #[test]
    fn smoke_deep_queues_reorder_and_never_slow_the_baseline() {
        let tables = smoke_tables("devices");
        let t = &tables[0];
        let qd1 = t.value("nvme qd1 / baseline", "runtime [s]").unwrap();
        let qd32 = t.value("nvme qd32 / baseline", "runtime [s]").unwrap();
        assert!(qd32 <= qd1, "deeper rings can only overlap work: qd32 {qd32} vs qd1 {qd1}");
        // Reordering needs latency variance: seeks give the HDD plenty
        // at depth >= 8, while the flat NVMe completes its uniform swap
        // commands near-in-order.
        let ooo = t.value("hdd qd32 / baseline", "ooo completions").unwrap();
        assert!(ooo > 0.0, "a deep ring on a seeking disk must complete out of order");
        let ooo1 = t.value("hdd qd1 / baseline", "ooo completions").unwrap();
        assert_eq!(ooo1, 0.0, "depth 1 on one queue is strictly FIFO");
        let inflight = t.value("hdd qd1 / baseline", "max inflight").unwrap();
        assert_eq!(inflight, 1.0, "the paper's synchronous path never overlaps commands");
    }
}
