//! Section 5.4: Windows guests.
//!
//! Windows Server 2012 does not align its disk accesses to 4 KiB by
//! default; the hypervisor reports 4 KiB sectors and the disk is
//! formatted accordingly, but "sporadic 512 byte accesses" remain (our
//! Windows profile issues a slice of unaligned requests the Mapper
//! cannot track). Two experiments, a 2 GB guest granted half its
//! memory:
//!
//! * Sysbench reading a 2 GB file at 1 GB actual: 302 s → 79 s,
//! * bzip2 (the pbzip2 analogue) at 512 MB actual: 306 s → 149 s.

use super::common::{host_with_dram, prepare_and_age};
use super::Scale;
use crate::suite::{ExperimentPlan, TaskCtx, Unit, UnitOut};
use crate::table::Table;
use vswap_core::SwapPolicy;
use vswap_guestos::GuestSpec;
use vswap_hypervisor::VmSpec;
use vswap_mem::MemBytes;
use vswap_workloads::pbzip2::{Pbzip2, Pbzip2Config};
use vswap_workloads::SysbenchRead;

fn windows_vm(scale: Scale, actual_mb: u64) -> VmSpec {
    let memory = MemBytes::from_mb(scale.mb(2048));
    VmSpec::windows("win2012", memory, MemBytes::from_mb(scale.mb(actual_mb))).with_guest(
        GuestSpec {
            memory,
            disk: MemBytes::from_mb(scale.mb(20 * 1024)),
            swap: MemBytes::from_mb(scale.mb(2048)),
            kernel_pages: MemBytes::from_mb(scale.mb(128)).pages(),
            boot_file_pages: MemBytes::from_mb(scale.mb(192)).pages(),
            boot_anon_pages: MemBytes::from_mb(scale.mb(96)).pages(),
            ..GuestSpec::windows_default()
        },
    )
}

/// Runs the Sysbench row: a 2 GB read at 1 GB actual.
fn sysbench_row(scale: Scale, policy: SwapPolicy, ctx: &mut TaskCtx) -> f64 {
    let mut m = ctx.machine("windows-read", policy, host_with_dram(scale, 8 * 1024));
    let vm = m.add_vm(windows_vm(scale, 1024)).expect("fits");
    let shared = prepare_and_age(&mut m, vm, MemBytes::from_mb(scale.mb(2048)).pages());
    m.launch(vm, Box::new(SysbenchRead::new(shared)));
    let report = m.run();
    m.host().audit().expect("invariants hold");
    report.vm(vm).runtime_secs()
}

/// Runs the bzip2 row: compression at 512 MB actual.
fn bzip2_row(scale: Scale, policy: SwapPolicy, ctx: &mut TaskCtx) -> f64 {
    let mut m = ctx.machine("windows-bzip2", policy, host_with_dram(scale, 8 * 1024));
    let vm = m.add_vm(windows_vm(scale, 512)).expect("fits");
    let cfg = match scale {
        Scale::Paper => Pbzip2Config::default(),
        Scale::Smoke => Pbzip2Config {
            source_pages: MemBytes::from_mb(24).pages(),
            output_pages: MemBytes::from_mb(6).pages(),
            hot_pages: MemBytes::from_mb(6).pages(),
            ..Pbzip2Config::default()
        },
    };
    m.launch(vm, Box::new(Pbzip2::new(cfg)));
    let report = m.run();
    m.host().audit().expect("invariants hold");
    report.vm(vm).runtime_secs()
}

/// One unit per `(workload, policy)` cell of the Windows table.
pub fn plan(scale: Scale) -> ExperimentPlan {
    type RowFn = fn(Scale, SwapPolicy, &mut TaskCtx) -> f64;
    let rows: [(&str, RowFn); 2] =
        [("sysbench", sysbench_row as RowFn), ("bzip2", bzip2_row as RowFn)];
    let mut units = Vec::new();
    for (tag, f) in rows {
        for policy in [SwapPolicy::Baseline, SwapPolicy::Vswapper] {
            units.push(Unit::new(format!("{tag}/{}", policy.label()), move |ctx: &mut TaskCtx| {
                UnitOut::Value(f(scale, policy, ctx))
            }));
        }
    }
    ExperimentPlan::new(units, |outs| {
        let vals: Vec<f64> = outs.into_iter().map(UnitOut::into_value).collect();
        let mut table = Table::new(
            "Section 5.4: Windows Server 2012 guest (paper: sysbench 302->79s, bzip2 306->149s)",
            vec!["workload", "baseline [s]", "vswapper [s]"],
        );
        table.push(vec!["sysbench 2GB read @ 1GB actual".into(), vals[0].into(), vals[1].into()]);
        table.push(vec!["bzip2 @ 512MB actual".into(), vals[2].into(), vals[3].into()]);
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
    fn smoke_vswapper_helps_windows_guests_despite_unaligned_io() {
        let base = sysbench_row(Scale::Smoke, SwapPolicy::Baseline, &mut ctx("base"));
        let vswap = sysbench_row(Scale::Smoke, SwapPolicy::Vswapper, &mut ctx("vswap"));
        assert!(
            vswap < base * 0.75,
            "vswapper ({vswap:.2}s) must clearly beat baseline ({base:.2}s) for Windows too"
        );
    }
}
