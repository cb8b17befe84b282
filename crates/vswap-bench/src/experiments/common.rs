//! Shared experiment plumbing: hosts, guests, and measurement helpers.

use super::Scale;
use sim_core::SimDuration;
use vswap_core::{Machine, SwapPolicy, VmHandle};
use vswap_guestos::GuestSpec;
use vswap_hostos::HostSpec;
use vswap_hypervisor::VmSpec;
use vswap_mem::MemBytes;
use vswap_workloads::{AgeGuest, SharedFile, SysbenchPrepare};

/// The four configurations most figures compare, in the paper's order.
pub const FOUR_CONFIGS: [SwapPolicy; 4] = [
    SwapPolicy::Baseline,
    SwapPolicy::BalloonBaseline,
    SwapPolicy::Vswapper,
    SwapPolicy::BalloonVswapper,
];

/// Baseline / mapper / vswapper / balloon — the §5.1 figure-5/10/11/12/13
/// line-up.
pub const SWEEP_CONFIGS: [SwapPolicy; 4] = [
    SwapPolicy::Baseline,
    SwapPolicy::MapperOnly,
    SwapPolicy::Vswapper,
    SwapPolicy::BalloonBaseline,
];

/// The paper's host, scaled.
pub fn host(scale: Scale) -> HostSpec {
    HostSpec {
        dram: MemBytes::from_mb(scale.mb(16 * 1024)),
        disk_pages: MemBytes::from_mb(scale.mb(64 * 1024)).pages(),
        swap_pages: MemBytes::from_mb(scale.mb(16 * 1024)).pages(),
        ..HostSpec::paper_testbed()
    }
}

/// A host whose DRAM is explicitly capped (the cgroup'd §5.2 setup).
pub fn host_with_dram(scale: Scale, dram_mb: u64) -> HostSpec {
    HostSpec { dram: MemBytes::from_mb(scale.mb(dram_mb)), ..host(scale) }
}

/// The paper's standard Linux guest: `mem_mb` perceived, `actual_mb`
/// granted, 20 GB disk, 1 GB swap — scaled.
pub fn linux_vm(scale: Scale, name: &str, mem_mb: u64, actual_mb: u64) -> VmSpec {
    let memory = MemBytes::from_mb(scale.mb(mem_mb));
    VmSpec::linux(name, memory, MemBytes::from_mb(scale.mb(actual_mb))).with_guest(GuestSpec {
        memory,
        disk: MemBytes::from_mb(scale.mb(20 * 1024)),
        swap: MemBytes::from_mb(scale.mb(1024)),
        kernel_pages: MemBytes::from_mb(scale.mb(32)).pages(),
        boot_file_pages: MemBytes::from_mb(scale.mb(64)).pages(),
        boot_anon_pages: MemBytes::from_mb(scale.mb(24)).pages(),
        ..GuestSpec::linux_default()
    })
}

/// Runs the Sysbench prepare + guest-aging protocol (§3.1): creates and
/// writes the test file, then cycles every guest frame through the page
/// cache and drops it, so the measured iterations start against a guest
/// whose memory the host has already reclaimed.
pub fn prepare_and_age(m: &mut Machine, vm: VmHandle, file_pages: u64) -> SharedFile {
    let shared = SharedFile::new();
    m.launch(vm, Box::new(SysbenchPrepare::new(file_pages, shared.clone())));
    let _ = m.run();
    m.launch(vm, Box::new(AgeGuest::new()));
    let _ = m.run();
    shared
}

/// Durations for MOM-managed dynamic experiments.
pub fn phase_gap(scale: Scale) -> SimDuration {
    match scale {
        Scale::Paper => SimDuration::from_secs(10),
        Scale::Smoke => SimDuration::from_millis(500),
    }
}
