//! End-to-end integration tests spanning every crate: full machines,
//! every policy, multi-VM schedules, and cross-cutting invariants.

use sim_core::{SimDuration, SimTime};
use vswap_core::{Machine, MachineConfig, PathologyBreakdown, RunReport, SwapPolicy, VmHandle};
use vswap_guestos::GuestSpec;
use vswap_hostos::HostSpec;
use vswap_hypervisor::{BalloonPolicy, VmSpec};
use vswap_mem::MemBytes;
use vswap_workloads::alloctouch::{AccessMode, AllocStream};
use vswap_workloads::mapreduce::{MapReduce, MapReduceConfig};
use vswap_workloads::{AgeGuest, SharedFile, SysbenchPrepare, SysbenchRead};

fn small_host() -> HostSpec {
    HostSpec {
        dram: MemBytes::from_mb(96),
        disk_pages: MemBytes::from_mb(768).pages(),
        swap_pages: MemBytes::from_mb(96).pages(),
        hypervisor_code_pages: 16,
        ..HostSpec::paper_testbed()
    }
}

fn small_vm(name: &str, mem_mb: u64, actual_mb: u64) -> VmSpec {
    VmSpec::linux(name, MemBytes::from_mb(mem_mb), MemBytes::from_mb(actual_mb)).with_guest(
        GuestSpec {
            memory: MemBytes::from_mb(mem_mb),
            disk: MemBytes::from_mb(256),
            swap: MemBytes::from_mb(32),
            kernel_pages: MemBytes::from_mb(2).pages(),
            boot_file_pages: MemBytes::from_mb(4).pages(),
            boot_anon_pages: MemBytes::from_mb(2).pages(),
            ..GuestSpec::linux_default()
        },
    )
}

/// The §3.1 demonstration protocol at test scale.
fn demonstration(policy: SwapPolicy) -> (Machine, VmHandle, RunReport) {
    let mut m =
        Machine::new(MachineConfig::preset(policy).with_host(small_host())).expect("valid machine");
    let vm = m.add_vm(small_vm("guest", 32, 8)).expect("vm fits");
    let file = SharedFile::new();
    m.launch(vm, Box::new(SysbenchPrepare::new(MemBytes::from_mb(12).pages(), file.clone())));
    m.run();
    m.launch(vm, Box::new(AgeGuest::new()));
    m.run();
    m.launch(vm, Box::new(SysbenchRead::new(file.clone())));
    m.run();
    m.launch(vm, Box::new(AllocStream::new(MemBytes::from_mb(12).pages(), AccessMode::Write)));
    let report = m.run();
    m.host().audit().expect("host invariants hold");
    (m, vm, report)
}

#[test]
fn every_policy_completes_the_demonstration() {
    for policy in SwapPolicy::ALL {
        let (_, vm, report) = demonstration(policy);
        for record in report.vm_history(vm) {
            // The balloon configurations may legitimately kill the
            // allocation stream (over-ballooning — the paper's Figure 10
            // balloon bar is missing for exactly this reason).
            let tolerated = policy.ballooning() && record.workload == "alloc-stream";
            assert!(
                record.killed.is_none() || tolerated,
                "{policy}: {} was killed",
                record.workload
            );
        }
        assert!(report.vm(vm).runtime_secs() > 0.0);
    }
}

#[test]
fn vswapper_eliminates_the_mapper_pathologies() {
    let (_, _, base) = demonstration(SwapPolicy::Baseline);
    let (_, _, vswap) = demonstration(SwapPolicy::Vswapper);
    let b = PathologyBreakdown::from_stats(&base.host, &base.disk);
    let v = PathologyBreakdown::from_stats(&vswap.host, &vswap.disk);
    assert!(b.silent_swap_writes > 0, "baseline must exhibit silent writes");
    assert!(b.stale_swap_reads > 0, "baseline must exhibit stale reads");
    assert!(b.false_swap_reads > 0, "baseline must exhibit false reads");
    assert_eq!(v.silent_swap_writes, 0);
    assert_eq!(v.stale_swap_reads, 0);
    assert_eq!(v.false_swap_reads, 0);
    assert!(v.total() < b.total() / 10, "vswapper: {v:?} vs baseline {b:?}");
}

#[test]
fn mapper_only_leaves_false_reads_for_the_preventer() {
    let (_, _, mapper) = demonstration(SwapPolicy::MapperOnly);
    let m = PathologyBreakdown::from_stats(&mapper.host, &mapper.disk);
    assert_eq!(m.silent_swap_writes, 0, "the Mapper kills silent writes");
    assert_eq!(m.stale_swap_reads, 0, "the Mapper kills stale reads");
    assert!(m.false_swap_reads > 0, "false reads need the Preventer");
}

#[test]
fn runs_are_deterministic() {
    let (_, vm_a, a) = demonstration(SwapPolicy::Vswapper);
    let (_, vm_b, b) = demonstration(SwapPolicy::Vswapper);
    let runtimes_a: Vec<String> =
        a.vm_history(vm_a).map(|w| format!("{:.9}", w.runtime_secs())).collect();
    let runtimes_b: Vec<String> =
        b.vm_history(vm_b).map(|w| format!("{:.9}", w.runtime_secs())).collect();
    assert_eq!(runtimes_a, runtimes_b, "same seed, same everything");
    assert_eq!(a.host, b.host);
    assert_eq!(a.disk, b.disk);
}

#[test]
fn phased_multi_vm_with_dynamic_ballooning() {
    let mut host = small_host();
    host.disk_pages = MemBytes::from_gb(2).pages(); // three 256 MB images + slack
    let cfg = MachineConfig::preset(SwapPolicy::BalloonVswapper).with_host(host).with_auto_balloon(
        BalloonPolicy { interval: SimDuration::from_millis(250), ..BalloonPolicy::default() },
    );
    let mut m = Machine::new(cfg).expect("valid machine");
    let mut vms = Vec::new();
    for i in 0..3u32 {
        let vm = m.add_vm(small_vm(&format!("g{i}"), 48, 48)).expect("fits");
        m.launch_at(
            vm,
            Box::new(MapReduce::new(MapReduceConfig {
                input_pages: MemBytes::from_mb(8).pages(),
                table_pages: MemBytes::from_mb(18).pages(),
                output_pages: MemBytes::from_mb(1).pages(),
                scratch_pages: MemBytes::from_mb(2).pages(),
                seed: u64::from(i),
                ..MapReduceConfig::default()
            })),
            SimTime::ZERO + SimDuration::from_millis(500 * u64::from(i)),
        );
        vms.push(vm);
    }
    let report = m.run();
    m.host().audit().expect("host invariants hold");
    assert_eq!(report.workloads.len(), 3);
    // Completion order respects phasing pressure (later guests no faster).
    let first = report.vm(vms[0]);
    assert!(first.finished.is_some());
}

#[test]
fn windows_guests_run_with_unaligned_io() {
    let mut m = Machine::new(MachineConfig::preset(SwapPolicy::Vswapper).with_host(small_host()))
        .expect("valid machine");
    let spec = VmSpec::windows("win", MemBytes::from_mb(32), MemBytes::from_mb(12)).with_guest(
        GuestSpec {
            memory: MemBytes::from_mb(32),
            disk: MemBytes::from_mb(256),
            swap: MemBytes::from_mb(32),
            kernel_pages: MemBytes::from_mb(2).pages(),
            boot_file_pages: MemBytes::from_mb(4).pages(),
            boot_anon_pages: MemBytes::from_mb(2).pages(),
            ..GuestSpec::windows_default()
        },
    );
    let vm = m.add_vm(spec).expect("fits");
    let file = SharedFile::new();
    m.launch(vm, Box::new(SysbenchPrepare::new(MemBytes::from_mb(16).pages(), file.clone())));
    m.run();
    m.launch(vm, Box::new(SysbenchRead::new(file)));
    let report = m.run();
    assert!(report.vm(vm).completed());
    assert!(
        report.mapper.get("mapper_unaligned_fallbacks") > 0,
        "the Windows profile must exercise the unaligned fallback"
    );
    m.host().audit().expect("host invariants hold");
}

#[test]
fn reports_survive_reuse_across_runs() {
    let (mut m, vm, first) = demonstration(SwapPolicy::Baseline);
    let count = first.workloads.len();
    let file = SharedFile::new();
    m.launch(vm, Box::new(SysbenchPrepare::new(MemBytes::from_mb(4).pages(), file)));
    let second = m.run();
    assert_eq!(second.workloads.len(), count + 1, "history accumulates");
    assert!(second.ended_at >= first.ended_at);
}

#[test]
fn trace_sampling_records_series() {
    let cfg = MachineConfig::preset(SwapPolicy::Vswapper)
        .with_host(small_host())
        .with_sampling(SimDuration::from_millis(100));
    let mut m = Machine::new(cfg).expect("valid machine");
    let vm = m.add_vm(small_vm("guest", 32, 16)).expect("fits");
    let file = SharedFile::new();
    m.launch(vm, Box::new(SysbenchPrepare::new(MemBytes::from_mb(16).pages(), file.clone())));
    m.run();
    m.launch(vm, Box::new(SysbenchRead::new(file)));
    let report = m.run();
    assert!(report.samples.len() > 2);
    assert!(report.samples.iter().any(|s| s.tracked_pages > 0), "the Mapper tracks pages");
}
