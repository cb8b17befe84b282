//! Integration tests for the observability stack: event coverage across
//! every component, Chrome-trace export validity, profiler completeness,
//! and the zero-cost guarantee when no sink is attached.

use sim_core::{SimDuration, StatSet};
use sim_obs::{export, EventKind, TimeCategory, TraceFormat};
use vswap_core::mapper::MapperStats;
use vswap_core::workload_api::FileScan;
use vswap_core::{
    LiveMigration, Machine, MachineConfig, MigrationConfig, PreventerStats, SwapPolicy, VmHandle,
};
use vswap_disk::DiskStats;
use vswap_guestos::{GuestSpec, GuestStats};
use vswap_hostos::{HostSpec, HostStats};
use vswap_hypervisor::VmSpec;
use vswap_mem::MemBytes;
use vswap_workloads::alloctouch::{AccessMode, AllocStream};
use vswap_workloads::pbzip2::{Pbzip2, Pbzip2Config};
use vswap_workloads::{AgeGuest, SharedFile, SysbenchPrepare, SysbenchRead};

fn host() -> HostSpec {
    HostSpec {
        dram: MemBytes::from_mb(96),
        disk_pages: MemBytes::from_mb(768).pages(),
        swap_pages: MemBytes::from_mb(96).pages(),
        hypervisor_code_pages: 16,
        ..HostSpec::paper_testbed()
    }
}

fn vm_spec() -> VmSpec {
    VmSpec::linux("g", MemBytes::from_mb(48), MemBytes::from_mb(16)).with_guest(GuestSpec {
        memory: MemBytes::from_mb(48),
        disk: MemBytes::from_mb(256),
        swap: MemBytes::from_mb(48),
        kernel_pages: MemBytes::from_mb(2).pages(),
        boot_file_pages: MemBytes::from_mb(4).pages(),
        boot_anon_pages: MemBytes::from_mb(2).pages(),
        ..GuestSpec::linux_default()
    })
}

fn pbzip2() -> Pbzip2 {
    Pbzip2::new(Pbzip2Config {
        source_pages: MemBytes::from_mb(12).pages(),
        output_pages: MemBytes::from_mb(3).pages(),
        hot_pages: MemBytes::from_mb(4).pages(),
        ..Pbzip2Config::default()
    })
}

/// Runs pbzip2 under the given policy with tracing on; returns the
/// machine and the VM handle.
fn traced_run(policy: SwapPolicy) -> (Machine, VmHandle) {
    let mut m = Machine::new(MachineConfig::preset(policy).with_host(host())).expect("machine");
    m.attach_event_log(1 << 20);
    let vm = m.add_vm(vm_spec()).expect("vm");
    m.launch(vm, Box::new(pbzip2()));
    m.run();
    m.host().audit().expect("invariants");
    (m, vm)
}

/// The §3.1 demonstration protocol with tracing: sysbench fills the
/// page cache, aging swaps it out host-side, and the allocation stream
/// then overwrites recycled frames — the one sequence that exercises
/// the Mapper, the Preventer, the disk, and the balloon target in a
/// single run.
fn traced_demonstration() -> Machine {
    let mut m = Machine::new(MachineConfig::preset(SwapPolicy::Vswapper).with_host(host()))
        .expect("machine");
    m.attach_event_log(1 << 20);
    let vm = m
        .add_vm(VmSpec::linux("g", MemBytes::from_mb(32), MemBytes::from_mb(8)).with_guest(
            GuestSpec {
                memory: MemBytes::from_mb(32),
                disk: MemBytes::from_mb(256),
                swap: MemBytes::from_mb(32),
                kernel_pages: MemBytes::from_mb(2).pages(),
                boot_file_pages: MemBytes::from_mb(4).pages(),
                boot_anon_pages: MemBytes::from_mb(2).pages(),
                ..GuestSpec::linux_default()
            },
        ))
        .expect("vm");
    let file = SharedFile::new();
    m.launch(vm, Box::new(SysbenchPrepare::new(MemBytes::from_mb(12).pages(), file.clone())));
    m.run();
    m.launch(vm, Box::new(AgeGuest::new()));
    m.run();
    m.launch(vm, Box::new(SysbenchRead::new(file)));
    m.run();
    m.launch(vm, Box::new(AllocStream::new(MemBytes::from_mb(12).pages(), AccessMode::Write)));
    m.run();
    m.host().audit().expect("invariants");
    m
}

#[test]
fn chrome_trace_covers_every_component() {
    // The acceptance scenario: a memory-pressured vswapper run must leave
    // Mapper, Preventer, disk, AND balloon footprints in the Chrome trace.
    let m = traced_demonstration();
    let hist = m.event_log().kind_histogram();
    for kind in ["mapper_name", "preventer_open", "disk_issue", "balloon_target", "page_fault"] {
        assert!(
            hist.get(kind).copied().unwrap_or(0) > 0,
            "expected {kind} events, histogram: {hist:?}"
        );
    }

    let chrome = export::render(m.event_log(), TraceFormat::Chrome);
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.ends_with("]}"));
    for needle in ["\"mapper\"", "\"preventer\"", "\"disk\"", "\"balloon\""] {
        assert!(chrome.contains(needle), "chrome trace must name the {needle} thread");
    }
    // Balanced JSON sanity without a parser dependency: every brace that
    // opens closes (the writer escapes braces inside strings as-is, but
    // no event field contains braces).
    let opens = chrome.matches('{').count();
    let closes = chrome.matches('}').count();
    assert_eq!(opens, closes, "chrome trace JSON must be balanced");
}

#[test]
fn jsonl_is_causally_ordered_and_self_describing() {
    let (m, _vm) = traced_run(SwapPolicy::Vswapper);
    let jsonl = export::to_jsonl(m.event_log());
    let mut prev_seq = None;
    let mut lines = 0;
    for line in jsonl.lines() {
        assert!(line.starts_with("{\"seq\":"), "each line is one object: {line}");
        assert!(line.ends_with('}'));
        assert!(line.contains("\"kind\":"));
        let seq: u64 = line["{\"seq\":".len()..]
            .split(',')
            .next()
            .and_then(|s| s.parse().ok())
            .expect("seq parses");
        if let Some(p) = prev_seq {
            assert!(seq > p, "seq must increase: {p} then {seq}");
        }
        prev_seq = Some(seq);
        lines += 1;
    }
    assert!(lines > 100, "a pressured run emits plenty of events, got {lines}");
}

#[test]
fn profiler_rows_sum_to_reported_runtime() {
    let (m, vm) = traced_run(SwapPolicy::Vswapper);
    let report = m.report();
    let rec = report.vm(vm);
    let runtime = rec.runtime().expect("workload finished");
    let profile = &report.profile;
    let id = vm.vm_id().get();
    let total = profile.total(id);
    // The profile covers everything from boot through retirement; the
    // workload runtime is the portion from its first step. Boot cost is
    // also attributed, so total >= runtime, and the workload's own span
    // equals runtime exactly when it started at its first step.
    assert!(!profile.is_empty());
    let sum: SimDuration = TimeCategory::ALL.iter().map(|&c| profile.category(id, c)).sum();
    assert_eq!(sum, total, "category rows must sum to the profiler total");
    assert!(
        total >= runtime,
        "attributed time ({total}) must cover the workload runtime ({runtime})"
    );
    // Under memory pressure the run is not pure CPU: faults and disk
    // waits must both show up.
    assert!(profile.category(id, TimeCategory::FaultHandling) > SimDuration::ZERO);
    assert!(profile.category(id, TimeCategory::DiskWait) > SimDuration::ZERO);
}

#[test]
fn per_step_attribution_is_exhaustive() {
    // Stronger form of the acceptance criterion: the attributed total
    // equals the span from the first event to the VM's last retirement —
    // i.e. every simulated nanosecond the VM was charged lands in exactly
    // one category. We verify via the workload record: started..finished
    // equals the profile total minus pre-start (boot) attribution.
    let (m, vm) = traced_run(SwapPolicy::Baseline);
    let report = m.report();
    let rec = report.vm(vm);
    let id = vm.vm_id().get();
    let runtime = rec.runtime().expect("finished");
    let total = report.profile.total(id);
    // Boot happens before the clock first advances (time zero), so for a
    // single-workload VM the whole attributed time is the runtime.
    assert_eq!(total, runtime, "profiler must attribute exactly the reported runtime");
}

#[test]
fn migration_stall_is_attributed() {
    let mut m =
        Machine::new(MachineConfig::preset(SwapPolicy::Vswapper).with_host(host())).expect("m");
    m.attach_event_log(1 << 20);
    let vm = m.add_vm(vm_spec()).expect("vm");
    m.launch(vm, Box::new(pbzip2()));
    m.run();
    // Keep the guest dirtying pages while it migrates, so the final
    // stop-and-copy round has real work and thus non-zero downtime.
    m.launch(vm, Box::new(FileScan::new(MemBytes::from_mb(20).pages(), 50)));
    let migration = LiveMigration::new(MigrationConfig::default()).run(&mut m, vm);
    assert!(migration.downtime > SimDuration::ZERO);
    let id = vm.vm_id().get();
    assert_eq!(
        m.profiler().category(id, TimeCategory::MigrationStall),
        migration.downtime,
        "stop-and-copy downtime must be charged as migration stall"
    );
    let hist = m.event_log().kind_histogram();
    assert!(
        hist.get(EventKind::MigrationRound.name()).copied().unwrap_or(0) > 0,
        "migration rounds must be traced: {hist:?}"
    );
}

#[test]
fn no_sink_means_no_events_and_identical_results() {
    // Runs with and without a sink must agree on every counter — the
    // instrumentation only observes, never steers.
    let run = |attach: bool| {
        let mut m = Machine::new(MachineConfig::preset(SwapPolicy::Vswapper).with_host(host()))
            .expect("machine");
        if attach {
            m.attach_event_log(1 << 20);
        }
        let vm = m.add_vm(vm_spec()).expect("vm");
        m.launch(vm, Box::new(pbzip2()));
        let report = m.run();
        assert_eq!(m.event_log().is_enabled(), attach);
        if !attach {
            assert_eq!(m.event_log().emitted(), 0, "disabled log never buffers");
        }
        report
    };
    let plain = run(false);
    let traced = run(true);
    assert_eq!(plain.host, traced.host);
    assert_eq!(plain.disk, traced.disk);
    assert_eq!(plain.mapper, traced.mapper);
    assert_eq!(plain.preventer, traced.preventer);
    assert_eq!(plain.to_json(), traced.to_json());
}

#[test]
fn span_forest_from_a_real_run_is_well_formed() {
    // The acceptance criterion for causal tracing: reassembling the
    // spans of a full demonstration run (Mapper, Preventer, disk,
    // balloon all active) yields a valid forest where no lifecycle's
    // children account for more time than the lifecycle itself.
    let m = traced_demonstration();
    let records = m.event_log().records();
    let forest = sim_obs::SpanForest::from_records(&records);
    forest.validate().expect("well-formed span forest");
    assert_eq!(forest.orphan_events(), 0, "every event lands in a span or at top level");
    assert_eq!(forest.orphan_spans(), 0);
    let lifecycles = forest.lifecycles();
    assert!(!lifecycles.is_empty(), "a pressured run has fault lifecycles");
    assert!(lifecycles.iter().any(|n| n.kind == "page_fault"), "guest faults must appear as roots");
    for root in &lifecycles {
        let children: SimDuration =
            root.children.iter().map(|&c| forest.nodes()[c].duration()).sum();
        assert!(
            children <= root.duration(),
            "lifecycle {}: child durations ({children}) exceed the root's ({})",
            root.id,
            root.duration()
        );
    }
}

#[test]
fn latency_book_is_populated_and_reported() {
    // Swap-ins and prevented writes both happen in the demonstration
    // run; their latency distributions must reach the report.
    let m = traced_demonstration();
    let book = m.report().latency;
    let swap_in = book.class_hist(sim_obs::LatencyClass::SwapIn);
    assert!(swap_in.count() > 0, "host swap-ins must be measured");
    assert!(swap_in.p50() <= swap_in.p99() && swap_in.p99() <= swap_in.max());
    let prevented = book.class_hist(sim_obs::LatencyClass::PreventedWrite);
    assert!(prevented.count() > 0, "the Preventer must measure buffered writes");
    let json = m.report().to_json();
    assert!(json.contains("\"latency\""), "{json}");
    assert!(json.contains("\"swap_in\""), "{json}");
    assert!(json.contains("\"events_dropped\""), "{json}");
}

#[test]
fn jsonl_round_trip_preserves_the_critical_path() {
    // `vswap analyze` replays a trace from disk; the report it derives
    // must be identical to one computed from the live records.
    let m = traced_demonstration();
    let records = m.event_log().records();
    let live = sim_obs::SpanForest::from_records(&records);
    let jsonl = export::to_jsonl(m.event_log());
    let parsed = export::parse_jsonl(&jsonl).expect("trace parses back");
    assert_eq!(parsed.len(), records.len());
    let replayed = sim_obs::SpanForest::build(parsed);
    replayed.validate().expect("well-formed after round-trip");
    assert_eq!(
        sim_obs::span::render_critical_path(&live, 5),
        sim_obs::span::render_critical_path(&replayed, 5),
        "analysis must not depend on whether the trace went through disk"
    );
}

/// Pins every counter record's full list of report keys. Goldens render
/// values, not keys, and `StatSet::get` reads a misspelt key as 0, so a
/// renamed counter would otherwise go unnoticed.
#[test]
fn counter_records_keep_their_report_keys() {
    fn keys(stats: StatSet) -> Vec<String> {
        stats.iter().map(|(key, _)| key.to_owned()).collect()
    }
    assert_eq!(
        keys(HostStats::default().to_stat_set()),
        [
            "balloon_released_pages",
            "balloon_released_slots",
            "consistency_invalidations",
            "cow_breaks",
            "degraded_pages",
            "false_swap_reads",
            "fault_invalidations",
            "guest_major_faults",
            "guest_minor_faults",
            "host_context_faults",
            "hypervisor_code_refaults",
            "image_readahead_extra",
            "io_retries",
            "named_discards",
            "named_refaults",
            "pages_scanned",
            "reclaim_runs",
            "recovered_pages",
            "silent_swap_writes",
            "stale_swap_reads",
            "swap_ins",
            "swap_outs",
            "swap_readahead_extra",
            "swap_slot_remaps",
            "virtual_io_requests",
            "zero_fills",
        ]
    );
    assert_eq!(
        keys(GuestStats::default().to_stat_set()),
        [
            "guest_balloon_pages",
            "guest_cache_hits",
            "guest_cache_misses",
            "guest_dropped_clean",
            "guest_oom_kills",
            "guest_pages_zeroed",
            "guest_readahead_pages",
            "guest_reclaim_runs",
            "guest_swap_ins",
            "guest_swap_outs",
            "guest_swap_readahead",
            "guest_writebacks",
        ]
    );
    assert_eq!(
        keys(DiskStats::default().to_stat_set()),
        [
            "disk_busy_ns",
            "disk_doorbells",
            "disk_injected_faults",
            "disk_io_retries",
            "disk_max_inflight",
            "disk_ooo_completions",
            "disk_ops",
            "disk_read_ops",
            "disk_sectors_read",
            "disk_sectors_written",
            "disk_seeks",
            "disk_sequential_ops",
            "disk_swap_read_ops",
            "disk_swap_read_seeks",
            "disk_swap_sectors_read",
            "disk_swap_sectors_written",
            "disk_swap_write_ops",
            "disk_timed_out_requests",
            "disk_torn_writes",
            "disk_write_ops",
        ]
    );
    assert_eq!(
        keys(MapperStats::default().to_stat_set()),
        [
            "mapper_mapped_reads",
            "mapper_mapped_writes",
            "mapper_tracked_high_water",
            "mapper_unaligned_fallbacks",
        ]
    );
    assert_eq!(
        keys(PreventerStats::default().to_stat_set()),
        [
            "preventer_buffers_opened",
            "preventer_cancelled",
            "preventer_capacity_evictions",
            "preventer_merges",
            "preventer_read_merges",
            "preventer_remaps",
            "preventer_timeouts",
        ]
    );
}

/// The README's event-taxonomy table lists every kind under its own
/// component, so a new kind cannot ship undocumented.
#[test]
fn readme_lists_every_event_kind_under_its_component() {
    let readme = include_str!("../README.md");
    let section = readme.split("### Event taxonomy").nth(1).expect("README has the section");
    let rows: Vec<&str> = section.lines().filter(|l| l.starts_with("| `")).collect();
    for kind in EventKind::ALL {
        let cell = format!("| `{}`", kind.component());
        let row = rows
            .iter()
            .find(|r| r.starts_with(&cell))
            .unwrap_or_else(|| panic!("no README row for component `{}`", kind.component()));
        assert!(
            row.contains(&format!("`{}`", kind.name())),
            "README's `{}` row lacks `{}`",
            kind.component(),
            kind.name()
        );
    }
}
