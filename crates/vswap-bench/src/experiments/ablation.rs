//! Ablations of the design choices DESIGN.md calls out:
//!
//! * the Preventer's emulation caps (32 pages / 1 ms, §4.2 "empirically
//!   set"),
//! * the image-refault readahead window (the Mapper's answer to decayed
//!   sequentiality),
//! * the kernel's named-first reclaim preference (the premise behind
//!   false page anonymity),
//! * an SSD in place of the hard drive ("beneficial for systems that
//!   employ SSDs", §5.1).

use super::common::{host, linux_vm, prepare_and_age};
use super::fig11;
use super::Scale;
use crate::suite::{ExperimentPlan, TaskCtx, Unit, UnitOut};
use crate::table::Table;
use sim_core::SimDuration;
use vswap_core::{MachineConfig, SwapPolicy};
use vswap_disk::DiskSpec;
use vswap_hostos::HostSpec;
use vswap_mem::MemBytes;
use vswap_workloads::pbzip2::Pbzip2;
use vswap_workloads::SysbenchRead;

/// Preventer cap sweep: pbzip2 under pressure (its hot-buffer stores hit
/// host-swapped pages with *partial* writes, exercising the emulation
/// buffers and their timeout/capacity merges — unlike pure page zeroing,
/// which short-circuits to a remap).
fn preventer_caps(scale: Scale, ctx: &mut TaskCtx) -> Table {
    let mut table = Table::new(
        "Ablation: Preventer caps (paper default 32 pages / 1ms) — pbzip2 @ 192MB",
        vec!["max pages / timeout", "runtime [s]", "remaps", "merges", "timeouts"],
    );
    for (pages, timeout_us) in [(8, 1000), (32, 250), (32, 1000), (32, 4000), (128, 1000)] {
        let mut cfg = MachineConfig::preset(SwapPolicy::Vswapper).with_host(host(scale));
        cfg.preventer.max_pages = pages;
        cfg.preventer.timeout = SimDuration::from_micros(timeout_us);
        let mut m = ctx.instrumented("preventer-caps", cfg);
        let vm = m.add_vm(linux_vm(scale, "guest", 512, 192)).expect("fits");
        m.launch(vm, Box::new(Pbzip2::new(fig11::workload(scale))));
        let report = m.run();
        m.host().audit().expect("invariants hold");
        table.push(vec![
            format!("{pages} / {}us", timeout_us).into(),
            report.vm(vm).runtime_secs().into(),
            report.preventer.get("preventer_remaps").into(),
            report.preventer.get("preventer_merges").into(),
            report.preventer.get("preventer_timeouts").into(),
        ]);
    }
    table
}

/// Image-refault readahead sweep: the iterated-read steady state.
fn image_readahead(scale: Scale, ctx: &mut TaskCtx) -> Table {
    let mut table = Table::new(
        "Ablation: Mapper image-refault readahead window — re-read of a cached file @ 100MB actual",
        vec!["window [pages]", "iteration runtime [s]", "named refaults"],
    );
    for window in [8u64, 32, 128] {
        let host_spec = HostSpec { image_readahead_pages: window, ..host(scale) };
        let mut m = ctx.machine("image-readahead", SwapPolicy::Vswapper, host_spec);
        let vm = m.add_vm(linux_vm(scale, "guest", 512, 100)).expect("fits");
        let pages = MemBytes::from_mb(scale.mb(200)).pages();
        let shared = prepare_and_age(&mut m, vm, pages);
        // Warm iteration populates the guest cache; second is measured.
        m.launch(vm, Box::new(SysbenchRead::new(shared.clone())));
        let _ = m.run();
        let refaults_before = m.host().stats().named_refaults;
        m.launch(vm, Box::new(SysbenchRead::new(shared)));
        let report = m.run();
        m.host().audit().expect("invariants hold");
        table.push(vec![
            window.into(),
            report.vm(vm).runtime_secs().into(),
            (report.host.get("named_refaults") - refaults_before).into(),
        ]);
    }
    table
}

/// Named-first reclaim preference on/off under the Mapper.
fn reclaim_preference(scale: Scale, ctx: &mut TaskCtx) -> Table {
    let mut table = Table::new(
        "Ablation: reclaim's named-page preference — pbzip2 @ 256MB under the Mapper",
        vec!["preference", "runtime [s]", "swap outs", "named discards"],
    );
    for (label, prefers) in [("named first (Linux)", true), ("anonymous first", false)] {
        let host_spec = HostSpec { reclaim_prefers_named: prefers, ..host(scale) };
        let mut m = ctx.machine("reclaim-preference", SwapPolicy::Vswapper, host_spec);
        let vm = m.add_vm(linux_vm(scale, "guest", 512, 256)).expect("fits");
        m.launch(vm, Box::new(Pbzip2::new(fig11::workload(scale))));
        let report = m.run();
        m.host().audit().expect("invariants hold");
        table.push(vec![
            label.into(),
            report.vm(vm).runtime_secs().into(),
            report.host.get("swap_outs").into(),
            report.host.get("named_discards").into(),
        ]);
    }
    table
}

/// The HDD/SSD comparison at a pressured pbzip2 point.
fn ssd(scale: Scale, ctx: &mut TaskCtx) -> Table {
    let mut table = Table::new(
        "Ablation: disk technology — pbzip2 @ 192MB (write elimination pays on SSDs too)",
        vec!["disk / config", "runtime [s]", "swap sectors written"],
    );
    for (disk_label, disk) in [("hdd", DiskSpec::hdd_7200()), ("ssd", DiskSpec::ssd())] {
        for policy in [SwapPolicy::Baseline, SwapPolicy::Vswapper] {
            let host_spec = HostSpec { disk, ..host(scale) };
            let mut m = ctx.machine("ssd", policy, host_spec);
            let vm = m.add_vm(linux_vm(scale, "guest", 512, 192)).expect("fits");
            m.launch(vm, Box::new(Pbzip2::new(fig11::workload(scale))));
            let report = m.run();
            m.host().audit().expect("invariants hold");
            table.push(vec![
                format!("{disk_label} / {}", policy.label()).into(),
                report.vm(vm).runtime_secs().into(),
                report.disk.get("disk_swap_sectors_written").into(),
            ]);
        }
    }
    table
}

/// Page-type-aware paging (§7 future work): protect guest kernel pages
/// from host eviction and measure the iterated-read benchmark.
fn kernel_protection(scale: Scale, ctx: &mut TaskCtx) -> Table {
    let mut table = Table::new(
        "Extension (§7): page-type-aware paging — iterated read @ 100MB actual, baseline host",
        vec!["kernel pages", "2nd-read runtime [s]", "guest major faults"],
    );
    for (label, protect) in [("pageable (paper's system)", false), ("protected (§7 hint)", true)] {
        let mut cfg = MachineConfig::preset(SwapPolicy::Baseline).with_host(host(scale));
        if protect {
            cfg = cfg.with_kernel_protection();
        }
        let mut m = ctx.instrumented("kernel-protection", cfg);
        let vm = m.add_vm(linux_vm(scale, "guest", 512, 100)).expect("fits");
        let pages = MemBytes::from_mb(scale.mb(200)).pages();
        let shared = prepare_and_age(&mut m, vm, pages);
        m.launch(vm, Box::new(SysbenchRead::new(shared.clone())));
        let _ = m.run();
        let faults_before = m.host().stats().guest_major_faults;
        m.launch(vm, Box::new(SysbenchRead::new(shared)));
        let report = m.run();
        m.host().audit().expect("invariants hold");
        table.push(vec![
            label.into(),
            report.vm(vm).runtime_secs().into(),
            (report.host.get("guest_major_faults") - faults_before).into(),
        ]);
    }
    table
}

/// Sequentiality decay with ambient guest activity: the iterated-read
/// benchmark with and without a background daemon whose allocations
/// interleave into every reclaim stream — the compounding entropy the
/// sterile single-process protocol lacks (see the Figure 9a deviation
/// note in EXPERIMENTS.md).
fn decay_with_daemon(scale: Scale, ctx: &mut TaskCtx) -> Table {
    use vswap_workloads::daemon::{Daemon, DaemonConfig};
    let iterations = 6usize;
    let cols: Vec<String> = std::iter::once("guest activity".to_owned())
        .chain((1..=iterations).map(|i| format!("iter {i} [s]")))
        .collect();
    let mut table = Table::new(
        "Ablation: iterated-read decay with ambient daemon activity (baseline host)",
        cols.iter().map(String::as_str).collect(),
    );
    for (label, with_daemon) in [("benchmark only", false), ("benchmark + daemon", true)] {
        let mut m = ctx.machine("decay-daemon", SwapPolicy::Baseline, host(scale));
        let vm = m.add_vm(linux_vm(scale, "guest", 512, 100)).expect("fits");
        let pages = MemBytes::from_mb(scale.mb(200)).pages();
        let shared = prepare_and_age(&mut m, vm, pages);
        if with_daemon {
            m.launch(
                vm,
                Box::new(Daemon::new(DaemonConfig {
                    ticks: u64::MAX / 2, // outlives the experiment
                    file_pages: MemBytes::from_mb(scale.mb(32)).pages(),
                    anon_pages: MemBytes::from_mb(scale.mb(8)).pages(),
                    ..DaemonConfig::default()
                })),
            );
        }
        let mut row = vec![crate::table::Cell::from(label)];
        for _ in 0..iterations {
            let done = m.completed_workloads(vm);
            m.launch(vm, Box::new(SysbenchRead::new(shared.clone())));
            while m.completed_workloads(vm) == done && m.step() {}
            let report = m.report();
            let rec = report
                .vm_history(vm)
                .filter(|w| w.workload == "sysbench-seqrd")
                .last()
                .expect("iteration retired");
            row.push(rec.runtime_secs().into());
        }
        m.host().audit().expect("invariants hold");
        table.push(row);
    }
    table
}

/// One unit per ablation sub-table: the six studies are independent
/// machines and can run concurrently.
pub fn plan(scale: Scale) -> ExperimentPlan {
    type Study = fn(Scale, &mut TaskCtx) -> Table;
    let studies: [(&str, Study); 6] = [
        ("preventer-caps", preventer_caps as Study),
        ("image-readahead", image_readahead as Study),
        ("reclaim-preference", reclaim_preference as Study),
        ("ssd", ssd as Study),
        ("kernel-protection", kernel_protection as Study),
        ("decay-daemon", decay_with_daemon as Study),
    ];
    let units = studies
        .iter()
        .map(|&(label, study)| {
            Unit::new(label, move |ctx: &mut TaskCtx| UnitOut::Tables(vec![study(scale, ctx)]))
        })
        .collect();
    ExperimentPlan::new(units, |outs| outs.into_iter().flat_map(UnitOut::into_tables).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::smoke_tables;

    #[test]
    fn smoke_ablation_suite_runs() {
        let tables = smoke_tables("ablate");
        assert_eq!(tables.len(), 6);
        for t in &tables {
            assert!(!t.rows().is_empty(), "{} must have rows", t.title());
        }
    }

    #[test]
    fn smoke_vswapper_still_wins_on_ssd() {
        let t = ssd(Scale::Smoke, &mut TaskCtx::standalone(crate::suite::DEFAULT_SEED, "ssd"));
        let base = t.value("ssd / baseline", "swap sectors written").unwrap();
        let vswap = t.value("ssd / vswapper", "swap sectors written").unwrap();
        assert!(vswap < base / 4.0, "write elimination must hold on SSDs: {vswap} vs {base}");
    }
}
