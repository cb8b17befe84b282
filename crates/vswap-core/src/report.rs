//! Per-run measurement reports.

use sim_core::{SimDuration, SimTime, StatSet};
use sim_obs::json::JsonWriter;
use sim_obs::{LatencyBook, Profiler, TimeCategory};
use vswap_mem::VmId;

/// The record of one completed (or killed) workload on one VM.
#[derive(Debug, Clone)]
pub struct VmReport {
    /// Host-side VM identity.
    pub vm: VmId,
    /// VM name from its spec.
    pub name: String,
    /// Workload name ([`GuestProgram::name`]).
    ///
    /// [`GuestProgram::name`]: vswap_guestos::GuestProgram::name
    pub workload: String,
    /// When the first step ran.
    pub started: Option<SimTime>,
    /// When the last step completed.
    pub finished: Option<SimTime>,
    /// Set if the guest killed the workload (OOM), with the reason.
    pub killed: Option<String>,
    /// Steps executed.
    pub steps: u64,
    /// Guest kernel counters at completion (cumulative for the guest).
    pub guest_stats: StatSet,
    /// EPT-resident pages at completion.
    pub resident_pages: u64,
}

impl VmReport {
    /// True if the workload ran to completion (not killed).
    pub fn completed(&self) -> bool {
        self.finished.is_some() && self.killed.is_none()
    }

    /// Wall-clock (simulated) runtime from first step to completion.
    pub fn runtime(&self) -> Option<SimDuration> {
        Some(self.finished? - self.started?)
    }

    /// Runtime in simulated seconds (`NaN` if the workload never
    /// finished).
    pub fn runtime_secs(&self) -> f64 {
        self.runtime().map_or(f64::NAN, |d| d.as_secs_f64())
    }
}

/// One Figure 15 sample of one VM: its guest page cache against the
/// pages the Swap Mapper tracks for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSample {
    /// The sampling instant, a multiple of the sampling interval.
    pub at: SimTime,
    /// The sampled VM.
    pub vm: VmId,
    /// Guest page-cache pages, dirty ones included.
    pub cache_pages: u64,
    /// Guest page-cache pages that are clean.
    pub clean_cache_pages: u64,
    /// Guest pages the Swap Mapper associates with disk-image blocks.
    pub tracked_pages: u64,
}

/// The cumulative report of a [`Machine::run`].
///
/// [`Machine::run`]: crate::Machine::run
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Simulated time at which the report was taken.
    pub ended_at: SimTime,
    /// One record per completed workload, in completion order.
    pub workloads: Vec<VmReport>,
    /// Host kernel counters (machine-wide, cumulative).
    pub host: StatSet,
    /// Disk counters (machine-wide, cumulative).
    pub disk: StatSet,
    /// Swap Mapper counters.
    pub mapper: StatSet,
    /// False Reads Preventer counters.
    pub preventer: StatSet,
    /// Figure 15 samples in time order, one per attached VM per sampling
    /// instant; empty unless [`MachineConfig::with_sampling`] was set.
    ///
    /// [`MachineConfig::with_sampling`]: crate::MachineConfig::with_sampling
    pub samples: Vec<CacheSample>,
    /// Per-VM simulated-time attribution; each VM's category rows sum to
    /// its attributed runtime.
    pub profile: Profiler,
    /// Per-(vm, class) latency distributions (swap-in, swap-out,
    /// prevented-write, retried-I/O); always recorded.
    pub latency: LatencyBook,
    /// Event records the bounded log evicted because a sink was attached
    /// with too small a capacity (0 when nothing was lost or no sink).
    pub events_dropped: u64,
}

impl RunReport {
    /// The four machine-wide counter groups, each with the key it is
    /// reported under (JSON object, suite metrics scope).
    pub fn counter_groups(&self) -> [(&'static str, &StatSet); 4] {
        [
            ("host", &self.host),
            ("disk", &self.disk),
            ("mapper", &self.mapper),
            ("preventer", &self.preventer),
        ]
    }

    /// The most recent workload record for a VM.
    ///
    /// # Panics
    ///
    /// Panics if the VM ran no workload.
    pub fn vm(&self, vm: crate::VmHandle) -> &VmReport {
        self.workloads.iter().rev().find(|r| r.vm == vm.vm_id()).expect("VM ran no workload")
    }

    /// All records for a VM, oldest first.
    pub fn vm_history(&self, vm: crate::VmHandle) -> impl Iterator<Item = &VmReport> {
        let id = vm.vm_id();
        self.workloads.iter().filter(move |r| r.vm == id)
    }

    /// Mean runtime in simulated seconds across completed workloads
    /// (`None` if nothing completed).
    pub fn mean_runtime_secs(&self) -> Option<f64> {
        let runtimes: Vec<f64> = self
            .workloads
            .iter()
            .filter(|r| r.completed())
            .filter_map(|r| r.runtime())
            .map(|d| d.as_secs_f64())
            .collect();
        if runtimes.is_empty() {
            None
        } else {
            Some(runtimes.iter().sum::<f64>() / runtimes.len() as f64)
        }
    }

    /// Count of workloads the guest OOM killer claimed.
    pub fn kill_count(&self) -> usize {
        self.workloads.iter().filter(|r| r.killed.is_some()).count()
    }

    /// Serializes the whole report as one JSON object, through the
    /// workspace's shared [`JsonWriter`] (so every tool emits JSON the
    /// same way).
    pub fn to_json(&self) -> String {
        fn stat_object(w: &mut JsonWriter, key: &str, stats: &StatSet) {
            w.key(key);
            w.begin_object();
            for (name, value) in stats.iter() {
                w.field_u64(name, value);
            }
            w.end_object();
        }

        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("ended_at_ns", self.ended_at.as_nanos());
        w.key("workloads");
        w.begin_array();
        for r in &self.workloads {
            w.begin_object();
            w.field_str("vm", &r.name);
            w.field_str("workload", &r.workload);
            w.key("runtime_secs");
            match r.runtime() {
                Some(d) => w.value_f64(d.as_secs_f64()),
                None => w.value_null(),
            }
            w.field_bool("killed", r.killed.is_some());
            w.field_u64("steps", r.steps);
            w.field_u64("resident_pages", r.resident_pages);
            w.end_object();
        }
        w.end_array();
        for (key, stats) in self.counter_groups() {
            stat_object(&mut w, key, stats);
        }
        w.key("latency");
        self.latency.write_json(&mut w);
        w.field_u64("events_dropped", self.events_dropped);
        w.key("profile");
        w.begin_array();
        for vm in self.profile.vms() {
            w.begin_object();
            w.field_u64("vm", u64::from(vm));
            w.field_u64("cpu_ns", self.profile.category(vm, TimeCategory::Cpu).as_nanos());
            w.field_u64(
                "disk_wait_ns",
                self.profile.category(vm, TimeCategory::DiskWait).as_nanos(),
            );
            w.field_u64(
                "fault_handling_ns",
                self.profile.category(vm, TimeCategory::FaultHandling).as_nanos(),
            );
            w.field_u64(
                "migration_stall_ns",
                self.profile.category(vm, TimeCategory::MigrationStall).as_nanos(),
            );
            w.field_u64("total_ns", self.profile.total(vm).as_nanos());
            w.end_object();
        }
        w.end_array();
        w.end_object();
        let mut out = w.finish();
        out.push('\n');
        out
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "run ended at {}", self.ended_at)?;
        for w in &self.workloads {
            let status = match &w.killed {
                Some(reason) => format!("KILLED ({reason})"),
                None => format!("{:.2}s", w.runtime_secs()),
            };
            writeln!(f, "  {:<12} {:<20} {:>12}  ({} steps)", w.name, w.workload, status, w.steps)?;
        }
        let interesting = [
            "swap_outs",
            "swap_ins",
            "silent_swap_writes",
            "stale_swap_reads",
            "false_swap_reads",
            "named_discards",
            "named_refaults",
        ];
        for key in interesting {
            let v = self.host.get(key);
            if v > 0 {
                writeln!(f, "  {key:<28} {v}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(vm: u32, start_ns: u64, end_ns: Option<u64>, killed: bool) -> VmReport {
        VmReport {
            vm: VmId::new(vm),
            name: format!("vm{vm}"),
            workload: "test".to_owned(),
            started: Some(SimTime::from_nanos(start_ns)),
            finished: end_ns.map(SimTime::from_nanos),
            killed: killed.then(|| "oom".to_owned()),
            steps: 1,
            guest_stats: StatSet::new(),
            resident_pages: 0,
        }
    }

    /// A report carrying only what these tests look at.
    fn report(ended_at_ns: u64, workloads: Vec<VmReport>, host: StatSet) -> RunReport {
        RunReport {
            ended_at: SimTime::from_nanos(ended_at_ns),
            workloads,
            host,
            disk: StatSet::new(),
            mapper: StatSet::new(),
            preventer: StatSet::new(),
            samples: Vec::new(),
            profile: Profiler::new(),
            latency: LatencyBook::new(),
            events_dropped: 0,
        }
    }

    #[test]
    fn runtime_and_completion() {
        let r = record(0, 1_000, Some(3_000), false);
        assert!(r.completed());
        assert_eq!(r.runtime(), Some(SimDuration::from_nanos(2_000)));
        let k = record(0, 1_000, Some(2_000), true);
        assert!(!k.completed());
    }

    #[test]
    fn display_summarizes_workloads_and_counters() {
        let mut host = StatSet::new();
        host.set("swap_outs", 7);
        let report = report(
            5_000_000_000,
            vec![record(0, 0, Some(2_000_000_000), false), record(1, 0, Some(1_000), true)],
            host,
        );
        let s = report.to_string();
        assert!(s.contains("vm0"));
        assert!(s.contains("2.00s"));
        assert!(s.contains("KILLED"));
        assert!(s.contains("swap_outs"));
        assert!(!s.contains("swap_ins"), "zero counters are omitted");
    }

    #[test]
    fn mean_runtime_skips_killed() {
        let report = report(
            10_000,
            vec![
                record(0, 0, Some(2_000_000_000), false),
                record(1, 0, Some(4_000_000_000), false),
                record(2, 0, Some(1_000), true),
            ],
            StatSet::new(),
        );
        let mean = report.mean_runtime_secs().unwrap();
        assert!((mean - 3.0).abs() < 1e-9);
        assert_eq!(report.kill_count(), 1);
    }

    #[test]
    fn json_serialization_is_complete_and_escaped() {
        let mut host = StatSet::new();
        host.set("swap_outs", 7);
        let mut profile = Profiler::new();
        profile.add(0, TimeCategory::Cpu, SimDuration::from_nanos(30));
        profile.add(0, TimeCategory::DiskWait, SimDuration::from_nanos(12));
        let mut killed = record(1, 0, Some(1_000), true);
        killed.workload = "alloc \"big\"".to_owned();
        let report = RunReport {
            profile,
            ..report(5_000, vec![record(0, 0, Some(2_000), false), killed], host)
        };
        let json = report.to_json();
        assert!(json.contains("\"ended_at_ns\":5000"));
        assert!(json.contains("\"workloads\":["));
        assert!(json.contains("\"swap_outs\":7"));
        assert!(json.contains("\"killed\":true"));
        assert!(json.contains("\\\"big\\\""), "strings must be escaped: {json}");
        assert!(json.contains("\"cpu_ns\":30"));
        assert!(json.contains("\"total_ns\":42"));
        assert!(json.ends_with("}\n"));
    }

    /// The keys of a JSON object's top level, in order.
    fn top_level_keys(json: &str) -> Vec<String> {
        let (mut keys, mut depth) = (Vec::new(), 0);
        let (mut string, mut last): (Option<String>, _) = (None, None);
        let mut chars = json.chars();
        while let Some(c) = chars.next() {
            match (&mut string, c) {
                (Some(s), '\\') => s.extend(chars.next()),
                (Some(_), '"') => last = string.take(),
                (Some(s), _) => s.push(c),
                (None, '"') => string = Some(String::new()),
                (None, '{' | '[') => depth += 1,
                (None, '}' | ']') => depth -= 1,
                (None, ':') if depth == 1 => keys.extend(last.take()),
                (None, _) => {}
            }
        }
        keys
    }

    #[test]
    fn json_reports_each_counter_group_once() {
        assert_eq!(
            top_level_keys(&report(0, Vec::new(), StatSet::new()).to_json()),
            [
                "ended_at_ns",
                "workloads",
                "host",
                "disk",
                "mapper",
                "preventer",
                "latency",
                "events_dropped",
                "profile"
            ]
        );
    }
}
