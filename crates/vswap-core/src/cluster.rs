//! Cluster mode: many hosts, one overcommit scheduler, live migration.
//!
//! [`Cluster`] generalizes the single [`Machine`] testbed to a rack of
//! hosts sharing a tenant population — the datacenter-scale extension of
//! the paper's consolidation argument (§1: memory overcommitment is what
//! makes consolidation pay; §7: VSwapper makes migrating guests cheap
//! because named pages travel as references and need not travel at all
//! when storage is shared). Three pieces:
//!
//! * **placement** — a new guest lands on the host with the most
//!   *effective* free memory (free frames minus pages already promised
//!   to earlier tenants, [`HostPressure::placement_score`]);
//! * **pressure-driven migration** — each host's swap rate and free-frame
//!   fraction feed a [`Debounce`]; when pressure is sustained for
//!   [`SchedulerConfig::sustain_polls`] polls, the host's hottest-swapping
//!   guest (largest swap-in count since the previous poll) is
//!   live-migrated to the least-loaded host.
//!   The migration's cost is fully simulated: pre-copy rounds through
//!   [`LiveMigration`] on the source (network time, swap readbacks,
//!   re-dirtying), then the page-state hand-off of
//!   [`Machine::detach_vm`] ([`Detach::Orderly`]) and
//!   [`Machine::admit_vm`];
//! * **merged reporting** — [`ClusterReport`] aggregates per-host
//!   [`RunReport`]s and re-indexes every host's per-VM latency book by
//!   *tenant*, so a guest's swap-in percentiles follow it across hosts.
//!
//! Time advances in epoch lockstep: every host runs to the same barrier,
//! the scheduler polls at the barrier, repeat until no workload remains.
//! Hosts may overshoot a barrier by one workload step; they resynchronize
//! at the next one. Everything — placement, victim choice, migration
//! targets — iterates hosts in sorted-name order and breaks ties by
//! name, so results are invariant to the enumeration order of
//! [`ClusterConfig::host_names`].
//!
//! # Fault tolerance
//!
//! A [`ClusterFaultProfile`] seals a seed-pure
//! [`ClusterFaultPlan`]: host fail-stop
//! crashes and brown-out windows drawn per `(host, epoch)`, migration
//! link faults per `(tenant, round, attempt)` — all pure hashes, so the
//! schedule is merge-invariant and independent of fleet iteration
//! order. The cluster survives the plan:
//!
//! * **crash → evacuate**: a crashed host's guests are rescued through
//!   the same hand-off with [`Detach::Crashed`] — Mapper block
//!   references and swap-slot records are replayed onto a surviving
//!   host, pages whose only copy was the dead DRAM are invalidated
//!   guest-side and re-faulted.
//!   A crash is suppressed (never half-applied) when it would take the
//!   last alive host or when some guest could not be re-placed;
//! * **link loss → abort, retry**: an in-flight migration whose link
//!   drops rolls back to the source (pre-copy commits nothing until the
//!   hand-off) and is retried with exponential backoff in simulated
//!   time ([`SchedulerConfig::migration_retry`]), abandoned after the
//!   attempt budget;
//! * **degraded → quarantine**: a host whose injected disk-fault rate
//!   stays above [`SchedulerConfig::fault_rate_watermark`] is excluded
//!   from placement and migration targets until it recovers (a second
//!   [`Debounce`]);
//! * **brown-out → stall**: a browned-out host runs no guest work for
//!   the window; its work is delayed, never lost.
//!
//! With [`ClusterFaultProfile::None`] no plan is installed and every
//! code path above is bypassed — the fault-free run is bit-identical to
//! a build without fault support.
//!
//! # Examples
//!
//! ```
//! use vswap_core::cluster::{Cluster, ClusterConfig};
//! use vswap_core::workload_api::FileScan;
//! use vswap_core::{MachineConfig, SwapPolicy};
//! use vswap_guestos::GuestSpec;
//! use vswap_hostos::HostSpec;
//! use vswap_hypervisor::VmSpec;
//! use vswap_mem::MemBytes;
//!
//! let host = HostSpec {
//!     dram: MemBytes::from_mb(64),
//!     disk_pages: MemBytes::from_mb(512).pages(),
//!     swap_pages: MemBytes::from_mb(64).pages(),
//!     hypervisor_code_pages: 16,
//!     ..HostSpec::paper_testbed()
//! };
//! let machine = MachineConfig::preset(SwapPolicy::Vswapper).with_host(host);
//! let mut cluster = Cluster::new(ClusterConfig::homogeneous(2, machine))?;
//! for i in 0..4 {
//!     let spec = VmSpec::linux(&format!("g{i}"), MemBytes::from_mb(16), MemBytes::from_mb(8))
//!         .with_guest(GuestSpec {
//!             memory: MemBytes::from_mb(16),
//!             disk: MemBytes::from_mb(64),
//!             swap: MemBytes::from_mb(8),
//!             kernel_pages: 64,
//!             boot_file_pages: 128,
//!             boot_anon_pages: 64,
//!             ..GuestSpec::linux_default()
//!         });
//!     let tenant = cluster.place_vm(spec)?;
//!     cluster.launch(tenant, Box::new(FileScan::new(512, 1)));
//! }
//! let report = cluster.run();
//! assert_eq!(report.completed_workloads(), 4);
//! # Ok::<(), vswap_core::MachineError>(())
//! ```

use crate::config::MachineConfig;
use crate::machine::{Machine, MachineError, MigratedVm, VmHandle};
use crate::migration::{LiveMigration, MigrationConfig};
use crate::report::RunReport;
use sim_core::{DeterministicRng, SimDuration, SimTime};
use sim_obs::json::JsonWriter;
use sim_obs::{Event, LatencyBook, LatencyClass};
use vswap_disk::{entity_key, ClusterFaultPlan, ClusterFaultProfile};
use vswap_hostos::Detach;
use vswap_hypervisor::{Debounce, HostPressure, RetryPolicy, VmSpec};

/// Identifies one guest across the whole cluster, stable across
/// migrations (unlike the per-host VM id, which changes on every move).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(u32);

impl TenantId {
    /// The dense index of this tenant (rows of the cluster latency book).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The overcommit scheduler's knobs.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Epoch length: hosts run to a common barrier every interval, and
    /// the scheduler polls pressure at the barrier.
    pub poll_interval: SimDuration,
    /// Host swap ops/sec above which a poll counts as pressured.
    pub swap_ops_per_sec_threshold: f64,
    /// Free-DRAM fraction below which a poll counts as pressured.
    pub free_frac_low_watermark: f64,
    /// Consecutive pressured polls before a migration triggers (at
    /// least 1).
    pub sustain_polls: u32,
    /// Polls a freshly migrated tenant is immune from re-migration
    /// (anti-ping-pong).
    pub tenant_cooldown_polls: u64,
    /// Hard cap on migrations over the whole run.
    pub max_migrations: u64,
    /// Master switch: with `false` the cluster never migrates (the
    /// static-placement baseline).
    pub live_migration: bool,
    /// Injected disk faults per simulated second above which a host
    /// poll counts as degraded (feeds the quarantine detector).
    pub fault_rate_watermark: f64,
    /// Consecutive degraded polls before a host is quarantined from
    /// placement and migration targets.
    pub quarantine_sustain_polls: u32,
    /// Consecutive clean polls before a quarantined host is paroled.
    pub quarantine_recover_polls: u32,
    /// Retry/backoff schedule for migrations whose link dropped: the
    /// tenant is not re-attempted before `backoff(attempt)` of
    /// simulated time has passed, and the episode is abandoned once
    /// `max_attempts` aborts accumulate.
    pub migration_retry: RetryPolicy,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            poll_interval: SimDuration::from_secs(1),
            swap_ops_per_sec_threshold: 50.0,
            free_frac_low_watermark: 0.2,
            sustain_polls: 3,
            tenant_cooldown_polls: 8,
            max_migrations: u64::MAX,
            live_migration: true,
            fault_rate_watermark: 25.0,
            quarantine_sustain_polls: 2,
            quarantine_recover_polls: 2,
            migration_retry: RetryPolicy::paper_default(),
        }
    }
}

/// Full cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Host names. Order does not matter: the cluster sorts them, and
    /// every scheduling decision is keyed by name, so any permutation
    /// yields bit-identical results.
    pub host_names: Vec<String>,
    /// Per-host machine template. Each host derives its own RNG seed
    /// (forked off the template seed by host name) and its own disjoint
    /// content-label namespace (by sorted-name rank).
    pub machine: MachineConfig,
    /// Scheduler knobs.
    pub scheduler: SchedulerConfig,
    /// Live-migration link and pre-copy tuning.
    pub migration: MigrationConfig,
    /// Fleet-level fault mix: host crashes, brown-outs, link failures.
    /// With [`ClusterFaultProfile::None`] (the default) no plan is
    /// installed and the run is bit-identical to a fault-free build.
    pub cluster_faults: ClusterFaultProfile,
    /// Decouples the fleet fault schedule from the workload seed; falls
    /// back to the machine template's seed when `None`.
    pub cluster_fault_seed: Option<u64>,
}

impl ClusterConfig {
    /// `hosts` identical hosts named `host000`, `host001`, … sharing one
    /// machine template and default scheduler/migration tuning.
    pub fn homogeneous(hosts: u32, machine: MachineConfig) -> Self {
        ClusterConfig {
            host_names: (0..hosts).map(|i| format!("host{i:03}")).collect(),
            machine,
            scheduler: SchedulerConfig::default(),
            migration: MigrationConfig::default(),
            cluster_faults: ClusterFaultProfile::None,
            cluster_fault_seed: None,
        }
    }

    /// Replaces the fleet fault profile.
    pub fn with_cluster_faults(mut self, profile: ClusterFaultProfile) -> Self {
        self.cluster_faults = profile;
        self
    }

    /// Pins the fleet fault schedule to its own seed.
    pub fn with_cluster_fault_seed(mut self, seed: u64) -> Self {
        self.cluster_fault_seed = Some(seed);
        self
    }
}

/// One live migration's record in the cluster report.
#[derive(Debug, Clone)]
pub struct MigrationRecord {
    /// Migrated tenant's name.
    pub tenant: String,
    /// Source host name.
    pub from: String,
    /// Destination host name.
    pub to: String,
    /// Barrier instant at which the migration was triggered.
    pub at: SimTime,
    /// Bytes the pre-copy rounds put on the wire.
    pub total_bytes: u64,
    /// Guest downtime (stop-and-copy plus buffer flush).
    pub downtime: SimDuration,
    /// Pre-copy rounds run (including the stop-and-copy round).
    pub rounds: u32,
}

/// One host crash and its evacuation, in the cluster report.
#[derive(Debug, Clone)]
pub struct CrashRecord {
    /// The host that fail-stopped.
    pub host: String,
    /// Barrier instant of the crash.
    pub at: SimTime,
    /// Guests evacuated to surviving hosts.
    pub guests: u64,
    /// Pages recovered without their bytes (block references and
    /// swap-slot records, which survive on disk).
    pub recovered_pages: u64,
    /// Pages whose only copy was the dead DRAM — invalidated guest-side
    /// and re-faulted after admission.
    pub refaulted_pages: u64,
    /// Preventer write buffers the crash destroyed un-merged.
    pub dropped_buffers: u64,
}

/// One aborted migration attempt (link dropped mid-pre-copy), in the
/// cluster report. The guest stayed on the source; the scheduler
/// retries with backoff or abandons the episode.
#[derive(Debug, Clone)]
pub struct AbortRecord {
    /// The tenant whose migration died on the wire.
    pub tenant: String,
    /// Source host (where the guest remains).
    pub from: String,
    /// Intended destination host.
    pub to: String,
    /// Barrier instant of the attempt.
    pub at: SimTime,
    /// Zero-based pre-copy round the link failed in.
    pub round: u32,
    /// Bytes the attempt wasted on the wire.
    pub wasted_bytes: u64,
}

/// One host's slice of the cluster report.
#[derive(Debug, Clone)]
pub struct HostReport {
    /// Host name.
    pub name: String,
    /// Guests that migrated onto this host.
    pub migrations_in: u64,
    /// Guests that migrated off this host.
    pub migrations_out: u64,
    /// False once the fault plan crashed this host (its counters are
    /// frozen at the crash instant).
    pub alive: bool,
    /// Scheduler polls this host spent quarantined for a sustained
    /// injected-fault rate.
    pub quarantined_polls: u64,
    /// Epochs this host was browned out (ran no guest work).
    pub brownout_epochs: u64,
    /// The host's full per-machine report. Completed-workload records
    /// travel with migrating guests, so each workload appears exactly
    /// once cluster-wide: on the host where it finished.
    pub report: RunReport,
}

/// The merged report of a [`Cluster::run`].
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Simulated instant the last host went idle.
    pub ended_at: SimTime,
    /// Per-host reports, sorted by host name.
    pub hosts: Vec<HostReport>,
    /// Every live migration, in trigger order.
    pub migrations: Vec<MigrationRecord>,
    /// Every host crash the fault plan landed, with its evacuation
    /// accounting, in trigger order.
    pub crashes: Vec<CrashRecord>,
    /// Every aborted migration attempt, in trigger order.
    pub aborted_migrations: Vec<AbortRecord>,
    /// Migration episodes given up after the retry budget was spent.
    pub abandoned_migrations: u64,
    /// Tenant names, indexed by [`TenantId::index`].
    pub tenant_names: Vec<String>,
    /// Tenant-indexed latency book: every host's per-VM rows re-mapped
    /// to the tenant that owned the VM, then merged — a guest's swap-in
    /// percentiles follow it across migrations.
    pub latency: LatencyBook,
}

impl ClusterReport {
    /// Workloads that ran to completion cluster-wide.
    pub fn completed_workloads(&self) -> usize {
        self.hosts.iter().map(|h| h.report.workloads.iter().filter(|w| w.completed()).count()).sum()
    }

    /// Workloads the guest OOM killers claimed cluster-wide.
    pub fn kill_count(&self) -> usize {
        self.hosts.iter().map(|h| h.report.kill_count()).sum()
    }

    /// Number of live migrations performed.
    pub fn migration_count(&self) -> usize {
        self.migrations.len()
    }

    /// Number of hosts the fault plan crashed.
    pub fn crash_count(&self) -> usize {
        self.crashes.len()
    }

    /// Guests evacuated off crashed hosts.
    pub fn evacuated_guests(&self) -> u64 {
        self.crashes.iter().map(|c| c.guests).sum()
    }

    /// Pages recovered from on-disk records across all evacuations.
    pub fn recovered_pages(&self) -> u64 {
        self.crashes.iter().map(|c| c.recovered_pages).sum()
    }

    /// Pages lost to dead DRAM and re-faulted across all evacuations.
    pub fn refaulted_pages(&self) -> u64 {
        self.crashes.iter().map(|c| c.refaulted_pages).sum()
    }

    /// Migration attempts that aborted on a dropped link.
    pub fn abort_count(&self) -> usize {
        self.aborted_migrations.len()
    }

    /// Host-epochs spent browned out, fleet-wide.
    pub fn brownout_epochs(&self) -> u64 {
        self.hosts.iter().map(|h| h.brownout_epochs).sum()
    }

    /// Host-polls spent quarantined, fleet-wide.
    pub fn quarantined_polls(&self) -> u64 {
        self.hosts.iter().map(|h| h.quarantined_polls).sum()
    }

    /// Mean runtime in simulated seconds across all completed workloads
    /// (`None` if nothing completed).
    pub fn mean_runtime_secs(&self) -> Option<f64> {
        let runtimes: Vec<f64> = self
            .hosts
            .iter()
            .flat_map(|h| h.report.workloads.iter())
            .filter(|w| w.completed())
            .filter_map(|w| w.runtime())
            .map(|d| d.as_secs_f64())
            .collect();
        if runtimes.is_empty() {
            None
        } else {
            Some(runtimes.iter().sum::<f64>() / runtimes.len() as f64)
        }
    }

    /// Sum of one host counter across all hosts (e.g. `"swap_ins"`).
    pub fn host_stat(&self, key: &str) -> u64 {
        self.hosts.iter().map(|h| h.report.host.get(key)).sum()
    }

    /// Renders the cluster summary as a fixed-width text table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "cluster: {} hosts, {} workloads done, {} killed, {} migrations",
            self.hosts.len(),
            self.completed_workloads(),
            self.kill_count(),
            self.migration_count(),
        );
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>8} {:>10} {:>10} {:>7} {:>8}",
            "host", "done", "killed", "swap_ins", "swap_outs", "mig_in", "mig_out"
        );
        for h in &self.hosts {
            let done = h.report.workloads.iter().filter(|w| w.completed()).count();
            let _ = writeln!(
                out,
                "{:<10} {:>6} {:>8} {:>10} {:>10} {:>7} {:>8}",
                h.name,
                done,
                h.report.kill_count(),
                h.report.host.get("swap_ins"),
                h.report.host.get("swap_outs"),
                h.migrations_in,
                h.migrations_out,
            );
        }
        const SHOWN: usize = 16;
        for m in self.migrations.iter().take(SHOWN) {
            let _ = writeln!(
                out,
                "  migrated {:<12} {} -> {} ({} rounds, {} bytes, downtime {})",
                m.tenant, m.from, m.to, m.rounds, m.total_bytes, m.downtime,
            );
        }
        if self.migrations.len() > SHOWN {
            let _ = writeln!(out, "  … and {} more migrations", self.migrations.len() - SHOWN);
        }
        // Chaos accounting renders only when the fault plan actually
        // fired, so fault-free output stays byte-identical.
        if !self.crashes.is_empty()
            || !self.aborted_migrations.is_empty()
            || self.abandoned_migrations > 0
            || self.brownout_epochs() > 0
            || self.quarantined_polls() > 0
        {
            let _ = writeln!(
                out,
                "chaos: {} crashes, {} evacuated, {} aborts, {} abandoned, \
                 {} brownout epochs, {} quarantined polls",
                self.crash_count(),
                self.evacuated_guests(),
                self.abort_count(),
                self.abandoned_migrations,
                self.brownout_epochs(),
                self.quarantined_polls(),
            );
        }
        for c in &self.crashes {
            let _ = writeln!(
                out,
                "  crashed {:<10} at {}: {} guests evacuated \
                 ({} pages recovered, {} refaulted, {} buffers dropped)",
                c.host, c.at, c.guests, c.recovered_pages, c.refaulted_pages, c.dropped_buffers,
            );
        }
        for a in self.aborted_migrations.iter().take(SHOWN) {
            let _ = writeln!(
                out,
                "  aborted  {:<12} {} -> {} in round {} ({} bytes wasted)",
                a.tenant, a.from, a.to, a.round, a.wasted_bytes,
            );
        }
        if self.aborted_migrations.len() > SHOWN {
            let _ = writeln!(
                out,
                "  … and {} more aborted attempts",
                self.aborted_migrations.len() - SHOWN
            );
        }
        out
    }

    /// Serializes the cluster report as one JSON object.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("ended_at_ns", self.ended_at.as_nanos());
        w.field_u64("migrations", self.migrations.len() as u64);
        w.field_u64("completed_workloads", self.completed_workloads() as u64);
        w.field_u64("killed_workloads", self.kill_count() as u64);
        w.field_u64("host_crashes", self.crashes.len() as u64);
        w.field_u64("evacuated_guests", self.evacuated_guests());
        w.field_u64("aborted_migrations", self.aborted_migrations.len() as u64);
        w.field_u64("abandoned_migrations", self.abandoned_migrations);
        w.key("hosts");
        w.begin_array();
        for h in &self.hosts {
            w.begin_object();
            w.field_str("name", &h.name);
            w.field_u64(
                "completed",
                h.report.workloads.iter().filter(|r| r.completed()).count() as u64,
            );
            w.field_u64("killed", h.report.kill_count() as u64);
            w.field_u64("swap_ins", h.report.host.get("swap_ins"));
            w.field_u64("swap_outs", h.report.host.get("swap_outs"));
            w.field_u64("migrations_in", h.migrations_in);
            w.field_u64("migrations_out", h.migrations_out);
            w.field_bool("alive", h.alive);
            w.field_u64("quarantined_polls", h.quarantined_polls);
            w.field_u64("brownout_epochs", h.brownout_epochs);
            w.field_u64("ended_at_ns", h.report.ended_at.as_nanos());
            w.end_object();
        }
        w.end_array();
        w.key("migration_log");
        w.begin_array();
        for m in &self.migrations {
            w.begin_object();
            w.field_str("tenant", &m.tenant);
            w.field_str("from", &m.from);
            w.field_str("to", &m.to);
            w.field_u64("at_ns", m.at.as_nanos());
            w.field_u64("bytes", m.total_bytes);
            w.field_u64("downtime_ns", m.downtime.as_nanos());
            w.field_u64("rounds", u64::from(m.rounds));
            w.end_object();
        }
        w.end_array();
        w.key("crash_log");
        w.begin_array();
        for c in &self.crashes {
            w.begin_object();
            w.field_str("host", &c.host);
            w.field_u64("at_ns", c.at.as_nanos());
            w.field_u64("guests", c.guests);
            w.field_u64("recovered_pages", c.recovered_pages);
            w.field_u64("refaulted_pages", c.refaulted_pages);
            w.field_u64("dropped_buffers", c.dropped_buffers);
            w.end_object();
        }
        w.end_array();
        w.key("abort_log");
        w.begin_array();
        for a in &self.aborted_migrations {
            w.begin_object();
            w.field_str("tenant", &a.tenant);
            w.field_str("from", &a.from);
            w.field_str("to", &a.to);
            w.field_u64("at_ns", a.at.as_nanos());
            w.field_u64("round", u64::from(a.round));
            w.field_u64("wasted_bytes", a.wasted_bytes);
            w.end_object();
        }
        w.end_array();
        w.key("tenant_latency");
        w.begin_array();
        for (i, name) in self.tenant_names.iter().enumerate() {
            let Some(h) = self.latency.hist(i as u32, LatencyClass::SwapIn) else { continue };
            w.begin_object();
            w.field_str("tenant", name);
            w.field_u64("swap_in_count", h.count());
            w.field_u64("swap_in_p50_ns", h.p50().as_nanos());
            w.field_u64("swap_in_p99_ns", h.p99().as_nanos());
            w.end_object();
        }
        w.end_array();
        w.end_object();
        let mut out = w.finish();
        out.push('\n');
        out
    }
}

struct HostSlot {
    name: String,
    machine: Machine,
    /// Migration trigger: on after `sustain_polls` consecutive pressured
    /// polls, and reset as soon as it fires.
    trigger: Debounce,
    /// Quarantine state, debounced over the injected-fault rate; a
    /// quarantined host takes no new placements or migrants.
    quarantine: Debounce,
    /// False after the fault plan crashed this host.
    alive: bool,
    /// Actual-memory pages promised to tenants currently placed here.
    committed_pages: u64,
    /// Host swap ops (in + out) as of the previous poll.
    prev_swap_ops: u64,
    /// Injected disk faults as of the previous poll.
    prev_injected_faults: u64,
    /// Host clock at the previous poll.
    last_poll: SimTime,
    /// Dense per-host VM id → tenant map. Entries persist after a VM
    /// migrates away (VM ids are never reused), which is exactly what
    /// re-mapping the host's latency rows to tenants needs.
    vm_tenant: Vec<Option<u32>>,
    migrations_in: u64,
    migrations_out: u64,
    quarantined_polls: u64,
    brownouts: u64,
}

struct Tenant {
    name: String,
    host: usize,
    handle: VmHandle,
    /// Actual (granted) memory pages — the placement commitment.
    pages: u64,
    /// Host swap-in sample count (on the current host) at the last poll.
    prev_swap_ins: u64,
    /// Epoch of the tenant's last migration, for the cooldown.
    last_migration_epoch: Option<u64>,
    /// Aborted migration attempts in the current retry episode.
    abort_attempts: u32,
    /// Earliest barrier the tenant may be re-attempted after an abort.
    retry_not_before: Option<SimTime>,
}

/// A cluster of hosts under one overcommit scheduler. See the module
/// docs for the model and an example.
pub struct Cluster {
    scheduler: SchedulerConfig,
    migration_cfg: MigrationConfig,
    hosts: Vec<HostSlot>,
    tenants: Vec<Tenant>,
    migrations: Vec<MigrationRecord>,
    /// The sealed fleet fault schedule; `None` under
    /// [`ClusterFaultProfile::None`], bypassing every fault code path.
    fault_plan: Option<ClusterFaultPlan>,
    crashes: Vec<CrashRecord>,
    aborted: Vec<AbortRecord>,
    abandoned_migrations: u64,
    epoch: u64,
    dram_pages: u64,
    hv_code_pages: u64,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("hosts", &self.hosts.len())
            .field("tenants", &self.tenants.len())
            .field("migrations", &self.migrations.len())
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// Builds the cluster: one [`Machine`] per host, each with a
    /// name-derived RNG seed and a rank-derived content-label namespace.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::Host`] if the host template is
    /// inconsistent, and [`MachineError::Config`] if `host_names` is
    /// empty or contains duplicates, if the scheduler's `poll_interval`
    /// or `sustain_polls` is zero, or if the machine template's sampling
    /// interval is zero.
    pub fn new(cfg: ClusterConfig) -> Result<Self, MachineError> {
        let mut names = cfg.host_names.clone();
        names.sort();
        if names.is_empty() {
            return Err(MachineError::Config("a cluster needs at least one host".into()));
        }
        if let Some(dup) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(MachineError::Config(format!("duplicate host name `{}`", dup[0])));
        }
        if cfg.scheduler.poll_interval == SimDuration::ZERO {
            // A zero epoch would pin every barrier at time zero forever.
            return Err(MachineError::Config(
                "the scheduler poll_interval must be positive".into(),
            ));
        }
        if cfg.scheduler.sustain_polls == 0 {
            // "Sustained" needs at least one pressured poll.
            return Err(MachineError::Config(
                "the scheduler sustain_polls must be positive".into(),
            ));
        }

        let fault_cfg = cfg.cluster_faults.config();
        let fault_plan = if fault_cfg.is_noop() {
            None
        } else {
            // Like the per-machine disk fault plan: forked off its own
            // root by label, so the schedule is a pure function of
            // (seed, profile) — independent of fleet size, tenant mix,
            // and worker count — and installing it perturbs no other
            // draw.
            let root =
                DeterministicRng::seed_from(cfg.cluster_fault_seed.unwrap_or(cfg.machine.seed));
            Some(ClusterFaultPlan::from_rng(fault_cfg, &root, "sim-fault/cluster-plan"))
        };

        let root = DeterministicRng::seed_from(cfg.machine.seed);
        let mut hosts = Vec::with_capacity(names.len());
        for (rank, name) in names.into_iter().enumerate() {
            // Seed from the host *name*, namespace from the sorted
            // *rank*: both are pure functions of the name set, so any
            // enumeration order of `host_names` builds this same host.
            let seed = root.fork_labeled(&format!("cluster/{name}")).next_u64();
            let machine_cfg = cfg
                .machine
                .clone()
                .with_seed(seed)
                .with_label_namespace(u32::try_from(rank + 1).expect("host count fits u32"));
            let machine = Machine::new(machine_cfg)?;
            hosts.push(HostSlot {
                name,
                machine,
                // The trigger is reset whenever it fires, so its off
                // threshold never applies.
                trigger: Debounce::new(cfg.scheduler.sustain_polls, 1),
                quarantine: Debounce::new(
                    cfg.scheduler.quarantine_sustain_polls,
                    cfg.scheduler.quarantine_recover_polls,
                ),
                alive: true,
                committed_pages: 0,
                prev_swap_ops: 0,
                prev_injected_faults: 0,
                last_poll: SimTime::ZERO,
                vm_tenant: Vec::new(),
                migrations_in: 0,
                migrations_out: 0,
                quarantined_polls: 0,
                brownouts: 0,
            });
        }
        Ok(Cluster {
            scheduler: cfg.scheduler,
            migration_cfg: cfg.migration,
            dram_pages: cfg.machine.host.dram.pages(),
            hv_code_pages: cfg.machine.host.hypervisor_code_pages,
            hosts,
            tenants: Vec::new(),
            migrations: Vec::new(),
            fault_plan,
            crashes: Vec::new(),
            aborted: Vec::new(),
            abandoned_migrations: 0,
            epoch: 0,
        })
    }

    /// The host a tenant currently lives on.
    pub fn tenant_host(&self, tenant: TenantId) -> &str {
        &self.hosts[self.tenants[tenant.index()].host].name
    }

    /// The [`Machine`] currently hosting a tenant — read access for
    /// oracles that check page content where the tenant actually lives.
    pub fn tenant_machine(&self, tenant: TenantId) -> &Machine {
        &self.hosts[self.tenants[tenant.index()].host].machine
    }

    /// A tenant's VM handle on its current host. Handles are per-host:
    /// this one is only meaningful against [`Cluster::tenant_machine`]
    /// for the same tenant, and it changes when the tenant migrates.
    pub fn tenant_handle(&self, tenant: TenantId) -> VmHandle {
        self.tenants[tenant.index()].handle
    }

    /// Places a new guest on the host with the highest effective-free
    /// score ([`HostPressure::placement_score`]; ties go to the first
    /// host in name order) and boots it there. Crashed and quarantined
    /// hosts are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::Config`] if the guest's frame demand
    /// exceeds every host's budget (it could never boot anywhere), and
    /// [`MachineError`] if the chosen host cannot fit the VM.
    pub fn place_vm(&mut self, spec: VmSpec) -> Result<TenantId, MachineError> {
        if spec.actual_memory.pages() + self.hv_code_pages > self.dram_pages {
            return Err(MachineError::Config(format!(
                "guest `{}` needs {} frames but every host budgets {}",
                spec.name,
                spec.actual_memory.pages() + self.hv_code_pages,
                self.dram_pages,
            )));
        }
        let mut best: Option<(usize, u64)> = None;
        for (i, h) in self.hosts.iter().enumerate() {
            if !h.alive || h.quarantine.is_on() {
                continue;
            }
            let score = self.pressure_of(h).placement_score(h.committed_pages);
            if best.map_or(true, |(_, s)| score > s) {
                best = Some((i, score));
            }
        }
        let Some((best, _)) = best else {
            return Err(MachineError::Config(
                "no eligible host: every host is crashed or quarantined".into(),
            ));
        };
        let pages = spec.actual_memory.pages();
        let name = spec.name.clone();
        let handle = self.hosts[best].machine.add_vm(spec)?;
        let tenant = u32::try_from(self.tenants.len()).expect("tenant count fits u32");
        self.note_tenant_on_host(best, handle, tenant);
        self.hosts[best].committed_pages += pages;
        self.tenants.push(Tenant {
            name,
            host: best,
            handle,
            pages,
            prev_swap_ins: 0,
            last_migration_epoch: None,
            abort_attempts: 0,
            retry_not_before: None,
        });
        Ok(TenantId(tenant))
    }

    /// Schedules a workload on a tenant's VM (wherever it currently is).
    pub fn launch(&mut self, tenant: TenantId, program: Box<dyn vswap_guestos::GuestProgram>) {
        let t = &self.tenants[tenant.index()];
        self.hosts[t.host].machine.launch(t.handle, program);
    }

    /// Schedules a workload starting no earlier than `at` (phased
    /// dispatch across the cluster).
    pub fn launch_at(
        &mut self,
        tenant: TenantId,
        program: Box<dyn vswap_guestos::GuestProgram>,
        at: SimTime,
    ) {
        let t = &self.tenants[tenant.index()];
        self.hosts[t.host].machine.launch_at(t.handle, program, at);
    }

    /// Runs the whole cluster to completion: epochs of lockstep host
    /// execution with a scheduler poll at every barrier, until no host
    /// has a runnable workload. Returns the merged report.
    pub fn run(&mut self) -> ClusterReport {
        let interval = self.scheduler.poll_interval;
        let mut barrier = SimTime::ZERO + interval;
        loop {
            let mut any_runnable = false;
            for h in &mut self.hosts {
                if !h.alive {
                    continue;
                }
                // A browned-out host stalls for the whole epoch: its
                // guests make no progress, but nothing is lost — the
                // barrier simply passes it by and it resumes next epoch.
                let browned = self
                    .fault_plan
                    .as_ref()
                    .is_some_and(|p| p.brownout_at(entity_key(&h.name), self.epoch));
                if browned {
                    h.brownouts += 1;
                } else if h.machine.now() < barrier {
                    h.machine.run_until(barrier);
                }
                any_runnable |= h.machine.has_runnable_workloads();
            }
            self.inject_crashes(barrier);
            self.poll_scheduler(barrier);
            self.epoch += 1;
            if !any_runnable {
                break;
            }
            // Next barrier: one interval past the slowest still-runnable
            // host (skipping dead epochs when every host overshot).
            let slowest_runnable = self
                .hosts
                .iter()
                .filter(|h| h.alive && h.machine.has_runnable_workloads())
                .map(|h| h.machine.now())
                .min();
            barrier = slowest_runnable.map_or(barrier, |t| t.max(barrier)) + interval;
        }
        self.report()
    }

    /// Builds the merged cluster report for everything run so far.
    pub fn report(&self) -> ClusterReport {
        let mut latency = LatencyBook::new();
        let mut hosts = Vec::with_capacity(self.hosts.len());
        let mut ended_at = SimTime::ZERO;
        for h in &self.hosts {
            let book = h.machine.latency();
            latency.merge_remapped(&book, |vm| h.vm_tenant.get(vm as usize).copied().flatten());
            let report = h.machine.report();
            ended_at = ended_at.max(report.ended_at);
            hosts.push(HostReport {
                name: h.name.clone(),
                migrations_in: h.migrations_in,
                migrations_out: h.migrations_out,
                alive: h.alive,
                quarantined_polls: h.quarantined_polls,
                brownout_epochs: h.brownouts,
                report,
            });
        }
        ClusterReport {
            ended_at,
            hosts,
            migrations: self.migrations.clone(),
            tenant_names: self.tenants.iter().map(|t| t.name.clone()).collect(),
            crashes: self.crashes.clone(),
            aborted_migrations: self.aborted.clone(),
            abandoned_migrations: self.abandoned_migrations,
            latency,
        }
    }

    /// Audits every host kernel's frame/disk accounting invariants.
    ///
    /// # Errors
    ///
    /// Returns the first failing host's audit message, prefixed with
    /// that host's name.
    pub fn audit(&self) -> Result<(), String> {
        for h in &self.hosts {
            h.machine.host().audit().map_err(|e| format!("{}: {e}", h.name))?;
        }
        Ok(())
    }

    /// One barrier's scheduler round: sample every host's pressure,
    /// update every tenant's swap-in delta, then migrate the hottest
    /// guest off each host whose pressure is sustained.
    fn poll_scheduler(&mut self, barrier: SimTime) {
        // Per-tenant swap-in deltas since the previous poll (the
        // "hottest guest" signal), updated even when nothing triggers so
        // "recent" always means "since the last barrier".
        let mut deltas = vec![0u64; self.tenants.len()];
        {
            let hosts = &self.hosts;
            for (i, t) in self.tenants.iter_mut().enumerate() {
                let count = hosts[t.host].machine.latency_count(t.handle, LatencyClass::SwapIn);
                deltas[i] = count.saturating_sub(t.prev_swap_ins);
                t.prev_swap_ins = count;
            }
        }

        let mut triggered = Vec::new();
        let dram_frames = self.dram_pages;
        for (i, h) in self.hosts.iter_mut().enumerate() {
            if !h.alive {
                continue;
            }
            let stats = h.machine.host().stats();
            let ops = stats.swap_ins + stats.swap_outs;
            let now = h.machine.now();
            let sample = HostPressure {
                free_frames: h.machine.host().free_frames(),
                dram_frames,
                recent_swap_ops: ops.saturating_sub(h.prev_swap_ops),
                interval: now.saturating_since(h.last_poll),
            };
            h.prev_swap_ops = ops;
            h.last_poll = now;
            // Degradation: a host whose *injected* disk-fault rate stays
            // above the watermark is quarantined from placement and
            // migration targeting until the rate subsides.
            let faults = h.machine.host().disk_stats().injected_faults;
            let delta = faults.saturating_sub(h.prev_injected_faults);
            h.prev_injected_faults = faults;
            let secs = sample.interval.as_nanos() as f64 / 1e9;
            if secs > 0.0
                && h.quarantine.observe(delta as f64 / secs > self.scheduler.fault_rate_watermark)
            {
                h.quarantined_polls += 1;
            }
            let pressured = sample.is_pressured(
                self.scheduler.swap_ops_per_sec_threshold,
                self.scheduler.free_frac_low_watermark,
            );
            if h.trigger.observe(pressured) {
                // Firing consumes the streak: the next migration off this
                // host needs a fresh run of pressured polls.
                h.trigger.reset();
                triggered.push(i);
            }
        }
        if !self.scheduler.live_migration {
            return;
        }
        for src in triggered {
            if self.migrations.len() as u64 >= self.scheduler.max_migrations {
                break;
            }
            self.migrate_hottest(src, &deltas, barrier);
        }
    }

    fn pressure_of(&self, h: &HostSlot) -> HostPressure {
        HostPressure {
            free_frames: h.machine.host().free_frames(),
            dram_frames: self.dram_pages,
            recent_swap_ops: 0,
            interval: SimDuration::ZERO,
        }
    }

    /// Migrates the hottest-swapping eligible guest off `src` to the
    /// host with the most free frames, if moving it actually helps.
    ///
    /// Under a fault plan the pre-copy runs through
    /// [`LiveMigration::run_with_faults`]: a transient link loss aborts
    /// the migration, the guest stays on the source, and the tenant
    /// backs off per [`SchedulerConfig::migration_retry`] before it is
    /// eligible again; past `max_attempts` the migration is abandoned.
    fn migrate_hottest(&mut self, src: usize, deltas: &[u64], barrier: SimTime) {
        // Victim: largest swap-in delta among this host's tenants not in
        // cooldown or abort backoff; ties go to the earliest-created
        // tenant.
        let mut victim: Option<(usize, u64)> = None;
        for (i, t) in self.tenants.iter().enumerate() {
            if t.host != src {
                continue;
            }
            if let Some(e) = t.last_migration_epoch {
                if self.epoch - e < self.scheduler.tenant_cooldown_polls {
                    continue;
                }
            }
            if t.retry_not_before.is_some_and(|nb| barrier < nb) {
                continue;
            }
            if victim.map_or(true, |(_, best)| deltas[i] > best) {
                victim = Some((i, deltas[i]));
            }
        }
        let Some((ti, _)) = victim else { return };
        let pages = self.tenants[ti].pages;
        let image_pages = {
            let t = &self.tenants[ti];
            self.hosts[t.host].machine.vm_spec(t.handle).guest.disk.pages()
        };

        // Destination: most free frames among live, unquarantined hosts
        // that can hold the VM's disk regions and would be a real
        // improvement over the source; ties go to the first host in
        // name order.
        let src_free = self.hosts[src].machine.host().free_frames();
        let mut dst: Option<(usize, u64)> = None;
        for (i, h) in self.hosts.iter().enumerate() {
            if i == src || !h.alive || h.quarantine.is_on() {
                continue;
            }
            let free = h.machine.host().free_frames();
            if h.machine.host().disk_free_pages() < image_pages + self.hv_code_pages {
                continue;
            }
            // Worth the downtime only if the destination has meaningfully
            // more headroom than the thrashing source.
            if free < src_free + pages / 2 {
                continue;
            }
            if dst.map_or(true, |(_, best)| free > best) {
                dst = Some((i, free));
            }
        }
        let Some((dst, _)) = dst else { return };

        // The full cost model: pre-copy rounds on the source (the guest
        // keeps running between rounds), then the page-state hand-off.
        let handle = self.tenants[ti].handle;
        let attempt = self.tenants[ti].abort_attempts;
        let result = match &self.fault_plan {
            Some(plan) => LiveMigration::new(self.migration_cfg).run_with_faults(
                &mut self.hosts[src].machine,
                handle,
                plan,
                &self.tenants[ti].name,
                attempt,
            ),
            None => {
                Ok(LiveMigration::new(self.migration_cfg).run(&mut self.hosts[src].machine, handle))
            }
        };
        let mig = match result {
            Ok(report) => report,
            Err(abort) => {
                // The link died mid-round: the guest never left the
                // source (pre-copy commits nothing until hand-off), so
                // rollback is free. Record the abort, back off, and —
                // past the retry budget — abandon the migration.
                self.aborted.push(AbortRecord {
                    tenant: self.tenants[ti].name.clone(),
                    from: self.hosts[src].name.clone(),
                    to: self.hosts[dst].name.clone(),
                    at: barrier,
                    round: abort.round,
                    wasted_bytes: abort.wasted_bytes,
                });
                let policy = self.scheduler.migration_retry;
                let t = &mut self.tenants[ti];
                t.abort_attempts += 1;
                if t.abort_attempts >= policy.max_attempts {
                    self.abandoned_migrations += 1;
                    t.abort_attempts = 0;
                    t.retry_not_before = None;
                    t.last_migration_epoch = Some(self.epoch);
                } else {
                    t.retry_not_before = Some(barrier + policy.backoff(t.abort_attempts - 1));
                }
                return;
            }
        };
        let grant = self.hosts[src].machine.detach_vm(handle, Detach::Orderly);
        let flush = grant.flush_cost();
        self.rehome(ti, src, dst, grant, mig.downtime + flush);
        self.hosts[src].migrations_out += 1;
        self.hosts[dst].migrations_in += 1;
        self.migrations.push(MigrationRecord {
            tenant: self.tenants[ti].name.clone(),
            from: self.hosts[src].name.clone(),
            to: self.hosts[dst].name.clone(),
            at: barrier,
            total_bytes: mig.total_bytes,
            downtime: mig.downtime + flush,
            rounds: u32::try_from(mig.rounds.len()).expect("round count fits u32"),
        });
    }

    /// Fires any host crashes the fault plan schedules for this epoch.
    ///
    /// A crash is fail-stop: DRAM is lost but the host-local disk
    /// (image blocks and swap slots) survives, so evacuation replays
    /// Mapper block-references and swap-slot records onto survivors and
    /// re-faults only what had no durable copy. A crash that cannot be
    /// fully evacuated (no survivor has capacity, or it would kill the
    /// last live host) is suppressed entirely — the plan is a schedule
    /// of *attempts*, and a half-applied crash would corrupt state.
    fn inject_crashes(&mut self, barrier: SimTime) {
        let Some(plan) = self.fault_plan.clone() else { return };
        for src in 0..self.hosts.len() {
            if !self.hosts[src].alive
                || !plan.crashes_at(entity_key(&self.hosts[src].name), self.epoch)
            {
                continue;
            }
            if self.hosts.iter().filter(|h| h.alive).count() <= 1 {
                continue;
            }
            if let Some(assignments) = self.plan_evacuation(src) {
                self.crash_host(src, assignments, barrier);
            }
        }
    }

    /// Greedily assigns every tenant on `src` to a surviving host, or
    /// `None` if any tenant cannot be placed anywhere.
    ///
    /// Capacity model per destination: enough free disk pages for the
    /// guest's image regions and enough estimated free frames to boot
    /// it, decremented as assignments accumulate. Quarantined survivors
    /// are used only when no healthy host fits — losing placement
    /// hygiene beats losing a guest.
    fn plan_evacuation(&self, src: usize) -> Option<Vec<(usize, usize)>> {
        let mut disk_free: Vec<u64> =
            self.hosts.iter().map(|h| h.machine.host().disk_free_pages()).collect();
        let mut frames_free: Vec<u64> =
            self.hosts.iter().map(|h| h.machine.host().free_frames()).collect();
        let mut assignments = Vec::new();
        for (ti, t) in self.tenants.iter().enumerate() {
            if t.host != src {
                continue;
            }
            let image_pages = self.hosts[src].machine.vm_spec(t.handle).guest.disk.pages();
            let fits = |i: usize| {
                disk_free[i] >= image_pages + self.hv_code_pages
                    && frames_free[i] >= self.hv_code_pages
            };
            let mut pick: Option<(usize, u64)> = None;
            for quarantined_ok in [false, true] {
                for (i, h) in self.hosts.iter().enumerate() {
                    if i == src || !h.alive || !fits(i) {
                        continue;
                    }
                    if h.quarantine.is_on() != quarantined_ok {
                        continue;
                    }
                    if pick.map_or(true, |(_, best)| frames_free[i] > best) {
                        pick = Some((i, frames_free[i]));
                    }
                }
                if pick.is_some() {
                    break;
                }
            }
            let (dest, _) = pick?;
            disk_free[dest] -= image_pages;
            frames_free[dest] = frames_free[dest].saturating_sub(t.pages / 2);
            assignments.push((ti, dest));
        }
        Some(assignments)
    }

    /// Executes a planned crash: evacuates every assigned guest to its
    /// survivor, then marks the host dead.
    fn crash_host(&mut self, src: usize, assignments: Vec<(usize, usize)>, barrier: SimTime) {
        let guests = assignments.len() as u64;
        let at = self.hosts[src].machine.now();
        self.hosts[src].machine.event_log().emit_with(at, None, || Event::HostCrash { guests });
        let mut recovered_pages = 0u64;
        let mut refaulted_pages = 0u64;
        let mut dropped_buffers = 0u64;
        for (ti, dest) in assignments {
            let evac = self.hosts[src].machine.detach_vm(self.tenants[ti].handle, Detach::Crashed);
            recovered_pages += evac.recovered_pages();
            refaulted_pages += evac.refaulted_pages();
            dropped_buffers += evac.dropped_buffers();
            self.rehome(ti, src, dest, evac, SimDuration::ZERO);
        }
        self.hosts[src].alive = false;
        self.crashes.push(CrashRecord {
            host: self.hosts[src].name.clone(),
            at: barrier,
            guests,
            recovered_pages,
            refaulted_pages,
            dropped_buffers,
        });
    }

    /// Admits tenant `ti`'s detached VM on `dst`, arriving `delay` after
    /// the later of the two hosts' clocks, and moves the tenant's
    /// bookkeeping there from `src`. Both a migration and a crash
    /// evacuation end here.
    fn rehome(&mut self, ti: usize, src: usize, dst: usize, vm: MigratedVm, delay: SimDuration) {
        let arrival = self.hosts[src].machine.now().max(self.hosts[dst].machine.now()) + delay;
        let new_handle = self.hosts[dst]
            .machine
            .admit_vm(vm, arrival)
            .expect("the destination was checked to fit the VM");
        let tenant_idx = u32::try_from(ti).expect("tenant count fits u32");
        self.note_tenant_on_host(dst, new_handle, tenant_idx);
        let pages = self.tenants[ti].pages;
        self.hosts[src].committed_pages = self.hosts[src].committed_pages.saturating_sub(pages);
        self.hosts[dst].committed_pages += pages;
        let t = &mut self.tenants[ti];
        t.host = dst;
        t.handle = new_handle;
        t.prev_swap_ins = 0;
        t.last_migration_epoch = Some(self.epoch);
        t.abort_attempts = 0;
        t.retry_not_before = None;
    }

    fn note_tenant_on_host(&mut self, host: usize, handle: VmHandle, tenant: u32) {
        let map = &mut self.hosts[host].vm_tenant;
        let idx = handle.vm_id().get() as usize;
        if idx >= map.len() {
            map.resize(idx + 1, None);
        }
        map[idx] = Some(tenant);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SwapPolicy;
    use crate::workload_api::FileScan;
    use vswap_guestos::GuestSpec;
    use vswap_hostos::HostSpec;
    use vswap_mem::MemBytes;

    fn small_host() -> HostSpec {
        HostSpec {
            dram: MemBytes::from_mb(48),
            disk_pages: MemBytes::from_mb(512).pages(),
            swap_pages: MemBytes::from_mb(64).pages(),
            hypervisor_code_pages: 16,
            ..HostSpec::paper_testbed()
        }
    }

    fn guest(name: &str, mem_mb: u64, actual_mb: u64) -> VmSpec {
        VmSpec::linux(name, MemBytes::from_mb(mem_mb), MemBytes::from_mb(actual_mb)).with_guest(
            GuestSpec {
                memory: MemBytes::from_mb(mem_mb),
                disk: MemBytes::from_mb(64),
                swap: MemBytes::from_mb(16),
                kernel_pages: 64,
                boot_file_pages: 128,
                boot_anon_pages: 64,
                ..GuestSpec::linux_default()
            },
        )
    }

    /// A scheduler that fires on the first poll with any swap traffic —
    /// for tests that need a migration to actually happen.
    fn hair_trigger() -> SchedulerConfig {
        SchedulerConfig {
            swap_ops_per_sec_threshold: 1.0,
            free_frac_low_watermark: 1.1, // every poll counts as low-memory
            sustain_polls: 1,
            ..SchedulerConfig::default()
        }
    }

    #[test]
    fn zero_hosts_is_a_typed_config_error_not_a_panic() {
        let machine = MachineConfig::preset(SwapPolicy::Vswapper).with_host(small_host());
        let err = Cluster::new(ClusterConfig::homogeneous(0, machine)).unwrap_err();
        assert!(matches!(err, MachineError::Config(_)), "got {err:?}");
        assert!(err.to_string().contains("at least one host"), "{err}");
    }

    #[test]
    fn zero_poll_interval_is_a_typed_config_error_not_a_hang() {
        let machine = MachineConfig::preset(SwapPolicy::Vswapper).with_host(small_host());
        let mut cfg = ClusterConfig::homogeneous(2, machine);
        cfg.scheduler.poll_interval = SimDuration::ZERO;
        let err = Cluster::new(cfg).unwrap_err();
        assert!(matches!(err, MachineError::Config(_)), "got {err:?}");
        assert!(err.to_string().contains("poll_interval"), "{err}");
    }

    #[test]
    fn zero_sustain_polls_is_a_typed_config_error() {
        let machine = MachineConfig::preset(SwapPolicy::Vswapper).with_host(small_host());
        let mut cfg = ClusterConfig::homogeneous(2, machine);
        cfg.scheduler.sustain_polls = 0;
        let err = Cluster::new(cfg).unwrap_err();
        assert!(matches!(err, MachineError::Config(_)), "got {err:?}");
        assert!(err.to_string().contains("sustain_polls"), "{err}");
    }

    #[test]
    fn duplicate_host_names_are_a_typed_config_error() {
        let machine = MachineConfig::preset(SwapPolicy::Vswapper).with_host(small_host());
        let mut cfg = ClusterConfig::homogeneous(0, machine);
        cfg.host_names = vec!["rack-a".to_owned(), "rack-a".to_owned()];
        let err = Cluster::new(cfg).unwrap_err();
        assert!(matches!(err, MachineError::Config(_)), "got {err:?}");
        assert!(err.to_string().contains("rack-a"), "{err}");
    }

    #[test]
    fn guest_too_big_for_every_host_is_a_typed_config_error() {
        let machine = MachineConfig::preset(SwapPolicy::Vswapper).with_host(small_host());
        let mut cluster = Cluster::new(ClusterConfig::homogeneous(2, machine)).unwrap();
        // 128 MB actual against 48 MB hosts: no host could ever boot it.
        let err = cluster.place_vm(guest("whale", 256, 128)).unwrap_err();
        assert!(matches!(err, MachineError::Config(_)), "got {err:?}");
        assert!(err.to_string().contains("whale"), "the error names the guest: {err}");
        assert!(cluster.place_vm(guest("minnow", 16, 8)).is_ok(), "the cluster still works");
    }

    #[test]
    fn placement_spreads_guests_across_hosts() {
        let machine = MachineConfig::preset(SwapPolicy::Vswapper).with_host(small_host());
        let mut cluster = Cluster::new(ClusterConfig::homogeneous(2, machine)).unwrap();
        let mut placed = Vec::new();
        for i in 0..4 {
            let t = cluster.place_vm(guest(&format!("g{i}"), 16, 8)).unwrap();
            placed.push(cluster.tenant_host(t).to_owned());
        }
        assert_eq!(placed, ["host000", "host001", "host000", "host001"]);
    }

    #[test]
    fn pressured_host_sheds_its_hottest_guest() {
        let machine = MachineConfig::preset(SwapPolicy::Vswapper).with_host(small_host());
        let mut cfg = ClusterConfig::homogeneous(2, machine);
        cfg.scheduler = hair_trigger();
        let mut cluster = Cluster::new(cfg).unwrap();
        // "heavy" thrashes inside a 16 MB grant; "light" finishes fast on
        // the other host, leaving it the obvious migration target.
        let heavy = cluster.place_vm(guest("heavy", 32, 16)).unwrap();
        let light = cluster.place_vm(guest("light", 8, 4)).unwrap();
        cluster.launch(heavy, Box::new(FileScan::new(MemBytes::from_mb(24).pages(), 6)));
        cluster.launch(light, Box::new(FileScan::new(128, 1)));
        let report = cluster.run();
        assert!(report.migration_count() >= 1, "sustained pressure must trigger: {report:?}");
        assert_eq!(report.migrations[0].tenant, "heavy");
        assert_eq!(report.migrations[0].from, "host000");
        assert_eq!(report.migrations[0].to, "host001");
        assert!(report.migrations[0].total_bytes > 0);
        assert_eq!(report.completed_workloads(), 2, "both finish despite the move");
        for h in &cluster.hosts {
            h.machine.host().audit().unwrap();
        }
        // The heavy tenant's swap-in latency followed it across hosts.
        let hist = report.latency.hist(heavy.index() as u32, LatencyClass::SwapIn);
        assert!(hist.is_some_and(|h| h.count() > 0));
        let _ = light;
    }

    #[test]
    fn disabling_live_migration_pins_placement() {
        let machine = MachineConfig::preset(SwapPolicy::Vswapper).with_host(small_host());
        let mut cfg = ClusterConfig::homogeneous(2, machine);
        cfg.scheduler = SchedulerConfig { live_migration: false, ..hair_trigger() };
        let mut cluster = Cluster::new(cfg).unwrap();
        let heavy = cluster.place_vm(guest("heavy", 32, 16)).unwrap();
        let light = cluster.place_vm(guest("light", 8, 4)).unwrap();
        cluster.launch(heavy, Box::new(FileScan::new(MemBytes::from_mb(24).pages(), 6)));
        cluster.launch(light, Box::new(FileScan::new(128, 1)));
        let report = cluster.run();
        assert_eq!(report.migration_count(), 0);
        assert_eq!(report.completed_workloads(), 2);
    }

    fn run_cluster(host_names: Vec<String>) -> ClusterReport {
        let machine = MachineConfig::preset(SwapPolicy::Vswapper).with_host(small_host());
        let mut cfg = ClusterConfig::homogeneous(0, machine);
        cfg.host_names = host_names;
        cfg.scheduler = hair_trigger();
        let mut cluster = Cluster::new(cfg).unwrap();
        let heavy = cluster.place_vm(guest("heavy", 32, 16)).unwrap();
        let light = cluster.place_vm(guest("light", 8, 4)).unwrap();
        cluster.launch(heavy, Box::new(FileScan::new(MemBytes::from_mb(24).pages(), 4)));
        cluster.launch(light, Box::new(FileScan::new(128, 1)));
        cluster.run()
    }

    #[test]
    fn report_is_deterministic_and_host_order_invariant() {
        let names = || vec!["rack-a".to_owned(), "rack-b".to_owned(), "rack-c".to_owned()];
        let forward = run_cluster(names());
        let repeat = run_cluster(names());
        let reversed = run_cluster(names().into_iter().rev().collect());
        assert_eq!(forward.to_json(), repeat.to_json(), "same input, same bytes");
        assert_eq!(
            forward.to_json(),
            reversed.to_json(),
            "results must not depend on host enumeration order"
        );
        assert_eq!(forward.render(), reversed.render());
    }

    #[test]
    fn render_and_json_summarize_the_cluster() {
        let report = run_cluster(vec!["h0".to_owned(), "h1".to_owned()]);
        let text = report.render();
        assert!(text.contains("cluster: 2 hosts"));
        assert!(text.contains("h0"));
        let json = report.to_json();
        assert!(json.contains("\"hosts\":["));
        assert!(json.contains("\"migration_log\":["));
        assert!(json.ends_with("}\n"));
    }
}
