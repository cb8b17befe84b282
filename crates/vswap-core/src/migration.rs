//! Live migration enhanced by VSwapper — the paper's §7 future work,
//! implemented.
//!
//! > "VSWAPPER techniques may be used to enhance live migration of guests
//! > and reduce the migration time and network traffic by avoiding the
//! > transfer of free and clean guest pages. […] Hypervisors that migrate
//! > guests can migrate memory mappings instead of (named) memory pages;
//! > and hypervisors to which a guest is migrated can avoid requesting
//! > pages that are wholly overwritten by guests."
//!
//! The model is classic pre-copy migration: iterate rounds that send
//! every page dirtied since the previous round, until the residual dirty
//! set is small enough to stop the guest and copy the rest (the
//! downtime). What the Swap Mapper changes:
//!
//! * **named pages** (resident-and-associated or discarded) are sent as
//!   8-byte *block references* into the shared disk image rather than
//!   4 KiB of content;
//! * **untouched pages** are skipped outright (no content anywhere);
//! * baseline hosts must additionally *read back* every host-swapped
//!   page from the swap area just to put it on the wire.
//!
//! Between rounds the guest keeps running (via
//! [`Machine::run_until`](crate::Machine::run_until)), and dirtying is
//! detected with content signatures — no write-protection shadowing
//! needed in a simulation that already labels all content.

use crate::machine::{Machine, VmHandle};
use sim_core::SimDuration;
use sim_obs::Event;
use std::fmt;
use vswap_disk::{entity_key, ClusterFaultPlan, LinkFault};
use vswap_hostos::PageResidency;
use vswap_mem::{ContentLabel, Gfn};

/// The migration network link.
#[derive(Debug, Clone, Copy)]
pub struct NetSpec {
    /// Usable bandwidth in bytes per simulated second.
    pub bandwidth_bytes_per_sec: u64,
    /// Fixed per-page protocol overhead in bytes (headers).
    pub per_page_overhead_bytes: u64,
}

impl NetSpec {
    /// A dedicated 1 Gb/s migration link (~110 MB/s usable).
    pub fn gigabit() -> Self {
        NetSpec { bandwidth_bytes_per_sec: 110_000_000, per_page_overhead_bytes: 48 }
    }

    /// Time to transfer `bytes` over the link.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_sec as f64)
    }
}

/// Migration tuning.
#[derive(Debug, Clone, Copy)]
pub struct MigrationConfig {
    /// The link to migrate over.
    pub net: NetSpec,
    /// Most pre-copy rounds before forcing the stop-and-copy.
    pub max_rounds: u32,
    /// Stop-and-copy once the dirty set falls below this many pages.
    pub stop_copy_threshold_pages: u64,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            net: NetSpec::gigabit(),
            max_rounds: 8,
            stop_copy_threshold_pages: 2048, // an ~8 MB residue => tens of ms downtime
        }
    }
}

/// One pre-copy round's accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundReport {
    /// Pages whose 4 KiB content crossed the wire.
    pub content_pages: u64,
    /// Pages sent as 8-byte block references (named pages).
    pub reference_pages: u64,
    /// Pages skipped because they hold no content (never touched).
    pub skipped_untouched: u64,
    /// Host-swapped pages that had to be read back from disk first.
    pub swap_readbacks: u64,
    /// Bytes put on the wire this round.
    pub bytes_sent: u64,
    /// Time the round took (network + swap readback I/O).
    pub duration: SimDuration,
}

/// The whole migration's accounting.
#[derive(Debug, Clone, Default)]
pub struct MigrationReport {
    /// Per-round details, pre-copy rounds then the stop-and-copy round.
    pub rounds: Vec<RoundReport>,
    /// Total bytes transferred.
    pub total_bytes: u64,
    /// Total migration time (first round start to handover).
    pub total_time: SimDuration,
    /// Guest downtime (the stop-and-copy round).
    pub downtime: SimDuration,
    /// Rounds whose transfer arrived torn and was re-sent whole (link
    /// faults; always zero on a clean link).
    pub torn_resends: u64,
}

/// A migration attempt that died on the wire: the link dropped with a
/// round's data in flight, nothing of the attempt committed, and the
/// guest keeps running on the source (pre-copy's natural rollback — the
/// hand-off never happened). Returned by
/// [`LiveMigration::run_with_faults`]; the caller decides whether to
/// retry with backoff or abandon.
#[derive(Debug, Clone)]
pub struct MigrationAborted {
    /// Zero-based round the link failed in.
    pub round: u32,
    /// Bytes this attempt put on the wire that bought nothing.
    pub wasted_bytes: u64,
    /// Simulated time the attempt consumed before aborting.
    pub elapsed: SimDuration,
}

impl fmt::Display for MigrationAborted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "migration aborted in round {}: link lost with {} bytes wasted",
            self.round, self.wasted_bytes
        )
    }
}

impl std::error::Error for MigrationAborted {}

impl MigrationReport {
    /// Sum of a per-round field across all rounds.
    pub fn sum(&self, f: impl Fn(&RoundReport) -> u64) -> u64 {
        self.rounds.iter().map(f).sum()
    }
}

/// Pre-copy live migration of one VM. See the module docs.
#[derive(Debug)]
pub struct LiveMigration {
    cfg: MigrationConfig,
}

impl LiveMigration {
    /// Creates a migrator with the given tuning.
    pub fn new(cfg: MigrationConfig) -> Self {
        LiveMigration { cfg }
    }

    /// Migrates `vm` off the machine while its workload (if any) keeps
    /// running between rounds. The machine itself is not torn down —
    /// the simulation measures the *cost* of migration, which is all the
    /// paper's future-work claim concerns.
    pub fn run(&self, machine: &mut Machine, vm: VmHandle) -> MigrationReport {
        self.run_inner(machine, vm, None).expect("a clean link never aborts")
    }

    /// Like [`LiveMigration::run`], over a link that can fail. Each
    /// round consults the cluster fault plan (keyed by tenant name,
    /// round, and the caller's retry `attempt`):
    ///
    /// * a **transient** link loss kills the attempt — nothing of it
    ///   committed, the guest keeps running on the source, and the
    ///   bytes and time already spent are reported wasted;
    /// * a **torn** transfer arrives corrupt and is re-sent whole, so
    ///   the round completes at double the traffic and link time.
    ///
    /// With the no-op plan every draw is `None` and this is byte-for-
    /// byte the fault-free migration.
    pub fn run_with_faults(
        &self,
        machine: &mut Machine,
        vm: VmHandle,
        plan: &ClusterFaultPlan,
        tenant: &str,
        attempt: u32,
    ) -> Result<MigrationReport, MigrationAborted> {
        self.run_inner(machine, vm, Some((plan, tenant, attempt)))
    }

    fn run_inner(
        &self,
        machine: &mut Machine,
        vm: VmHandle,
        faults: Option<(&ClusterFaultPlan, &str, u32)>,
    ) -> Result<MigrationReport, MigrationAborted> {
        let vm_id = vm.vm_id();
        let gfn_count = machine.guest(vm).spec().memory.pages();
        let faults = faults.map(|(plan, tenant, attempt)| (plan, entity_key(tenant), attempt));
        let mut report = MigrationReport::default();
        // Signatures as of the last transfer; None = never sent.
        let mut sent: Vec<Option<Option<ContentLabel>>> = vec![None; gfn_count as usize];

        for round in 0..=self.cfg.max_rounds {
            let now = machine.now();
            let mut rr = RoundReport::default();

            // Collect the pages that changed since their last transfer.
            let mut dirty: Vec<Gfn> = Vec::new();
            for g in 0..gfn_count {
                let gfn = Gfn::new(g);
                let sig = machine.host().page_signature(vm_id, gfn);
                if sent[g as usize] != Some(sig) {
                    dirty.push(gfn);
                }
            }

            let final_round = round == self.cfg.max_rounds
                || (dirty.len() as u64) <= self.cfg.stop_copy_threshold_pages;

            // Transfer the dirty set. Signature updates stay pending
            // until the round is known to have committed: a transient
            // link loss discards them (that data never arrived).
            let mut pending: Vec<(usize, Option<ContentLabel>)> = Vec::new();
            let mut io_cost = SimDuration::ZERO;
            for &gfn in &dirty {
                let sig = machine.host().page_signature(vm_id, gfn);
                match machine.host().page_residency(vm_id, gfn) {
                    PageResidency::Untouched => rr.skipped_untouched += 1,
                    PageResidency::ResidentNamed | PageResidency::Discarded => {
                        rr.reference_pages += 1;
                        rr.bytes_sent += 8 + self.cfg.net.per_page_overhead_bytes;
                    }
                    PageResidency::ResidentAnon => {
                        rr.content_pages += 1;
                        rr.bytes_sent += 4096 + self.cfg.net.per_page_overhead_bytes;
                    }
                    PageResidency::Swapped => {
                        rr.swap_readbacks += 1;
                        rr.content_pages += 1;
                        rr.bytes_sent += 4096 + self.cfg.net.per_page_overhead_bytes;
                        io_cost +=
                            machine.host_mut().migration_read_swapped(now + io_cost, vm_id, gfn);
                    }
                }
                pending.push((gfn.index(), sig));
            }

            rr.duration = self.cfg.net.transfer_time(rr.bytes_sent).max(io_cost);

            let fault = faults.and_then(|(plan, tenant_key, attempt)| {
                plan.link_fault(tenant_key, round, attempt)
            });
            match fault {
                Some(LinkFault::Transient) => {
                    // The link died with this round in flight. The time
                    // and traffic are spent — the device reads happened,
                    // the wire carried the bytes — but nothing committed.
                    report.total_bytes += rr.bytes_sent;
                    report.total_time += rr.duration;
                    let wasted = report.total_bytes;
                    machine.event_log().emit_with(now, Some(vm_id.get()), || {
                        Event::MigrationAbort { round, wasted_bytes: wasted }
                    });
                    if final_round {
                        // The guest was paused for the doomed
                        // stop-and-copy; attribute that downtime.
                        machine.note_migration_stall(vm_id, rr.duration);
                    } else {
                        machine.run_until(now + rr.duration);
                    }
                    return Err(MigrationAborted {
                        round,
                        wasted_bytes: wasted,
                        elapsed: report.total_time,
                    });
                }
                Some(LinkFault::Torn) => {
                    // Arrived corrupt; the whole round is re-sent (and
                    // the re-send, by construction, lands intact).
                    rr.duration += self.cfg.net.transfer_time(rr.bytes_sent);
                    rr.bytes_sent *= 2;
                    report.torn_resends += 1;
                }
                None => {}
            }
            for (i, sig) in pending {
                sent[i] = Some(sig);
            }

            report.total_bytes += rr.bytes_sent;
            report.total_time += rr.duration;

            machine.event_log().emit_with(now, Some(vm_id.get()), || Event::MigrationRound {
                round,
                copied: rr.content_pages + rr.reference_pages,
            });

            if final_round {
                // The stop-and-copy round pauses the guest; attribute the
                // downtime in the VM's simulated-time profile.
                machine.note_migration_stall(vm_id, rr.duration);
                report.downtime = rr.duration;
                report.rounds.push(rr);
                break;
            }

            // The guest runs on while this round's data is on the wire.
            let deadline = now + rr.duration;
            machine.run_until(deadline);
            report.rounds.push(rr);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MachineConfig, SwapPolicy};
    use crate::workload_api::FileScan;
    use vswap_guestos::GuestSpec;
    use vswap_hostos::HostSpec;
    use vswap_hypervisor::VmSpec;
    use vswap_mem::MemBytes;

    fn machine_with_guest(policy: SwapPolicy) -> (Machine, VmHandle) {
        let host = HostSpec {
            dram: MemBytes::from_mb(64),
            disk_pages: MemBytes::from_mb(512).pages(),
            swap_pages: MemBytes::from_mb(64).pages(),
            hypervisor_code_pages: 16,
            ..HostSpec::paper_testbed()
        };
        let mut m = Machine::new(MachineConfig::preset(policy).with_host(host)).unwrap();
        let vm = m
            .add_vm(
                VmSpec::linux("guest", MemBytes::from_mb(32), MemBytes::from_mb(16)).with_guest(
                    GuestSpec {
                        memory: MemBytes::from_mb(32),
                        disk: MemBytes::from_mb(256),
                        swap: MemBytes::from_mb(32),
                        kernel_pages: MemBytes::from_mb(2).pages(),
                        boot_file_pages: MemBytes::from_mb(8).pages(),
                        boot_anon_pages: MemBytes::from_mb(2).pages(),
                        ..GuestSpec::linux_default()
                    },
                ),
            )
            .unwrap();
        (m, vm)
    }

    /// Fills the guest cache with file content before migrating.
    fn warm(m: &mut Machine, vm: VmHandle) {
        m.launch(vm, Box::new(FileScan::new(MemBytes::from_mb(20).pages(), 1)));
        m.run();
    }

    #[test]
    fn idle_guest_migrates_in_one_round() {
        let (mut m, vm) = machine_with_guest(SwapPolicy::Baseline);
        warm(&mut m, vm);
        let report = LiveMigration::new(MigrationConfig::default()).run(&mut m, vm);
        // Bulk round plus (at most) a tiny residue round.
        assert!(report.rounds.len() <= 2, "idle guests converge instantly: {report:?}");
        assert!(report.total_bytes > 0);
        if let [bulk, residue] = report.rounds[..] {
            assert!(residue.bytes_sent < bulk.bytes_sent / 4, "residue must be small");
        }
        assert_eq!(report.downtime, report.rounds.last().unwrap().duration);
    }

    #[test]
    fn mapper_sends_references_instead_of_content() {
        let (mut mb, vmb) = machine_with_guest(SwapPolicy::Baseline);
        warm(&mut mb, vmb);
        let base = LiveMigration::new(MigrationConfig::default()).run(&mut mb, vmb);

        let (mut mv, vmv) = machine_with_guest(SwapPolicy::Vswapper);
        warm(&mut mv, vmv);
        let vswap = LiveMigration::new(MigrationConfig::default()).run(&mut mv, vmv);

        assert!(vswap.sum(|r| r.reference_pages) > 0, "named pages travel as references");
        assert!(
            vswap.total_bytes * 2 < base.total_bytes,
            "references must cut traffic at least in half: {} vs {}",
            vswap.total_bytes,
            base.total_bytes
        );
        assert!(vswap.total_time < base.total_time);
    }

    #[test]
    fn baseline_pays_swap_readbacks() {
        let (mut m, vm) = machine_with_guest(SwapPolicy::Baseline);
        warm(&mut m, vm); // 20 MB of cache in a 16 MB allocation: some swapped
        let report = LiveMigration::new(MigrationConfig::default()).run(&mut m, vm);
        assert!(
            report.sum(|r| r.swap_readbacks) > 0,
            "host-swapped pages must be read back for the wire"
        );
    }

    #[test]
    fn untouched_pages_are_skipped() {
        let (mut m, vm) = machine_with_guest(SwapPolicy::Vswapper);
        // No warmup: most of the 32 MB guest was never touched.
        let report = LiveMigration::new(MigrationConfig::default()).run(&mut m, vm);
        assert!(report.sum(|r| r.skipped_untouched) > 0);
        // Way less than the full guest went over the wire.
        assert!(report.total_bytes < MemBytes::from_mb(32).bytes() / 2);
    }

    #[test]
    fn active_guest_needs_extra_rounds() {
        let (mut m, vm) = machine_with_guest(SwapPolicy::Vswapper);
        warm(&mut m, vm);
        // Launch a long scan that keeps dirtying cache while migrating.
        m.launch(vm, Box::new(FileScan::new(MemBytes::from_mb(20).pages(), 50)));
        let report = LiveMigration::new(MigrationConfig::default()).run(&mut m, vm);
        assert!(report.rounds.len() > 1, "a running workload forces re-transfers");
    }
}
