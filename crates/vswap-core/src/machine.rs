//! The simulated machine: host kernel + VMs + VSwapper + scheduler.
//!
//! [`Machine`] is the reproduction's testbed. It owns the host kernel,
//! the per-VM guest kernels and workloads, the Swap Mapper and False
//! Reads Preventer, and (optionally) a balloon manager, and it advances
//! simulated time by interleaving workload steps across VMs.

use crate::config::{Ballooning, MachineConfig};
use crate::mapper::SwapMapper;
use crate::preventer::FalseReadsPreventer;
use crate::report::{CacheSample, RunReport, VmReport};
use sim_core::{Clock, DeterministicRng, SimDuration, SimTime};
use sim_obs::{Event, EventLog, LatencyHub, Profiler, TimeCategory};
use std::error::Error;
use std::fmt;
use vswap_guestos::{
    AccessResult, GuestCtx, GuestError, GuestKernel, GuestProgram, StepOutcome, VirtualHardware,
};
use vswap_hostos::{Detach, HostError, HostKernel, PageState, VmExport, VmMmConfig};
use vswap_hypervisor::{BalloonManager, VmSpec, VmTelemetry};
use vswap_mem::{ContentLabel, Gfn, VmId};

/// Handle to a VM added to a [`Machine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmHandle(VmId);

impl VmHandle {
    /// The underlying host-kernel VM identity.
    pub fn vm_id(self) -> VmId {
        self.0
    }
}

/// Errors from machine construction and VM management.
#[derive(Debug)]
pub enum MachineError {
    /// The host kernel rejected the configuration.
    Host(HostError),
    /// The guest could not complete its boot sequence.
    Boot(GuestError),
    /// Static balloon inflation failed at VM setup.
    Balloon(GuestError),
    /// The configuration was rejected before any host work was done
    /// (e.g. a cluster with zero hosts, or a guest no host can hold).
    Config(String),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Host(e) => write!(f, "host: {e}"),
            MachineError::Boot(e) => write!(f, "guest boot: {e}"),
            MachineError::Balloon(e) => write!(f, "static balloon setup: {e}"),
            MachineError::Config(msg) => write!(f, "config: {msg}"),
        }
    }
}

impl Error for MachineError {}

impl From<HostError> for MachineError {
    fn from(e: HostError) -> Self {
        MachineError::Host(e)
    }
}

/// One workload slot on a VM.
struct ProgramSlot {
    program: Box<dyn GuestProgram>,
    launch_at: SimTime,
    started: Option<SimTime>,
    finished: Option<SimTime>,
    killed: Option<GuestError>,
    steps: u64,
}

struct VmEntry {
    id: VmId,
    spec: VmSpec,
    guest: GuestKernel,
    /// Concurrently scheduled workloads (guest processes time-share the
    /// VCPUs round-robin).
    slots: Vec<ProgramSlot>,
    /// Round-robin cursor over runnable slots.
    next_slot: usize,
    ready_at: SimTime,
    prev_guest_swap_outs: u64,
    /// Completed workload records, in completion order.
    history: Vec<VmReport>,
}

impl VmEntry {
    /// The earliest instant any of this VM's workloads can run, or
    /// `None` if nothing is scheduled.
    fn next_runnable_at(&self) -> Option<SimTime> {
        self.slots.iter().map(|s| self.ready_at.max(s.launch_at)).min()
    }

    /// Picks the next slot to run, round-robin among those whose launch
    /// time has arrived (falling back to the earliest launch).
    fn pick_slot(&mut self, now: SimTime) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let n = self.slots.len();
        for i in 0..n {
            let idx = (self.next_slot + i) % n;
            if self.slots[idx].launch_at <= now {
                self.next_slot = (idx + 1) % n;
                return Some(idx);
            }
        }
        // None launched yet: take the earliest.
        self.slots.iter().enumerate().min_by_key(|(_, s)| s.launch_at).map(|(i, _)| i)
    }
}

/// A VM lifted out of one [`Machine`] for admission into another.
/// Produced by [`Machine::detach_vm`] — after a live migration's
/// pre-copy rounds, or off a crashed host — and consumed by
/// [`Machine::admit_vm`] on the destination. Carries the guest kernel,
/// the still-pending workload slots, the completed-workload history, the
/// host-level page-state export (shared-storage image plus per-page wire
/// states), and the crash accounting, which is all zero after a
/// [`Detach::Orderly`] detach.
pub struct MigratedVm {
    spec: VmSpec,
    guest: GuestKernel,
    slots: Vec<ProgramSlot>,
    next_slot: usize,
    history: Vec<VmReport>,
    export: VmExport,
    /// Simulated time the source spent merging the VM's pending
    /// Preventer write buffers before the export (part of the downtime).
    flush_cost: SimDuration,
    recovered_pages: u64,
    refaulted_pages: u64,
    dropped_buffers: u64,
}

impl MigratedVm {
    /// The VM's human-readable name.
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// The VM's specification.
    pub fn spec(&self) -> &VmSpec {
        &self.spec
    }

    /// Source-side cost of flushing pending write buffers at extraction.
    pub fn flush_cost(&self) -> SimDuration {
        self.flush_cost
    }

    /// Pages a crash recovered without their bytes: Mapper block
    /// references and host swap-slot records, both of which survive on
    /// disk.
    pub fn recovered_pages(&self) -> u64 {
        self.recovered_pages
    }

    /// Pages a crash invalidated in the guest because their only copy
    /// was the dead host's DRAM (or an un-merged write buffer); the
    /// guest re-faults them after admission.
    pub fn refaulted_pages(&self) -> u64 {
        self.refaulted_pages
    }

    /// Preventer write buffers a crash dropped un-merged — in-flight
    /// emulated writes whose pages count as refaulted.
    pub fn dropped_buffers(&self) -> u64 {
        self.dropped_buffers
    }
}

/// The machine. See the crate-level docs for a quick-start example.
pub struct Machine {
    cfg: MachineConfig,
    clock: Clock,
    host: HostKernel,
    mapper: SwapMapper,
    preventer: FalseReadsPreventer,
    balloon_manager: Option<BalloonManager>,
    vms: Vec<VmEntry>,
    rng: DeterministicRng,
    /// Figure 15 samples taken so far, in time order.
    samples: Vec<CacheSample>,
    next_sample: SimTime,
    /// Structured event sink shared with every component; disabled (and
    /// therefore free) unless [`Machine::attach_event_log`] was called.
    events: EventLog,
    /// Per-VM simulated-time attribution (CPU / disk / faults / migration).
    profiler: Profiler,
    /// Per-(vm, class) latency histograms shared with the host kernel and
    /// Preventer; always on (unlike the event log).
    latency: LatencyHub,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("now", &self.clock.now())
            .field("vms", &self.vms.len())
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Builds a machine from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::Config`] if the sampling interval is zero,
    /// and [`MachineError::Host`] if the host spec is inconsistent.
    pub fn new(cfg: MachineConfig) -> Result<Self, MachineError> {
        if cfg.sample_interval == Some(SimDuration::ZERO) {
            // A zero interval would never move the next sample past now.
            return Err(MachineError::Config("the sample_interval must be positive".into()));
        }
        let mut host = HostKernel::new(cfg.host.clone())?;
        if cfg.label_namespace != 0 {
            host.set_label_namespace(cfg.label_namespace);
        }
        let fault_cfg = cfg.faults.config();
        if !fault_cfg.is_noop() {
            // The schedule is forked off the fault root by label, so it is
            // a pure function of (seed, profile): independent of VM count,
            // workload mix, and suite worker count. `from_rng` does not
            // advance the root, so enabling faults perturbs no other draw.
            let root = DeterministicRng::seed_from(cfg.fault_seed.unwrap_or(cfg.seed));
            host.install_fault_plan(Some(vswap_disk::FaultPlan::from_rng(
                fault_cfg,
                &root,
                "sim-fault/plan",
            )));
        }
        let balloon_manager = match &cfg.ballooning {
            Ballooning::Auto(policy) => Some(BalloonManager::new(policy.clone())),
            _ => None,
        };
        let latency = LatencyHub::new();
        host.set_latency_hub(latency.clone());
        let mut preventer = FalseReadsPreventer::new(cfg.preventer);
        preventer.set_latency_hub(latency.clone());
        Ok(Machine {
            clock: Clock::new(),
            mapper: SwapMapper::new(cfg.mapper),
            preventer,
            balloon_manager,
            host,
            vms: Vec::new(),
            rng: DeterministicRng::seed_from(cfg.seed),
            samples: Vec::new(),
            next_sample: SimTime::ZERO,
            events: EventLog::disabled(),
            profiler: Profiler::new(),
            latency,
            cfg,
        })
    }

    /// The shared per-(vm, class) latency book accumulated so far.
    pub fn latency(&self) -> sim_obs::LatencyBook {
        self.latency.snapshot()
    }

    /// Attaches a bounded structured event log to the machine and every
    /// component beneath it (host memory manager, disk, Mapper,
    /// Preventer, balloon manager). Returns a handle sharing the same
    /// buffer, which export sinks read after the run. Without this call
    /// the instrumented hot paths stay free of observable cost.
    pub fn attach_event_log(&mut self, capacity: usize) -> EventLog {
        let events = EventLog::bounded(capacity);
        self.host.set_event_log(events.clone());
        self.mapper.set_event_log(events.clone());
        self.preventer.set_event_log(events.clone());
        if let Some(manager) = &mut self.balloon_manager {
            manager.set_event_log(events.clone());
        }
        self.events = events.clone();
        events
    }

    /// The attached event log (disabled until
    /// [`Machine::attach_event_log`] is called).
    pub fn event_log(&self) -> &EventLog {
        &self.events
    }

    /// The per-VM simulated-time profile accumulated so far. Each VM's
    /// category rows sum to the runtime its workloads were charged.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Adds (and boots) a VM. With [`Ballooning::Static`], the balloon is
    /// inflated to the perceived-vs-actual gap right after boot.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::Config`] if the guest's kernel reservation
    /// is not smaller than its memory or its swap partition is not smaller
    /// than its disk, and another [`MachineError`] if the host cannot
    /// place the VM, the guest fails to boot, or static balloon inflation
    /// OOMs the guest.
    pub fn add_vm(&mut self, spec: VmSpec) -> Result<VmHandle, MachineError> {
        // The two conditions `GuestKernel::new` asserts, checked before
        // the host does any work for the VM.
        let guest = &spec.guest;
        if guest.kernel_pages >= guest.memory.pages() {
            return Err(MachineError::Config(format!(
                "guest `{}` reserves {} kernel pages but has only {} pages of memory",
                spec.name,
                guest.kernel_pages,
                guest.memory.pages()
            )));
        }
        if guest.swap.pages() >= guest.disk.pages() {
            return Err(MachineError::Config(format!(
                "guest `{}` has a {} swap partition on a {} disk; swap must be smaller",
                spec.name, guest.swap, guest.disk
            )));
        }
        let id = self.host.create_vm(VmMmConfig {
            gfn_count: spec.guest.memory.pages(),
            image_pages: spec.guest.disk.pages(),
            mem_limit_pages: spec.actual_memory.pages(),
            mapper_enabled: self.cfg.mapper,
        })?;
        if self.cfg.protect_guest_kernel {
            // §7 page-type-aware paging: the guest's kernel pages are
            // vital; never page them out.
            self.host.hint_protect_low_gfns(id, spec.guest.kernel_pages);
        }
        let seed = self.rng.next_u64();
        let mut guest = GuestKernel::new(spec.guest.clone(), seed);

        // Boot, then optionally apply the static balloon.
        let now = self.clock.now();
        let mut bus = MachineBus {
            host: &mut self.host,
            mapper: &mut self.mapper,
            preventer: &mut self.preventer,
            events: &self.events,
            vm: id,
            now,
            stall: SimDuration::ZERO,
            disk_wait: SimDuration::ZERO,
        };
        let mut boot_cost = guest.boot(&mut bus).map_err(MachineError::Boot)?;
        if matches!(self.cfg.ballooning, Ballooning::Static) {
            boot_cost += guest
                .balloon_set_target(&mut bus, spec.balloon_target_pages())
                .map_err(MachineError::Balloon)?;
        }
        let ready_at = now + boot_cost;

        // Every VM registers its initial balloon target (zero under
        // non-ballooning policies), so traces always carry the balloon
        // component's state.
        let initial_target = match self.cfg.ballooning {
            Ballooning::Static => spec.balloon_target_pages(),
            _ => 0,
        };
        self.events.emit_with(now, Some(id.get()), || Event::BalloonTarget {
            target_pages: initial_target,
        });
        let inflated = guest.balloon_pages();
        if inflated > 0 {
            self.events
                .emit_with(ready_at, Some(id.get()), || Event::BalloonInflate { pages: inflated });
        }

        self.vms.push(VmEntry {
            id,
            spec,
            guest,
            slots: Vec::new(),
            next_slot: 0,
            ready_at,
            prev_guest_swap_outs: 0,
            history: Vec::new(),
        });
        Ok(VmHandle(id))
    }

    /// Schedules a workload on a VM, starting as soon as the VM is ready.
    /// Multiple workloads on one VM time-share it round-robin, like
    /// processes inside a guest.
    pub fn launch(&mut self, vm: VmHandle, program: Box<dyn GuestProgram>) {
        self.launch_at(vm, program, self.clock.now());
    }

    /// Schedules a workload on a VM, starting no earlier than `at` (the
    /// phased dispatch of §5.2).
    pub fn launch_at(&mut self, vm: VmHandle, program: Box<dyn GuestProgram>, at: SimTime) {
        let entry = self.entry_mut(vm.0);
        entry.slots.push(ProgramSlot {
            program,
            launch_at: at,
            started: None,
            finished: None,
            killed: None,
            steps: 0,
        });
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// The host kernel (for probing counters mid-experiment).
    pub fn host(&self) -> &HostKernel {
        &self.host
    }

    /// Mutable host-kernel access for machine extensions that perform
    /// host-side work outside a guest context (e.g. live migration
    /// reading swapped pages back for the wire).
    pub fn host_mut(&mut self) -> &mut HostKernel {
        &mut self.host
    }

    /// The guest kernel of a VM (for probing guest state).
    pub fn guest(&self, vm: VmHandle) -> &GuestKernel {
        &self.entry(vm.0).guest
    }

    /// Number of workloads the VM has completed (or had killed) so far —
    /// lets callers drive [`Machine::step`] until a *specific* workload
    /// retires while others (e.g. daemons) keep running.
    pub fn completed_workloads(&self, vm: VmHandle) -> usize {
        self.entry(vm.0).history.len()
    }

    /// Runs until every launched workload has finished or been killed,
    /// then returns the cumulative report.
    pub fn run(&mut self) -> RunReport {
        while self.step() {}
        self.report()
    }

    /// Runs until the simulated clock reaches `deadline` or no runnable
    /// workload remains, whichever comes first. Returns `true` if
    /// runnable workloads remain (useful for interleaving external
    /// activity like live migration with guest execution).
    pub fn run_until(&mut self, deadline: SimTime) -> bool {
        while self.clock.now() < deadline {
            if !self.step() {
                return false;
            }
        }
        true
    }

    /// Advances the machine by one workload step (of whichever VM is
    /// ready first). Returns false when no runnable workload remains.
    pub fn step(&mut self) -> bool {
        // Pick the VM whose next step starts earliest.
        let Some(idx) = self
            .vms
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.next_runnable_at().map(|t| (i, t)))
            .min_by_key(|&(_, t)| t)
            .map(|(i, _)| i)
        else {
            return false;
        };

        let start = self.vms[idx].next_runnable_at().expect("selected as runnable");
        self.clock.advance_to(start);
        self.sample_if_due();
        self.poll_balloon_manager();

        // The balloon round may have retired this VM's workloads.
        let now = self.clock.now();
        let entry = &mut self.vms[idx];
        let Some(slot_idx) = entry.pick_slot(now) else { return true };
        let slot = &mut entry.slots[slot_idx];
        if slot.started.is_none() {
            slot.started = Some(now);
            self.events.emit_with(now, Some(entry.id.get()), || Event::WorkloadStarted {
                name: slot.program.name().to_owned(),
            });
        }

        let mut bus = MachineBus {
            host: &mut self.host,
            mapper: &mut self.mapper,
            preventer: &mut self.preventer,
            events: &self.events,
            vm: entry.id,
            now,
            stall: SimDuration::ZERO,
            disk_wait: SimDuration::ZERO,
        };
        let mut ctx = GuestCtx::new(&mut entry.guest, &mut bus);
        let result = slot.program.step(&mut ctx);
        let elapsed = ctx.elapsed();
        let stall = bus.stall;
        let disk_wait = bus.disk_wait;
        slot.steps += 1;

        // Asynchronous page faults let multi-VCPU guests overlap host
        // swap-in stalls with other runnable threads (§5.1).
        let effective =
            effective_elapsed(elapsed, stall, entry.spec.vcpus, entry.spec.async_page_faults);
        entry.ready_at = now + effective;

        // Attribute the step. CPU is the un-stalled remainder, disk waits
        // are charged in full, and whatever `effective` still contains is
        // the post-overlap fault stall — the three sum to `effective`, so
        // a VM's profile rows always sum to its attributed runtime.
        let cpu = elapsed.saturating_sub(stall).saturating_sub(disk_wait);
        let fault = effective.saturating_sub(cpu).saturating_sub(disk_wait);
        self.profiler.add(entry.id.get(), TimeCategory::Cpu, cpu);
        self.profiler.add(entry.id.get(), TimeCategory::DiskWait, disk_wait);
        self.profiler.add(entry.id.get(), TimeCategory::FaultHandling, fault);

        match result {
            Ok(StepOutcome::Running) => {}
            Ok(StepOutcome::Done) => {
                let slot = &mut entry.slots[slot_idx];
                slot.finished = Some(entry.ready_at);
                let runtime =
                    entry.ready_at.saturating_since(slot.started.unwrap_or(entry.ready_at));
                self.events.emit_with(entry.ready_at, Some(entry.id.get()), || {
                    Event::WorkloadFinished { runtime, killed: false }
                });
                Self::retire(entry, &self.host, slot_idx);
            }
            Err(e) => {
                let slot = &mut entry.slots[slot_idx];
                slot.killed = Some(e);
                slot.finished = Some(entry.ready_at);
                let runtime =
                    entry.ready_at.saturating_since(slot.started.unwrap_or(entry.ready_at));
                self.events.emit_with(entry.ready_at, Some(entry.id.get()), || {
                    Event::WorkloadFinished { runtime, killed: true }
                });
                Self::retire(entry, &self.host, slot_idx);
            }
        }
        true
    }

    /// Moves a finished slot into the VM's history.
    fn retire(entry: &mut VmEntry, host: &HostKernel, slot_idx: usize) {
        let slot = entry.slots.remove(slot_idx);
        if entry.next_slot > slot_idx {
            entry.next_slot -= 1;
        }
        if !entry.slots.is_empty() {
            entry.next_slot %= entry.slots.len();
        } else {
            entry.next_slot = 0;
        }
        entry.history.push(VmReport {
            vm: entry.id,
            name: entry.spec.name.clone(),
            workload: slot.program.name().to_owned(),
            started: slot.started,
            finished: slot.finished,
            killed: slot.killed.map(|e| e.to_string()),
            steps: slot.steps,
            guest_stats: entry.guest.stats().to_stat_set(),
            resident_pages: host.resident_pages(entry.id),
        });
    }

    /// Builds the cumulative report for everything run so far.
    pub fn report(&self) -> RunReport {
        RunReport {
            ended_at: self.clock.now(),
            workloads: self.vms.iter().flat_map(|e| e.history.iter().cloned()).collect(),
            host: self.host.stats().to_stat_set(),
            disk: self.host.disk_stats().to_stat_set(),
            mapper: self.mapper.stats().to_stat_set(),
            preventer: self.preventer.stats().to_stat_set(),
            samples: self.samples.clone(),
            profile: self.profiler.clone(),
            latency: self.latency.snapshot(),
            events_dropped: self.events.dropped(),
        }
    }

    /// Charges externally imposed downtime (a live-migration pause) to
    /// the VM's simulated-time profile, keeping its attribution complete.
    pub fn note_migration_stall(&mut self, vm: VmId, duration: SimDuration) {
        self.profiler.add(vm.get(), TimeCategory::MigrationStall, duration);
    }

    /// True while any VM still has a schedulable workload. Unlike
    /// [`Machine::run_until`]'s return value this is meaningful even when
    /// the clock already overshot a caller's deadline, which is what a
    /// cluster's epoch barrier needs for its termination check.
    pub fn has_runnable_workloads(&self) -> bool {
        self.vms.iter().any(|e| e.next_runnable_at().is_some())
    }

    /// Sample count in one latency class recorded for a VM so far (e.g.
    /// host swap-ins — the cluster scheduler's "hottest guest" signal).
    pub fn latency_count(&self, vm: VmHandle, class: sim_obs::LatencyClass) -> u64 {
        self.latency.class_count(vm.0.get(), class)
    }

    /// The specification a VM was admitted with.
    pub fn vm_spec(&self, vm: VmHandle) -> &VmSpec {
        &self.entry(vm.0).spec
    }

    /// Lifts a VM off this machine for admission elsewhere. Its
    /// unfinished workloads and completed-workload history travel with
    /// it, so cluster-level reports follow the tenant, not the host.
    ///
    /// [`Detach::Orderly`] is the final hand-off of a live migration,
    /// after the pre-copy rounds ran: pending Preventer write buffers are
    /// merged first — their content exists nowhere else — then the host
    /// kernel exports the per-page wire states and releases every host
    /// resource the VM held.
    ///
    /// [`Detach::Crashed`] detaches as if the host just fail-stopped
    /// (DRAM gone, host-local disk intact). There is no time to merge, so
    /// write buffers are dropped un-merged; the host replays what its disk
    /// still knows (Mapper block references, swap-slot records) into the
    /// wire state; and every page whose only copy was DRAM or a dropped
    /// buffer is invalidated in the guest kernel, so the guest re-faults
    /// it after admission instead of reading stale content. Guests on a
    /// Mapper-less host lose *all* resident pages — the paper's
    /// disposable-memory argument, seen from the fault-tolerance side:
    /// block references make most guest memory recoverable.
    pub fn detach_vm(&mut self, vm: VmHandle, mode: Detach) -> MigratedVm {
        let now = self.clock.now();
        let (flush_cost, dropped) = match mode {
            Detach::Orderly => (self.preventer.flush_vm(&mut self.host, now, vm.0), Vec::new()),
            Detach::Crashed => {
                (SimDuration::ZERO, self.preventer.dispose_vm(&mut self.host, now, vm.0))
            }
        };
        let export = self.host.export_vm(vm.0, mode);
        let idx = self.vms.iter().position(|e| e.id == vm.0).expect("unknown VM");
        let mut entry = self.vms.remove(idx);
        let mut refaulted_pages = 0u64;
        for &gfn in export.lost.iter().chain(&dropped) {
            refaulted_pages += u64::from(entry.guest.crash_drop_page(gfn));
        }
        let mut recovered_pages = 0u64;
        if mode == Detach::Crashed {
            recovered_pages =
                export.pages.iter().filter(|&&p| p != PageState::Untouched).count() as u64;
            self.events.emit_with(now, Some(vm.0.get()), || Event::Evacuation {
                recovered_pages,
                refaulted_pages,
            });
        }
        MigratedVm {
            spec: entry.spec,
            guest: entry.guest,
            slots: entry.slots,
            next_slot: entry.next_slot,
            history: entry.history,
            export,
            flush_cost,
            recovered_pages,
            refaulted_pages,
            dropped_buffers: dropped.len() as u64,
        }
    }

    /// Admits a migrated VM onto this machine. The guest resumes its
    /// interrupted workloads no earlier than `arrival` (the migration's
    /// completion instant, as computed by the cluster's cost model).
    ///
    /// The guest is *not* re-booted: its kernel state, page cache, and
    /// in-flight workloads continue where the source left off. Under
    /// the Mapper, all image-backed pages land *discarded* — the §7
    /// "migration enhanced by VSwapper" optimization: the destination
    /// refaults them from shared storage on demand instead of copying
    /// them over the wire.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::Host`] if the destination cannot place
    /// the VM (disk layout full, or DRAM too small to pre-fault the
    /// hosted hypervisor's code pages).
    pub fn admit_vm(
        &mut self,
        grant: MigratedVm,
        arrival: SimTime,
    ) -> Result<VmHandle, MachineError> {
        let now = self.clock.now();
        let (id, import_cost) = self.host.import_vm(now, grant.export)?;
        let ready_at = arrival.max(now + import_cost);
        self.vms.push(VmEntry {
            id,
            spec: grant.spec,
            guest: grant.guest,
            slots: grant.slots,
            next_slot: grant.next_slot,
            ready_at,
            prev_guest_swap_outs: 0,
            history: grant.history,
        });
        Ok(VmHandle(id))
    }

    /// Applies one balloon-manager round if dynamic ballooning is on.
    fn poll_balloon_manager(&mut self) {
        let Some(manager) = self.balloon_manager.as_mut() else { return };
        let now = self.clock.now();
        if !manager.due(now) {
            // The round is rate-limited away; still roll the swap-out
            // baseline forward so "recent" keeps meaning "since the
            // previous step", exactly as a full poll would.
            for e in &mut self.vms {
                e.prev_guest_swap_outs = e.guest.stats().swap_outs;
            }
            return;
        }
        let free_frac = self.host.free_frames() as f64 / self.cfg.host.dram.pages().max(1) as f64;
        let telemetry: Vec<VmTelemetry> = self
            .vms
            .iter()
            .map(|e| VmTelemetry {
                vm: e.id,
                guest_total_pages: e.spec.guest.memory.pages(),
                guest_free_pages: e.guest.free_pages(),
                balloon_pages: e.guest.balloon_pages(),
                recent_guest_swap_outs: e
                    .guest
                    .stats()
                    .swap_outs
                    .saturating_sub(e.prev_guest_swap_outs),
            })
            .collect();
        let targets = manager.poll(now, free_frac, &telemetry);
        for e in &mut self.vms {
            e.prev_guest_swap_outs = e.guest.stats().swap_outs;
        }
        for target in targets {
            let idx = self
                .vms
                .iter()
                .position(|e| e.id == target.vm)
                .expect("manager only sees known VMs");
            let entry = &mut self.vms[idx];
            let balloon_before = entry.guest.balloon_pages();
            let mut bus = MachineBus {
                host: &mut self.host,
                mapper: &mut self.mapper,
                preventer: &mut self.preventer,
                events: &self.events,
                vm: entry.id,
                now,
                stall: SimDuration::ZERO,
                disk_wait: SimDuration::ZERO,
            };
            match entry.guest.balloon_set_target(&mut bus, target.target_pages) {
                Ok(cost) => {
                    entry.ready_at = entry.ready_at.max(now + cost);
                    let balloon_after = entry.guest.balloon_pages();
                    if balloon_after > balloon_before {
                        self.events.emit_with(now, Some(entry.id.get()), || {
                            Event::BalloonInflate { pages: balloon_after - balloon_before }
                        });
                    } else if balloon_after < balloon_before {
                        self.events.emit_with(now, Some(entry.id.get()), || {
                            Event::BalloonDeflate { pages: balloon_before - balloon_after }
                        });
                    }
                }
                Err(e) => {
                    // Over-ballooning killed a workload process; retire
                    // every slot whose process is gone (the OOM killer
                    // targets the largest, i.e. the active workload).
                    while let Some(i) = entry.slots.iter().position(|s| s.launch_at <= now) {
                        entry.slots[i].killed = Some(e.clone());
                        entry.slots[i].finished = Some(now);
                        let runtime = entry.slots[i]
                            .started
                            .map_or(SimDuration::ZERO, |s| now.saturating_since(s));
                        self.events.emit_with(now, Some(entry.id.get()), || {
                            Event::WorkloadFinished { runtime, killed: true }
                        });
                        Self::retire(entry, &self.host, i);
                    }
                }
            }
        }
    }

    /// Takes one [`CacheSample`] per attached VM for every sampling
    /// instant up to now. Levels are read now and stamped with each
    /// elapsed instant.
    fn sample_if_due(&mut self) {
        let Some(interval) = self.cfg.sample_interval else { return };
        let now = self.clock.now();
        while now >= self.next_sample {
            for e in &self.vms {
                self.samples.push(CacheSample {
                    at: self.next_sample,
                    vm: e.id,
                    cache_pages: e.guest.cache_pages(),
                    clean_cache_pages: e.guest.cache_clean_pages(),
                    tracked_pages: self.host.origin_len(e.id),
                });
            }
            self.next_sample += interval;
        }
    }

    fn entry(&self, id: VmId) -> &VmEntry {
        self.vms.iter().find(|e| e.id == id).expect("unknown VM")
    }

    fn entry_mut(&mut self, id: VmId) -> &mut VmEntry {
        self.vms.iter_mut().find(|e| e.id == id).expect("unknown VM")
    }
}

/// Applies the asynchronous-page-fault overlap model: CPU time is paid in
/// full; fault-stall time is divided by a modest overlap factor when the
/// guest has multiple VCPUs and supports async page faults.
fn effective_elapsed(
    elapsed: SimDuration,
    stall: SimDuration,
    vcpus: u32,
    async_pf: bool,
) -> SimDuration {
    if !async_pf || vcpus <= 1 {
        return elapsed;
    }
    let overlap = (1.0 + 0.5 * (vcpus.min(8) - 1) as f64).min(4.0);
    let cpu = elapsed.saturating_sub(stall);
    cpu + SimDuration::from_nanos((stall.as_nanos() as f64 / overlap) as u64)
}

// ----------------------------------------------------------------------
// The hardware bus: guest operations routed through VSwapper
// ----------------------------------------------------------------------

/// Implements the guest's view of hardware on top of the host kernel,
/// with the Mapper and Preventer interposed. One bus instance lives for
/// the duration of one workload step.
struct MachineBus<'a> {
    host: &'a mut HostKernel,
    mapper: &'a mut SwapMapper,
    preventer: &'a mut FalseReadsPreventer,
    events: &'a EventLog,
    vm: VmId,
    now: SimTime,
    /// Fault-stall time accumulated this step (for async-PF overlap).
    stall: SimDuration,
    /// Virtual-disk wait time accumulated this step (profiled apart from
    /// fault stalls: disk waits get no async-PF overlap credit).
    disk_wait: SimDuration,
}

impl MachineBus<'_> {
    fn charge(&mut self, d: SimDuration, is_stall: bool) {
        self.now += d;
        if is_stall {
            self.stall += d;
        }
    }

    fn charge_disk(&mut self, d: SimDuration) {
        self.now += d;
        self.disk_wait += d;
    }

    /// Preventer flush + Mapper routing cost of one virtual-disk write.
    fn disk_write_cost(&mut self, gfns: &[Gfn], image_page: u64, aligned: bool) -> SimDuration {
        let mut cost = self.preventer.expire(self.host, self.now);
        for &gfn in gfns {
            cost += self.preventer.flush_for_host_access(self.host, self.now + cost, self.vm, gfn);
        }
        cost +=
            self.mapper.disk_write(self.host, self.now + cost, self.vm, gfns, image_page, aligned);
        cost
    }
}

impl VirtualHardware for MachineBus<'_> {
    fn mem_read(&mut self, gfn: Gfn) -> AccessResult {
        let mut cost = self.preventer.expire(self.host, self.now);
        cost += self.preventer.on_guest_read(self.host, self.now + cost, self.vm, gfn);
        let out = self.host.guest_access(self.now + cost, self.vm, gfn, false);
        let total = cost + out.latency;
        self.charge(total, true);
        AccessResult { latency: total, label: out.label }
    }

    fn mem_write(&mut self, gfn: Gfn) -> AccessResult {
        let cost = self.preventer.expire(self.host, self.now);
        if self.preventer.is_emulating(self.vm, gfn)
            || (!self.host.is_present(self.vm, gfn)
                && self.preventer.should_intercept(self.host, self.vm, gfn))
        {
            let (label, c) =
                self.preventer.on_partial_write(self.host, self.now + cost, self.vm, gfn);
            let total = cost + c;
            self.charge(total, true);
            return AccessResult { latency: total, label };
        }
        let out = self.host.guest_access(self.now + cost, self.vm, gfn, true);
        let total = cost + out.latency;
        self.charge(total, true);
        AccessResult { latency: total, label: out.label }
    }

    fn mem_overwrite(&mut self, gfn: Gfn, label: ContentLabel) -> AccessResult {
        let mut cost = self.preventer.expire(self.host, self.now);
        if self.preventer.is_emulating(self.vm, gfn)
            || (!self.host.is_present(self.vm, gfn)
                && self.preventer.should_intercept(self.host, self.vm, gfn))
        {
            cost +=
                self.preventer.on_full_overwrite(self.host, self.now + cost, self.vm, gfn, label);
            self.charge(cost, true);
            return AccessResult { latency: cost, label };
        }
        let out = self.host.overwrite_page(self.now + cost, self.vm, gfn, label);
        let total = cost + out.latency;
        self.charge(total, true);
        AccessResult { latency: total, label }
    }

    fn disk_read(&mut self, image_page: u64, gfns: &[Gfn], aligned: bool) -> SimDuration {
        let mut cost = self.preventer.expire(self.host, self.now);
        for &gfn in gfns {
            cost += self.preventer.flush_for_host_access(self.host, self.now + cost, self.vm, gfn);
        }
        cost +=
            self.mapper.disk_read(self.host, self.now + cost, self.vm, image_page, gfns, aligned);
        self.charge_disk(cost);
        cost
    }

    fn disk_write(&mut self, gfns: &[Gfn], image_page: u64, aligned: bool) -> SimDuration {
        let cost = self.disk_write_cost(gfns, image_page, aligned);
        self.charge_disk(cost);
        cost
    }

    fn disk_write_behind(&mut self, gfns: &[Gfn], image_page: u64, aligned: bool) -> SimDuration {
        // The device is busy for `cost` but no guest thread blocks, so
        // the time advances without booking profiler disk-wait.
        let cost = self.disk_write_cost(gfns, image_page, aligned);
        self.charge(cost, false);
        cost
    }

    fn balloon_release(&mut self, gfn: Gfn) {
        self.preventer.cancel(self.host, self.now, self.vm, gfn);
        self.host.balloon_release(self.vm, gfn);
    }

    fn image_label(&self, image_page: u64) -> ContentLabel {
        self.host.image_label(self.vm, image_page)
    }

    fn fresh_label(&mut self) -> ContentLabel {
        self.host.fresh_label()
    }

    fn observe(&mut self, event: Event) {
        self.events.emit(self.now, Some(self.vm.get()), event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn async_pf_overlap_shrinks_stall_only() {
        let elapsed = SimDuration::from_micros(100);
        let stall = SimDuration::from_micros(80);
        let single = effective_elapsed(elapsed, stall, 1, true);
        assert_eq!(single, elapsed);
        let dual = effective_elapsed(elapsed, stall, 2, true);
        // cpu 20us + 80us / 1.5 ≈ 73.3us
        assert!(dual < elapsed);
        assert!(dual > SimDuration::from_micros(70));
        let no_apf = effective_elapsed(elapsed, stall, 2, false);
        assert_eq!(no_apf, elapsed);
        // Overlap saturates at 4x.
        let many = effective_elapsed(elapsed, stall, 32, true);
        assert_eq!(many, SimDuration::from_micros(20) + stall / 4);
    }
}

#[cfg(test)]
mod machine_tests {
    use super::*;
    use crate::config::SwapPolicy;
    use crate::workload_api::{AllocTouch, FileScan};
    use vswap_guestos::GuestSpec;
    use vswap_hostos::HostSpec;
    use vswap_mem::MemBytes;

    fn tiny_host() -> HostSpec {
        HostSpec {
            dram: MemBytes::from_mb(32),
            disk_pages: MemBytes::from_mb(256).pages(),
            swap_pages: MemBytes::from_mb(32).pages(),
            hypervisor_code_pages: 8,
            ..HostSpec::paper_testbed()
        }
    }

    fn tiny_vm(name: &str, mem_mb: u64, actual_mb: u64) -> VmSpec {
        VmSpec::linux(name, MemBytes::from_mb(mem_mb), MemBytes::from_mb(actual_mb)).with_guest(
            GuestSpec {
                memory: MemBytes::from_mb(mem_mb),
                disk: MemBytes::from_mb(64),
                swap: MemBytes::from_mb(8),
                kernel_pages: 64,
                boot_file_pages: 128,
                boot_anon_pages: 64,
                ..GuestSpec::linux_default()
            },
        )
    }

    #[test]
    fn step_with_no_programs_returns_false() {
        let mut m =
            Machine::new(MachineConfig::preset(SwapPolicy::Baseline).with_host(tiny_host()))
                .unwrap();
        assert!(!m.step());
        let vm = m.add_vm(tiny_vm("g", 8, 8)).unwrap();
        assert!(!m.step(), "a VM without a workload is not runnable");
        m.launch(vm, Box::new(FileScan::new(16, 1)));
        assert!(m.step());
    }

    #[test]
    fn launch_at_delays_start() {
        let mut m =
            Machine::new(MachineConfig::preset(SwapPolicy::Baseline).with_host(tiny_host()))
                .unwrap();
        let vm = m.add_vm(tiny_vm("g", 8, 8)).unwrap();
        let delay = SimTime::ZERO + SimDuration::from_secs(3);
        m.launch_at(vm, Box::new(FileScan::new(16, 1)), delay);
        let report = m.run();
        assert!(report.vm(vm).started.expect("started") >= delay);
    }

    #[test]
    fn concurrent_workloads_time_share_one_vm() {
        let mut m =
            Machine::new(MachineConfig::preset(SwapPolicy::Baseline).with_host(tiny_host()))
                .unwrap();
        let vm = m.add_vm(tiny_vm("g", 8, 8)).unwrap();
        m.launch(vm, Box::new(FileScan::new(256, 2)));
        m.launch(vm, Box::new(AllocTouch::new(256, true)));
        let report = m.run();
        assert_eq!(report.vm_history(vm).count(), 2, "both processes finish");
        let recs: Vec<_> = report.vm_history(vm).collect();
        // They interleaved: each started before the other finished.
        assert!(recs[0].started.unwrap() < recs[1].finished.unwrap());
        assert!(recs[1].started.unwrap() < recs[0].finished.unwrap());
        m.host().audit().unwrap();
    }

    #[test]
    fn add_vm_fails_when_image_exceeds_disk() {
        let mut m =
            Machine::new(MachineConfig::preset(SwapPolicy::Baseline).with_host(tiny_host()))
                .unwrap();
        let spec = tiny_vm("g", 8, 8).with_guest(GuestSpec {
            memory: MemBytes::from_mb(8),
            disk: MemBytes::from_gb(8), // larger than the 256 MB device
            swap: MemBytes::from_mb(8),
            kernel_pages: 64,
            boot_file_pages: 0,
            boot_anon_pages: 0,
            ..GuestSpec::linux_default()
        });
        let err = m.add_vm(spec).unwrap_err();
        assert!(matches!(err, MachineError::Host(_)), "{err}");
        assert!(err.to_string().contains("disk layout full"));
    }

    #[test]
    fn add_vm_rejects_a_guest_smaller_than_its_kernel_or_swap() {
        let mut m =
            Machine::new(MachineConfig::preset(SwapPolicy::Baseline).with_host(tiny_host()))
                .unwrap();
        let tiny = tiny_vm("g", 8, 8);
        let no_room = tiny.clone().with_guest(GuestSpec {
            kernel_pages: MemBytes::from_mb(8).pages(),
            ..tiny.guest.clone()
        });
        let err = m.add_vm(no_room).unwrap_err();
        assert!(matches!(err, MachineError::Config(_)), "{err}");
        assert!(err.to_string().contains("kernel pages"), "{err}");
        let swap_fills_disk =
            tiny.clone().with_guest(GuestSpec { swap: tiny.guest.disk, ..tiny.guest.clone() });
        let err = m.add_vm(swap_fills_disk).unwrap_err();
        assert!(matches!(err, MachineError::Config(_)), "{err}");
        assert!(err.to_string().contains("swap"), "{err}");
        let vm = m.add_vm(tiny).expect("a guest that fits is accepted");
        assert_eq!(vm.vm_id(), vswap_mem::VmId::new(0), "rejected guests never reach the host");
    }

    #[test]
    fn two_vms_interleave_and_both_finish() {
        let mut m =
            Machine::new(MachineConfig::preset(SwapPolicy::Vswapper).with_host(tiny_host()))
                .unwrap();
        let a = m.add_vm(tiny_vm("a", 8, 4)).unwrap();
        let b = m.add_vm(tiny_vm("b", 8, 4)).unwrap();
        m.launch(a, Box::new(FileScan::new(512, 2)));
        m.launch(b, Box::new(AllocTouch::new(512, true)));
        let report = m.run();
        assert!(report.vm(a).completed());
        assert!(report.vm(b).completed());
        // Their executions overlapped in simulated time.
        let a_rec = report.vm(a);
        let b_rec = report.vm(b);
        assert!(a_rec.started.unwrap() < b_rec.finished.unwrap());
        assert!(b_rec.started.unwrap() < a_rec.finished.unwrap());
        m.host().audit().unwrap();
    }

    #[test]
    fn static_balloon_is_applied_at_boot() {
        let mut m =
            Machine::new(MachineConfig::preset(SwapPolicy::BalloonBaseline).with_host(tiny_host()))
                .unwrap();
        let vm = m.add_vm(tiny_vm("g", 16, 8)).unwrap();
        assert_eq!(
            m.guest(vm).balloon_pages(),
            MemBytes::from_mb(8).pages(),
            "balloon covers the perceived-vs-actual gap"
        );
    }

    #[test]
    fn baseline_policy_has_no_balloon() {
        let mut m =
            Machine::new(MachineConfig::preset(SwapPolicy::Baseline).with_host(tiny_host()))
                .unwrap();
        let vm = m.add_vm(tiny_vm("g", 16, 8)).unwrap();
        assert_eq!(m.guest(vm).balloon_pages(), 0);
    }

    #[test]
    fn fault_profile_installs_a_plan_only_when_asked() {
        use vswap_disk::FaultProfile;
        let quiet =
            Machine::new(MachineConfig::preset(SwapPolicy::Baseline).with_host(tiny_host()))
                .unwrap();
        assert!(quiet.host().fault_plan().is_none(), "the default injects nothing");

        let cfg = MachineConfig::preset(SwapPolicy::Baseline)
            .with_host(tiny_host())
            .with_faults(FaultProfile::Storm);
        let a = Machine::new(cfg.clone()).unwrap();
        let b = Machine::new(cfg.clone()).unwrap();
        assert_eq!(
            a.host().fault_plan(),
            b.host().fault_plan(),
            "the schedule is a pure function of the seed"
        );
        let c = Machine::new(cfg.with_fault_seed(99)).unwrap();
        assert_ne!(a.host().fault_plan(), c.host().fault_plan(), "fault_seed decouples it");
    }

    #[test]
    fn report_before_any_run_is_empty() {
        let m = Machine::new(MachineConfig::preset(SwapPolicy::Baseline).with_host(tiny_host()))
            .unwrap();
        let report = m.report();
        assert!(report.workloads.is_empty());
        assert!(report.mean_runtime_secs().is_none());
        assert_eq!(report.kill_count(), 0);
    }

    #[test]
    fn report_exposes_fault_and_recovery_counters() {
        let m = Machine::new(MachineConfig::preset(SwapPolicy::Baseline).with_host(tiny_host()))
            .unwrap();
        let json = m.report().to_json();
        for key in [
            "disk_injected_faults",
            "disk_io_retries",
            "disk_timed_out_requests",
            "disk_torn_writes",
            "io_retries",
            "recovered_pages",
            "degraded_pages",
            "fault_invalidations",
            "swap_slot_remaps",
        ] {
            assert!(json.contains(&format!("\"{key}\":0")), "missing {key} in {json}");
        }
    }

    #[test]
    fn zero_sampling_interval_is_a_typed_config_error_not_a_hang() {
        let cfg = MachineConfig::preset(SwapPolicy::Baseline)
            .with_host(tiny_host())
            .with_sampling(SimDuration::ZERO);
        let err = Machine::new(cfg).unwrap_err();
        assert!(matches!(err, MachineError::Config(_)), "got {err:?}");
        assert!(err.to_string().contains("sample_interval"), "{err}");
    }

    #[test]
    fn each_sampling_instant_has_one_sample_per_attached_vm() {
        /// The VMs sampled at each instant, in instant order.
        fn per_instant(samples: &[CacheSample]) -> Vec<Vec<VmId>> {
            let mut instants: Vec<(SimTime, Vec<VmId>)> = Vec::new();
            for s in samples {
                match instants.last_mut() {
                    Some((at, vms)) if *at == s.at => vms.push(s.vm),
                    _ => instants.push((s.at, vec![s.vm])),
                }
            }
            assert!(instants.windows(2).all(|w| w[0].0 < w[1].0), "instants ascend");
            instants.into_iter().map(|(_, vms)| vms).collect()
        }

        let cfg = MachineConfig::preset(SwapPolicy::Vswapper)
            .with_host(tiny_host())
            .with_sampling(SimDuration::from_millis(1));
        let mut m = Machine::new(cfg).unwrap();
        let a = m.add_vm(tiny_vm("a", 8, 4)).unwrap();
        let b = m.add_vm(tiny_vm("b", 8, 4)).unwrap();
        m.launch(a, Box::new(FileScan::new(512, 2)));
        m.launch(b, Box::new(AllocTouch::new(512, true)));
        let both = m.run().samples;
        let instants = per_instant(&both);
        assert!(instants.len() > 2, "several instants, got {}", instants.len());
        assert!(instants.iter().all(|vms| vms == &[a.vm_id(), b.vm_id()]), "{instants:?}");

        let _ = m.detach_vm(b, Detach::Orderly);
        m.launch(a, Box::new(FileScan::new(512, 2)));
        let after = m.run().samples;
        assert_eq!(after[..both.len()], both[..], "earlier samples are kept");
        let instants = per_instant(&after[both.len()..]);
        assert!(instants.len() > 2, "several instants, got {}", instants.len());
        assert!(instants.iter().all(|vms| vms == &[a.vm_id()]), "{instants:?}");
    }

    #[test]
    fn machine_debug_shows_state() {
        let m = Machine::new(MachineConfig::preset(SwapPolicy::Baseline).with_host(tiny_host()))
            .unwrap();
        let dbg = format!("{m:?}");
        assert!(dbg.contains("Machine"));
        assert!(dbg.contains("vms"));
    }
}
