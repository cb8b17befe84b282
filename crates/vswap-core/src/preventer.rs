//! The False Reads Preventer (§4.2 of the paper).
//!
//! When an unaware guest overwrites a page the host has swapped out —
//! zeroing a recycled frame, copying-on-write, migrating pages — the
//! baseline host dutifully reads the doomed old content back from disk
//! first: a *false swap read*. The Preventer instead traps such writes
//! and emulates them into page-sized, page-aligned buffers:
//!
//! * if the whole page gets overwritten (or an x86 `REP`-prefixed store
//!   makes that evident up front), the buffer simply *becomes* the guest
//!   page — no disk read ever happens (a **remap**);
//! * if the guest reads data that was never buffered, or the emulation
//!   outlives its budget (1 ms since the first write, or more than 32
//!   concurrent emulations), the old content is fetched and **merged**
//!   with the buffered bytes.

use sim_core::{SimDuration, SimTime};
use sim_obs::{Event, EventLog, FlushCause, LatencyClass, LatencyHub};
use vswap_hostos::HostKernel;
use vswap_mem::{Backing, ContentLabel, FrameId, Gfn, VmId};

/// Tuning knobs of the Preventer (defaults match the paper's empirically
/// chosen values: 1 ms, 32 pages).
#[derive(Debug, Clone, Copy)]
pub struct PreventerConfig {
    /// Master switch.
    pub enabled: bool,
    /// Longest an emulation may run after its first buffered write.
    pub timeout: SimDuration,
    /// Most pages emulated concurrently.
    pub max_pages: usize,
    /// CPU cost of emulating one trapped write (emulation is slow — the
    /// reason the timeout and page cap exist).
    pub emulated_write_overhead: SimDuration,
}

impl Default for PreventerConfig {
    fn default() -> Self {
        PreventerConfig {
            enabled: true,
            timeout: SimDuration::from_millis(1),
            max_pages: 32,
            emulated_write_overhead: SimDuration::from_micros(2),
        }
    }
}

sim_core::counters! {
    /// Cumulative Preventer accounting, reported as `preventer_<field>`.
    pub struct PreventerStats prefix "preventer_" {
        /// Emulations opened (a write to a swapped-out page was trapped).
        buffers_opened,
        /// Buffers that became the guest page without any disk read — false
        /// reads eliminated (the "preventer remaps" of Figure 12b).
        remaps,
        /// Buffers that needed the old content fetched and merged.
        merges,
        /// Merges forced by the 1 ms timeout.
        timeouts,
        /// Merges forced by the concurrent-page cap.
        capacity_evictions,
        /// Merges forced by a guest read of unbuffered data.
        read_merges,
        /// Emulations cancelled without promotion (page released under the
        /// emulation, e.g. by the balloon).
        cancelled,
    }
}

#[derive(Debug, Clone, Copy)]
struct Emulation {
    vm: VmId,
    gfn: Gfn,
    frame: FrameId,
    first_write: SimTime,
    label: ContentLabel,
}

/// The False Reads Preventer. Driven by the machine bus on every guest
/// memory operation; owns at most [`PreventerConfig::max_pages`] buffered
/// emulations at a time.
///
/// # Examples
///
/// ```
/// use vswap_core::{FalseReadsPreventer, PreventerConfig};
///
/// let preventer = FalseReadsPreventer::new(PreventerConfig::default());
/// assert_eq!(preventer.active(), 0);
/// ```
#[derive(Debug)]
pub struct FalseReadsPreventer {
    cfg: PreventerConfig,
    emus: Vec<Emulation>,
    /// Lower bound on every live emulation's `first_write`. Removals can
    /// only raise the true minimum, so the bound stays valid without
    /// recomputation; [`FalseReadsPreventer::expire`] uses it to skip its
    /// scan when even the oldest possible buffer is still within budget.
    earliest: SimTime,
    /// Per-VM bitmaps marking pages with an open emulation. The bus
    /// probes membership on every guest memory access and every host
    /// disk-I/O page; the bitmap answers in O(1) so the small ordered
    /// `emus` vec is only scanned on actual hits.
    marks: Vec<Vec<u64>>,
    stats: PreventerStats,
    /// Structured event sink; disabled (free) unless attached.
    events: EventLog,
    /// Per-(vm, class) latency distributions; always on.
    latency: LatencyHub,
}

impl FalseReadsPreventer {
    /// Creates an idle Preventer.
    pub fn new(cfg: PreventerConfig) -> Self {
        FalseReadsPreventer {
            cfg,
            emus: Vec::new(),
            earliest: SimTime::ZERO,
            marks: Vec::new(),
            stats: PreventerStats::default(),
            events: EventLog::disabled(),
            latency: LatencyHub::new(),
        }
    }

    /// Attaches a structured event log; buffer lifecycle transitions then
    /// emit open/flush/discard events.
    pub fn set_event_log(&mut self, events: EventLog) {
        self.events = events;
    }

    /// Shares a latency book: each emulation's buffered lifetime (first
    /// write to disposal) lands in the `prevented_write` class.
    pub fn set_latency_hub(&mut self, latency: LatencyHub) {
        self.latency = latency;
    }

    /// The configuration in force.
    pub fn config(&self) -> &PreventerConfig {
        &self.cfg
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &PreventerStats {
        &self.stats
    }

    /// Number of pages currently being emulated.
    pub fn active(&self) -> usize {
        self.emus.len()
    }

    /// True if writes to this page are currently emulated.
    #[inline]
    pub fn is_emulating(&self, vm: VmId, gfn: Gfn) -> bool {
        self.marked(vm, gfn)
    }

    /// O(1) membership probe against the per-VM bitmaps.
    #[inline]
    fn marked(&self, vm: VmId, gfn: Gfn) -> bool {
        self.marks
            .get(vm.get() as usize)
            .and_then(|m| m.get(gfn.index() / 64))
            .is_some_and(|w| w & (1 << (gfn.index() % 64)) != 0)
    }

    /// Sets or clears a page's membership bit, growing the bitmap on
    /// first use of a VM or page range.
    fn mark(&mut self, vm: VmId, gfn: Gfn, on: bool) {
        let v = vm.get() as usize;
        if self.marks.len() <= v {
            self.marks.resize_with(v + 1, Vec::new);
        }
        let map = &mut self.marks[v];
        let word = gfn.index() / 64;
        if map.len() <= word {
            map.resize(word + 1, 0);
        }
        let bit = 1u64 << (gfn.index() % 64);
        if on {
            map[word] |= bit;
        } else {
            map[word] &= !bit;
        }
    }

    /// Removes the emulation at `pos`, keeping the membership bitmap in
    /// sync.
    fn take_emu(&mut self, pos: usize) -> Emulation {
        let emu = self.emus.swap_remove(pos);
        self.mark(emu.vm, emu.gfn, false);
        emu
    }

    /// True when the Preventer would intercept a write to `gfn`: it is
    /// enabled and the page is swapped out with real disk content behind
    /// it (pages backed by nothing zero-fill cheaply; no read to save).
    pub fn should_intercept(&self, host: &HostKernel, vm: VmId, gfn: Gfn) -> bool {
        self.cfg.enabled
            && matches!(
                host.backing(vm, gfn),
                Some(Backing::SwapSlot(_)) | Some(Backing::ImagePage(_))
            )
    }

    /// Expires emulations whose 1 ms budget has elapsed, merging them.
    /// Returns the total cost charged (the guest is synchronous in this
    /// model, approximating the paper's asynchronous read).
    pub fn expire(&mut self, host: &mut HostKernel, now: SimTime) -> SimDuration {
        // Called on every guest memory operation: bail without scanning
        // unless the oldest possible buffer could actually be expired.
        if self.emus.is_empty() || now.saturating_since(self.earliest) < self.cfg.timeout {
            return SimDuration::ZERO;
        }
        let mut cost = SimDuration::ZERO;
        while let Some(pos) =
            self.emus.iter().position(|e| now.saturating_since(e.first_write) >= self.cfg.timeout)
        {
            let emu = self.take_emu(pos);
            cost += self.merge(host, now + cost, emu, FlushCause::Timeout);
        }
        // Tighten the bound to the survivors' true minimum so the next
        // fast-path check is exact.
        self.earliest = self.emus.iter().map(|e| e.first_write).min().unwrap_or(now);
        cost
    }

    /// Traps a partial write to the swapped-out `gfn`: opens (or extends)
    /// an emulation buffer. Returns the new page content label and the
    /// cost.
    ///
    /// # Panics
    ///
    /// Panics if the page is not interceptable (call
    /// [`FalseReadsPreventer::should_intercept`] first) and no emulation
    /// is active for it.
    pub fn on_partial_write(
        &mut self,
        host: &mut HostKernel,
        now: SimTime,
        vm: VmId,
        gfn: Gfn,
    ) -> (ContentLabel, SimDuration) {
        let mut cost = self.cfg.emulated_write_overhead;
        if let Some(e) = self.emus.iter_mut().find(|e| e.vm == vm && e.gfn == gfn) {
            let label = host.fresh_label();
            e.label = label;
            return (label, cost);
        }
        assert!(self.should_intercept(host, vm, gfn), "page is not interceptable");
        cost += self.make_room(host, now + cost);
        let (frame, alloc_cost) = host.alloc_buffer_frame(now + cost, vm, gfn);
        cost += alloc_cost;
        let label = host.fresh_label();
        if self.emus.is_empty() || now < self.earliest {
            self.earliest = now;
        }
        self.mark(vm, gfn, true);
        self.emus.push(Emulation { vm, gfn, frame, first_write: now, label });
        self.stats.buffers_opened += 1;
        self.events.emit_with(now, Some(vm.get()), || Event::PreventerOpen { gfn: gfn.get() });
        (label, cost)
    }

    /// Traps a full-page overwrite of the swapped-out `gfn` (page
    /// zeroing, COW copy, `REP`-prefixed store): the buffer immediately
    /// becomes the guest page. No disk read happens — one false read
    /// eliminated.
    ///
    /// # Panics
    ///
    /// Panics if the page is not interceptable and no emulation is active
    /// for it.
    pub fn on_full_overwrite(
        &mut self,
        host: &mut HostKernel,
        now: SimTime,
        vm: VmId,
        gfn: Gfn,
        label: ContentLabel,
    ) -> SimDuration {
        let mut cost = self.cfg.emulated_write_overhead;
        if let Some(pos) = self.emus.iter().position(|e| e.vm == vm && e.gfn == gfn) {
            // The running emulation just completed the page.
            let emu = self.take_emu(pos);
            self.install(host, now, emu.frame, vm, gfn, label);
            self.stats.remaps += 1;
            self.latency.record(
                vm.get(),
                LatencyClass::PreventedWrite,
                now.saturating_since(emu.first_write),
            );
            return cost;
        }
        assert!(self.should_intercept(host, vm, gfn), "page is not interceptable");
        cost += self.make_room(host, now + cost);
        let (frame, alloc_cost) = host.alloc_buffer_frame(now + cost, vm, gfn);
        cost += alloc_cost;
        host.promote_buffer_frame(vm, gfn, frame, label);
        self.stats.buffers_opened += 1;
        self.stats.remaps += 1;
        // A one-shot prevention: the buffer opened and promoted within
        // this single write, so its buffered lifetime is the write's own
        // emulation cost.
        self.latency.record(vm.get(), LatencyClass::PreventedWrite, cost);
        self.events.emit_with(now, Some(vm.get()), || Event::PreventerOpen { gfn: gfn.get() });
        cost
    }

    /// A guest read touched an emulated page: the unbuffered bytes must
    /// exist, so the old content is fetched and merged. Returns the cost;
    /// afterwards the page is present.
    pub fn on_guest_read(
        &mut self,
        host: &mut HostKernel,
        now: SimTime,
        vm: VmId,
        gfn: Gfn,
    ) -> SimDuration {
        if !self.marked(vm, gfn) {
            return SimDuration::ZERO;
        }
        let pos = self
            .emus
            .iter()
            .position(|e| e.vm == vm && e.gfn == gfn)
            .expect("marked pages have an emulation");
        let emu = self.take_emu(pos);
        self.merge(host, now, emu, FlushCause::GuestRead)
    }

    /// Host code (QEMU) is about to access `gfn` (virtual disk I/O): the
    /// emulation must terminate so the host observes up-to-date data
    /// (the `h` handler of §4.2). Returns the cost.
    pub fn flush_for_host_access(
        &mut self,
        host: &mut HostKernel,
        now: SimTime,
        vm: VmId,
        gfn: Gfn,
    ) -> SimDuration {
        if !self.marked(vm, gfn) {
            return SimDuration::ZERO;
        }
        let pos = self
            .emus
            .iter()
            .position(|e| e.vm == vm && e.gfn == gfn)
            .expect("marked pages have an emulation");
        let emu = self.take_emu(pos);
        self.merge(host, now, emu, FlushCause::HostAccess)
    }

    /// The page under an emulation was released (balloon inflation):
    /// cancel and drop the buffer.
    pub fn cancel(&mut self, host: &mut HostKernel, now: SimTime, vm: VmId, gfn: Gfn) {
        if let Some(pos) = self.emus.iter().position(|e| e.vm == vm && e.gfn == gfn) {
            let emu = self.take_emu(pos);
            host.drop_buffer_frame(vm, emu.frame);
            self.stats.cancelled += 1;
            self.latency.record(
                vm.get(),
                LatencyClass::PreventedWrite,
                now.saturating_since(emu.first_write),
            );
            self.events
                .emit_with(now, Some(vm.get()), || Event::PreventerDiscard { gfn: gfn.get() });
        }
    }

    /// Drops every emulation belonging to one VM *without* promotion —
    /// the crash path. The host is dead: there is no time to merge, so
    /// each buffered write's content is simply gone. Returns the guest
    /// frames whose content was lost this way; the caller must
    /// invalidate them guest-side so the guest re-faults rather than
    /// reading stale bytes. Contrast [`FalseReadsPreventer::flush_vm`],
    /// the orderly-migration path that merges instead.
    pub fn dispose_vm(&mut self, host: &mut HostKernel, now: SimTime, vm: VmId) -> Vec<Gfn> {
        let mut dropped = Vec::new();
        while let Some(pos) = self.emus.iter().position(|e| e.vm == vm) {
            let emu = self.take_emu(pos);
            host.drop_buffer_frame(vm, emu.frame);
            self.stats.cancelled += 1;
            self.latency.record(
                vm.get(),
                LatencyClass::PreventedWrite,
                now.saturating_since(emu.first_write),
            );
            self.events
                .emit_with(now, Some(vm.get()), || Event::PreventerDiscard { gfn: emu.gfn.get() });
            dropped.push(emu.gfn);
        }
        dropped
    }

    /// Merges every emulation belonging to one VM immediately. Live
    /// migration calls this before detaching the VM: a buffered write is
    /// content that exists only in this host's emulation table, so it
    /// must be promoted into the guest page before the page states are
    /// exported, or the migration would silently lose it.
    pub fn flush_vm(&mut self, host: &mut HostKernel, now: SimTime, vm: VmId) -> SimDuration {
        let mut cost = SimDuration::ZERO;
        while let Some(pos) = self.emus.iter().position(|e| e.vm == vm) {
            let emu = self.take_emu(pos);
            cost += self.merge(host, now + cost, emu, FlushCause::HostAccess);
        }
        cost
    }

    /// Merges everything immediately (end of run).
    pub fn flush_all(&mut self, host: &mut HostKernel, now: SimTime) -> SimDuration {
        let mut cost = SimDuration::ZERO;
        while let Some(emu) = self.emus.pop() {
            self.mark(emu.vm, emu.gfn, false);
            cost += self.merge(host, now + cost, emu, FlushCause::Timeout);
        }
        cost
    }

    /// Evicts the oldest emulation if the table is full.
    fn make_room(&mut self, host: &mut HostKernel, now: SimTime) -> SimDuration {
        if self.emus.len() < self.cfg.max_pages {
            return SimDuration::ZERO;
        }
        let oldest = self
            .emus
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.first_write)
            .map(|(i, _)| i)
            .expect("table is full");
        let emu = self.take_emu(oldest);
        self.merge(host, now, emu, FlushCause::Capacity)
    }

    /// Fetches the old content behind the emulated page and installs the
    /// merged result (buffered bytes win; the final page content is the
    /// emulation's latest label).
    fn merge(
        &mut self,
        host: &mut HostKernel,
        now: SimTime,
        emu: Emulation,
        cause: FlushCause,
    ) -> SimDuration {
        // Swap readahead may have mapped the page behind the emulation's
        // back; then the old bytes are already in memory and no read is
        // needed.
        let cost = if host.is_present(emu.vm, emu.gfn) {
            SimDuration::ZERO
        } else {
            host.read_backing_label(now, emu.vm, emu.gfn).1
        };
        self.install(host, now, emu.frame, emu.vm, emu.gfn, emu.label);
        self.stats.merges += 1;
        self.latency.record(
            emu.vm.get(),
            LatencyClass::PreventedWrite,
            now.saturating_since(emu.first_write),
        );
        match cause {
            FlushCause::Timeout => self.stats.timeouts += 1,
            FlushCause::Capacity => self.stats.capacity_evictions += 1,
            FlushCause::GuestRead => self.stats.read_merges += 1,
            FlushCause::HostAccess => {}
        }
        self.events.emit_with(now, Some(emu.vm.get()), || Event::PreventerFlush {
            gfn: emu.gfn.get(),
            cause,
        });
        cost
    }

    /// Installs an emulation's content as the page: by buffer promotion
    /// when the page is still non-present, or by an in-place overwrite
    /// (dropping the buffer) when something mapped it meanwhile.
    fn install(
        &mut self,
        host: &mut HostKernel,
        now: SimTime,
        frame: vswap_mem::FrameId,
        vm: VmId,
        gfn: Gfn,
        label: ContentLabel,
    ) {
        if host.is_present(vm, gfn) {
            host.drop_buffer_frame(vm, frame);
            host.overwrite_page(now, vm, gfn, label);
        } else {
            host.promote_buffer_frame(vm, gfn, frame, label);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vswap_hostos::{HostSpec, VmMmConfig};

    /// A tight host/VM pair with page 0..N swapped out.
    fn swapped_setup() -> (HostKernel, VmId) {
        let spec = HostSpec {
            dram: vswap_mem::MemBytes::from_bytes(256 * 4096),
            disk_pages: 4096,
            swap_pages: 1024,
            hypervisor_code_pages: 4,
            ..HostSpec::paper_testbed()
        };
        let mut host = HostKernel::new(spec).unwrap();
        let vm = host
            .create_vm(VmMmConfig {
                gfn_count: 192,
                image_pages: 512,
                mem_limit_pages: 64,
                mapper_enabled: false,
            })
            .unwrap();
        for g in 0..128 {
            host.guest_access(SimTime::ZERO, vm, Gfn::new(g), true);
        }
        assert!(!host.is_present(vm, Gfn::new(0)));
        (host, vm)
    }

    #[test]
    fn full_overwrite_avoids_the_read() {
        let (mut host, vm) = swapped_setup();
        let mut p = FalseReadsPreventer::new(PreventerConfig::default());
        let reads_before = host.disk_stats().swap_sectors_read;
        let label = host.fresh_label();
        assert!(p.should_intercept(&host, vm, Gfn::new(0)));
        p.on_full_overwrite(&mut host, SimTime::ZERO, vm, Gfn::new(0), label);
        assert_eq!(host.disk_stats().swap_sectors_read, reads_before, "no false read");
        assert_eq!(host.resident_label(vm, Gfn::new(0)), Some(label));
        assert_eq!(p.stats().remaps, 1);
        assert_eq!(host.stats().false_swap_reads, 0);
        host.audit().unwrap();
    }

    #[test]
    fn partial_then_full_completes_without_read() {
        let (mut host, vm) = swapped_setup();
        let mut p = FalseReadsPreventer::new(PreventerConfig::default());
        let gfn = Gfn::new(0);
        let (l1, _) = p.on_partial_write(&mut host, SimTime::ZERO, vm, gfn);
        assert!(p.is_emulating(vm, gfn));
        assert!(!l1.is_zero_page());
        let reads_before = host.disk_stats().swap_sectors_read;
        let l2 = host.fresh_label();
        p.on_full_overwrite(&mut host, SimTime::ZERO, vm, gfn, l2);
        assert!(!p.is_emulating(vm, gfn));
        assert_eq!(host.disk_stats().swap_sectors_read, reads_before);
        assert_eq!(host.resident_label(vm, gfn), Some(l2));
        assert_eq!(p.stats().remaps, 1);
        host.audit().unwrap();
    }

    #[test]
    fn guest_read_of_unbuffered_data_forces_merge() {
        let (mut host, vm) = swapped_setup();
        let mut p = FalseReadsPreventer::new(PreventerConfig::default());
        let gfn = Gfn::new(0);
        let (label, _) = p.on_partial_write(&mut host, SimTime::ZERO, vm, gfn);
        let cost = p.on_guest_read(&mut host, SimTime::ZERO, vm, gfn);
        assert!(cost.as_nanos() > 0, "the merge reads from disk");
        assert_eq!(host.resident_label(vm, gfn), Some(label));
        assert_eq!(p.stats().read_merges, 1);
        host.audit().unwrap();
    }

    #[test]
    fn timeout_expires_stale_emulations() {
        let (mut host, vm) = swapped_setup();
        let mut p = FalseReadsPreventer::new(PreventerConfig::default());
        p.on_partial_write(&mut host, SimTime::ZERO, vm, Gfn::new(0));
        // 0.5 ms: still buffered.
        let cost = p.expire(&mut host, SimTime::from_nanos(500_000));
        assert!(cost.is_zero());
        assert_eq!(p.active(), 1);
        // 1.5 ms: expired and merged.
        let cost = p.expire(&mut host, SimTime::from_nanos(1_500_000));
        assert!(cost.as_nanos() > 0);
        assert_eq!(p.active(), 0);
        assert_eq!(p.stats().timeouts, 1);
        host.audit().unwrap();
    }

    #[test]
    fn capacity_cap_evicts_oldest() {
        let (mut host, vm) = swapped_setup();
        let cfg = PreventerConfig { max_pages: 4, ..PreventerConfig::default() };
        let mut p = FalseReadsPreventer::new(cfg);
        for g in 0..4 {
            p.on_partial_write(&mut host, SimTime::from_nanos(g), vm, Gfn::new(g));
        }
        assert_eq!(p.active(), 4);
        p.on_partial_write(&mut host, SimTime::from_nanos(10), vm, Gfn::new(5));
        assert_eq!(p.active(), 4, "oldest was evicted to make room");
        assert!(!p.is_emulating(vm, Gfn::new(0)));
        assert!(p.is_emulating(vm, Gfn::new(5)));
        assert_eq!(p.stats().capacity_evictions, 1);
        host.audit().unwrap();
    }

    #[test]
    fn cancel_drops_buffer_without_promotion() {
        let (mut host, vm) = swapped_setup();
        let mut p = FalseReadsPreventer::new(PreventerConfig::default());
        let gfn = Gfn::new(0);
        p.on_partial_write(&mut host, SimTime::ZERO, vm, gfn);
        p.cancel(&mut host, SimTime::ZERO, vm, gfn);
        assert_eq!(p.active(), 0);
        assert!(!host.is_present(vm, gfn), "page stays swapped out");
        assert_eq!(p.stats().cancelled, 1);
        host.audit().unwrap();
    }

    #[test]
    fn merge_disposes_buffer_even_when_the_backing_read_dies() {
        use vswap_disk::{FaultConfig, FaultPlan};
        let (mut host, vm) = swapped_setup();
        // Every swap sector goes latent *after* the pages were swapped
        // out: the physical read behind any merge now fails permanently.
        let region = host.swap_disk_region();
        host.install_fault_plan(Some(FaultPlan::new(
            FaultConfig {
                latent_rate: 1.0,
                latent_window: Some((region.base(), region.base() + region.sectors())),
                ..FaultConfig::default()
            },
            1,
        )));
        let mut p = FalseReadsPreventer::new(PreventerConfig::default());
        let gfn = Gfn::new(0);
        let (label, _) = p.on_partial_write(&mut host, SimTime::ZERO, vm, gfn);
        let cost = p.on_guest_read(&mut host, SimTime::ZERO, vm, gfn);
        assert!(cost.as_nanos() > 0, "the dead read still wastes device time");
        assert_eq!(p.active(), 0, "the buffer was disposed, not leaked");
        assert_eq!(host.resident_label(vm, gfn), Some(label), "buffered bytes win the merge");
        assert!(host.stats().recovered_pages >= 1, "old content came from the slot record");
        assert_eq!(p.stats().read_merges, 1);
        host.audit().unwrap();

        // A host-access flush over a dead slot disposes its buffer too.
        let gfn2 = Gfn::new(1);
        p.on_partial_write(&mut host, SimTime::ZERO, vm, gfn2);
        p.flush_for_host_access(&mut host, SimTime::ZERO, vm, gfn2);
        assert_eq!(p.active(), 0);
        assert!(host.is_present(vm, gfn2));
        host.audit().unwrap();
    }

    #[test]
    fn pages_with_no_disk_backing_are_not_intercepted() {
        let (host, vm) = swapped_setup();
        let p = FalseReadsPreventer::new(PreventerConfig::default());
        // gfn 150 was never touched: Backing::None.
        assert!(!p.should_intercept(&host, vm, Gfn::new(150)));
    }

    #[test]
    fn disabled_preventer_intercepts_nothing() {
        let (host, vm) = swapped_setup();
        let p = FalseReadsPreventer::new(PreventerConfig {
            enabled: false,
            ..PreventerConfig::default()
        });
        assert!(!p.should_intercept(&host, vm, Gfn::new(0)));
    }

    #[test]
    fn flush_all_drains_table() {
        let (mut host, vm) = swapped_setup();
        let mut p = FalseReadsPreventer::new(PreventerConfig::default());
        for g in 0..3 {
            p.on_partial_write(&mut host, SimTime::ZERO, vm, Gfn::new(g));
        }
        let cost = p.flush_all(&mut host, SimTime::ZERO);
        assert!(cost.as_nanos() > 0);
        assert_eq!(p.active(), 0);
        assert_eq!(p.stats().merges, 3);
        host.audit().unwrap();
    }

    #[test]
    fn stats_render_to_stat_set() {
        let stats = PreventerStats { remaps: 3, merges: 1, ..PreventerStats::default() };
        let set = stats.to_stat_set();
        assert_eq!(set.get("preventer_remaps"), 3);
        assert_eq!(set.get("preventer_merges"), 1);
    }
}
