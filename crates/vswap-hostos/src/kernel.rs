//! The host kernel: frame allocation, reclaim, fault handling, and
//! virtual-disk I/O service.
//!
//! See the crate-level documentation for how each pathology of the paper
//! maps onto the paths in this module.

use crate::frameflags::{FrameFlags, ListClass};
use crate::image::ImageStore;
use crate::origin::OriginMap;
use crate::spec::HostSpec;
use crate::stats::HostStats;
use crate::swaparea::{set_bits, SlotInfo, SwapArea};
use sim_core::{DeterministicRng, SimDuration, SimTime};
use sim_obs::{Event, EventLog, LatencyClass, LatencyHub};
use std::error::Error;
use std::fmt;
use vswap_disk::{
    DiskLayout, DiskModel, DiskRegion, FaultPlan, IoErrorKind, IoKind, IoTag, SectorRange,
};
use vswap_hypervisor::RetryPolicy;
use vswap_mem::{
    Backing, ContentLabel, Ept, FrameId, FrameOwner, Gfn, HostFrameTable, LabelGen, ListArena,
    ListHead, VmId,
};

/// Configuration of one VM's memory-management state on the host.
#[derive(Debug, Clone, Copy)]
pub struct VmMmConfig {
    /// Size of the guest-physical address space in pages (what the guest
    /// *believes* it has).
    pub gfn_count: u64,
    /// Size of the guest's virtual-disk image in pages.
    pub image_pages: u64,
    /// Host-enforced memory limit in pages (the cgroup cap — what the
    /// guest *actually* gets before uncooperative swapping kicks in).
    pub mem_limit_pages: u64,
    /// Whether the Swap Mapper's kernel mechanisms (named guest pages,
    /// discard-instead-of-swap, image refaults, write invalidation) are
    /// active for this VM.
    pub mapper_enabled: bool,
}

/// The result of a guest memory access or page materialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Time the access took as perceived by the issuer.
    pub latency: SimDuration,
    /// True if the access took an EPT violation.
    pub faulted: bool,
    /// True if servicing the fault required disk I/O.
    pub major: bool,
    /// Content of the page after the access.
    pub label: ContentLabel,
}

/// Errors from host-kernel configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostError {
    /// The disk layout could not fit a requested region.
    DiskFull {
        /// Pages requested.
        requested: u64,
        /// Pages available.
        available: u64,
    },
    /// Host DRAM cannot hold even the fixed per-VM overheads.
    InsufficientDram,
}

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostError::DiskFull { requested, available } => {
                write!(f, "disk layout full: {requested} pages requested, {available} available")
            }
            HostError::InsufficientDram => write!(f, "insufficient host DRAM"),
        }
    }
}

impl Error for HostError {}

/// Why a page is being faulted in; decides which counter series the fault
/// lands in (Figure 9b vs 9c).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultCause {
    /// The guest CPU touched the page (EPT violation).
    Guest,
    /// Host code touched the page while servicing guest virtual I/O.
    HostIo,
}

/// One guest page's state on the migration wire, produced by
/// [`HostKernel::export_vm`] and consumed by [`HostKernel::import_vm`].
///
/// Swapped pages do not appear here: the export reads them back from the
/// host swap area (the migration driver charges that I/O) and ships them
/// as [`PageState::Anon`] content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Never materialized: nothing travels, the target zero-fills lazily.
    Untouched,
    /// Named page: an 8-byte reference into the shared disk image. The
    /// target re-establishes the block association and, if `resident`,
    /// re-reads the content from the (shared) image region.
    Named {
        /// The disk-image block holding the bytes.
        image_page: u64,
        /// Whether the page was resident at handover (non-resident named
        /// pages arrive discarded: zero target memory until refaulted).
        resident: bool,
    },
    /// Anonymous content: 4 KiB crossed the wire; arrives resident and
    /// dirty on the target.
    Anon {
        /// The content that was on the wire.
        label: ContentLabel,
    },
}

/// Everything the destination host needs to re-create a migrated VM:
/// the memory-management geometry, the (shared-storage) disk image, and
/// the per-page wire states. Produced by [`HostKernel::export_vm`].
#[derive(Debug)]
pub struct VmExport {
    /// Geometry and policy of the VM's host-side state.
    pub cfg: VmMmConfig,
    /// The virtual-disk image, moved wholesale: in a cluster the image
    /// lives on shared storage, so source and destination present the
    /// byte-identical disk (labels included — guest swap lives here too).
    pub image: ImageStore,
    /// Per-gfn wire state, indexed by guest frame number.
    pub pages: Vec<PageState>,
    /// The page-type-aware protection hint, carried across.
    pub protected_below: u64,
}

/// The result of detaching a VM from a crashed host
/// ([`HostKernel::export_vm_crashed`]): the lossy wire state plus an
/// exact accounting of what was recovered from on-disk records and what
/// perished with the host's DRAM.
#[derive(Debug)]
pub struct CrashExport {
    /// The wire state a surviving host can admit. Pages listed in
    /// `lost` are exported as [`PageState::Untouched`].
    pub export: VmExport,
    /// Guest frames whose only copy was the crashed host's DRAM; the
    /// caller must invalidate these guest-side so the guest re-faults
    /// them instead of reading stale content.
    pub lost: Vec<Gfn>,
    /// Pages recovered via Mapper block references (clean named frames
    /// and discarded associations) — no bytes needed, the shared image
    /// has them.
    pub recovered_refs: u64,
    /// Pages recovered from host swap-area slot records, which survive
    /// on the host's disk.
    pub recovered_slots: u64,
}

/// Where a guest page's content currently lives (migration's view).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageResidency {
    /// Resident and associated with a disk-image block (named): the
    /// target can re-map it from the shared image instead of receiving
    /// its bytes.
    ResidentNamed,
    /// Resident anonymous content: must be copied.
    ResidentAnon,
    /// In the host swap area: must be read and copied (baseline) — a
    /// Mapper-run host rarely has these for clean file pages.
    Swapped,
    /// Discarded named page: a block reference suffices.
    Discarded,
    /// Never materialized: nothing to send.
    Untouched,
}

/// Per-VM host-side memory-management state.
#[derive(Debug)]
struct VmMm {
    ept: Ept,
    image: ImageStore,
    image_region: DiskRegion,
    hv_binary_region: DiskRegion,
    origin: OriginMap,
    anon_lru: ListHead,
    named_lru: ListHead,
    mem_limit: u64,
    charged: u64,
    hv_code_frames: Vec<Option<FrameId>>,
    hv_code_cursor: u64,
    mapper_enabled: bool,
    /// Guest pages the hypervisor has inferred to be vital (guest kernel
    /// text, page tables, executables — §7 of the paper) and protects
    /// from eviction.
    protected_below: u64,
    /// Adaptive swap-readahead window (Linux scales VMA readahead by its
    /// hit rate; without this, speculative clusters amplify thrash by
    /// evicting hot pages to load pages nobody asked for).
    ra_window: u64,
    /// Readahead pages loaded since the last window adjustment.
    ra_loaded: u64,
    /// Of those, pages evicted untouched (wasted).
    ra_wasted: u64,
    /// Image blocks whose physical sectors failed permanently: the Mapper
    /// must never (re)associate a guest page with them. One bit per image
    /// page, bit set = quarantined.
    suspect: Vec<u64>,
}

impl VmMm {
    /// A VM with nothing resident, swapped, associated or quarantined.
    fn new(
        cfg: &VmMmConfig,
        image: ImageStore,
        image_region: DiskRegion,
        hv_binary_region: DiskRegion,
        spec: &HostSpec,
    ) -> Self {
        VmMm {
            ept: Ept::new(cfg.gfn_count),
            image,
            image_region,
            hv_binary_region,
            origin: OriginMap::new(cfg.gfn_count, cfg.image_pages),
            anon_lru: ListHead::new(),
            named_lru: ListHead::new(),
            mem_limit: cfg.mem_limit_pages,
            charged: 0,
            hv_code_frames: vec![None; spec.hypervisor_code_pages as usize],
            hv_code_cursor: 0,
            mapper_enabled: cfg.mapper_enabled,
            protected_below: 0,
            ra_window: spec.swap_readahead_pages,
            ra_loaded: 0,
            ra_wasted: 0,
            suspect: vec![0; (cfg.image_pages as usize).div_ceil(64)],
        }
    }

    fn is_suspect(&self, page: u64) -> bool {
        self.suspect[(page / 64) as usize] >> (page % 64) & 1 == 1
    }

    fn set_suspect(&mut self, page: u64) {
        self.suspect[(page / 64) as usize] |= 1 << (page % 64);
    }

    /// Quarantined image pages, ascending, walked a bitmap word at a time.
    fn suspect_pages(&self) -> impl Iterator<Item = u64> + '_ {
        set_bits(self.suspect.iter().copied())
    }
}

/// The host kernel model. See the crate docs for an overview and an
/// example.
#[derive(Debug)]
pub struct HostKernel {
    spec: HostSpec,
    frames: HostFrameTable,
    disk: DiskModel,
    layout: DiskLayout,
    swap_region: DiskRegion,
    swap: SwapArea,
    arena: ListArena,
    /// List class, second chance and readahead mark per frame.
    flags: FrameFlags,
    vms: Vec<VmMm>,
    labels: LabelGen,
    stats: HostStats,
    /// Internal randomness for proportional reclaim-list selection.
    rng: DeterministicRng,
    /// Structured event sink; disabled (free) unless attached.
    events: EventLog,
    /// Per-(vm, class) latency distributions; always on (recording a
    /// swap-path duration is a handful of integer ops per event).
    latency: LatencyHub,
    /// Retry/backoff schedule applied to failed disk requests.
    retry: RetryPolicy,
    /// Reused swap-readahead cluster scratch (slot, slot contents); taken
    /// out of `self` for the duration of a fault so the steady-state path
    /// never allocates.
    swap_cluster_scratch: Vec<(u64, SlotInfo)>,
    /// Reused image-readahead cluster scratch (image page, guest frame).
    image_cluster_scratch: Vec<(u64, Gfn)>,
    /// Reused target-frame scratch, parallel to the cluster scratch.
    frame_scratch: Vec<FrameId>,
}

impl HostKernel {
    /// Creates a host with the given hardware/policy parameters.
    ///
    /// # Errors
    ///
    /// Returns [`HostError::DiskFull`] if the swap area does not fit on
    /// the disk.
    pub fn new(spec: HostSpec) -> Result<Self, HostError> {
        let mut layout = DiskLayout::new(spec.disk_pages);
        let swap_region = layout.alloc_region("host-swap", spec.swap_pages).map_err(|_| {
            HostError::DiskFull { requested: spec.swap_pages, available: spec.disk_pages }
        })?;
        let dram_pages = spec.dram.pages();
        Ok(HostKernel {
            frames: HostFrameTable::new(dram_pages),
            disk: DiskModel::with_queue_depth(spec.disk, spec.disk_queue_depth),
            layout,
            swap_region,
            swap: SwapArea::new(spec.swap_pages),
            arena: ListArena::with_capacity(dram_pages as usize),
            flags: FrameFlags::new(dram_pages),
            vms: Vec::new(),
            labels: LabelGen::new(),
            stats: HostStats::new(),
            rng: DeterministicRng::seed_from(0x4051_beef),
            events: EventLog::disabled(),
            latency: LatencyHub::new(),
            retry: RetryPolicy::paper_default(),
            swap_cluster_scratch: Vec::new(),
            image_cluster_scratch: Vec::new(),
            frame_scratch: Vec::new(),
            spec,
        })
    }

    /// Moves this host's label generator into a disjoint namespace (see
    /// [`LabelGen::with_namespace`]). In a cluster every host must mint
    /// from its own namespace so content labels can migrate between hosts
    /// without colliding with labels the destination minted itself.
    ///
    /// # Panics
    ///
    /// Panics if any VM was already created (its image labels would have
    /// been minted from the old namespace).
    pub fn set_label_namespace(&mut self, namespace: u32) {
        assert!(self.vms.is_empty(), "set the label namespace before creating VMs");
        self.labels = LabelGen::with_namespace(namespace);
    }

    /// Attaches a structured event log. The host forwards a clone to its
    /// disk model so the whole host-side stack shares one causal stream.
    pub fn set_event_log(&mut self, events: EventLog) {
        self.disk.set_event_log(events.clone());
        self.events = events;
    }

    /// Shares a latency book so the host's swap-path durations land in
    /// the same per-(vm, class) histograms as the rest of the machine.
    pub fn set_latency_hub(&mut self, latency: LatencyHub) {
        self.latency = latency;
    }

    /// Installs (or clears) a deterministic fault plan on the physical
    /// disk. With no plan — the default — no request ever fails.
    pub fn install_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.disk.set_fault_plan(plan);
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.disk.fault_plan()
    }

    /// Replaces the retry/backoff schedule for failed disk requests.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// The retry/backoff schedule in force.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Registers a VM with the host, carving its disk-image and hypervisor
    /// binary regions out of the physical disk and pre-faulting the
    /// hypervisor's hot code pages.
    ///
    /// # Errors
    ///
    /// Returns [`HostError::DiskFull`] if the image does not fit on disk,
    /// or [`HostError::InsufficientDram`] if DRAM cannot hold the
    /// hypervisor code pages.
    pub fn create_vm(&mut self, cfg: VmMmConfig) -> Result<VmId, HostError> {
        let (image_region, hv_binary_region) = self.alloc_vm_regions(cfg.image_pages)?;
        let vm = VmId::new(self.vms.len() as u32);
        let image = ImageStore::new(cfg.image_pages, &mut self.labels);
        self.vms.push(VmMm::new(&cfg, image, image_region, hv_binary_region, &self.spec));
        // Pre-fault the hypervisor's hot code (the QEMU process is running).
        let mut t = SimTime::ZERO;
        self.prefault_hv_code(&mut t, vm)?;
        Ok(vm)
    }

    /// Carves a VM's disk-image and hypervisor-binary regions out of the
    /// physical disk.
    fn alloc_vm_regions(
        &mut self,
        image_pages: u64,
    ) -> Result<(DiskRegion, DiskRegion), HostError> {
        let full = |requested, layout: &DiskLayout| HostError::DiskFull {
            requested,
            available: layout.free_pages(),
        };
        let image_region = self
            .layout
            .alloc_region("guest-image", image_pages)
            .map_err(|_| full(image_pages, &self.layout))?;
        let hv_pages = self.spec.hypervisor_code_pages;
        let hv_binary_region = self
            .layout
            .alloc_region("hypervisor-binary", hv_pages)
            .map_err(|_| full(hv_pages, &self.layout))?;
        Ok((image_region, hv_binary_region))
    }

    /// Faults in every hypervisor code page of a newly attached VM.
    fn prefault_hv_code(&mut self, t: &mut SimTime, vm: VmId) -> Result<(), HostError> {
        for page in 0..self.spec.hypervisor_code_pages {
            let frame = self
                .alloc_frame(t, vm, FrameOwner::HypervisorCode { vm, page })
                .ok_or(HostError::InsufficientDram)?;
            self.vms[vm.index()].hv_code_frames[page as usize] = Some(frame);
            self.list_push(vm, frame, true);
            self.frames.set_accessed(frame, true);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Host hardware/policy parameters.
    pub fn spec(&self) -> &HostSpec {
        &self.spec
    }

    /// Cumulative host-kernel counters.
    pub fn stats(&self) -> &HostStats {
        &self.stats
    }

    /// Cumulative disk counters.
    pub fn disk_stats(&self) -> &vswap_disk::DiskStats {
        self.disk.stats()
    }

    /// The host swap area.
    pub fn swap(&self) -> &SwapArea {
        &self.swap
    }

    /// The physical-disk region backing the host swap area — lets fault
    /// plans aim a latent window at exactly the swap sectors.
    pub fn swap_disk_region(&self) -> DiskRegion {
        self.swap_region
    }

    /// Number of free host frames.
    pub fn free_frames(&self) -> u64 {
        self.frames.free_frames()
    }

    /// Frames currently charged to the VM (its cgroup usage).
    pub fn charged(&self, vm: VmId) -> u64 {
        self.vms[vm.index()].charged
    }

    /// The VM's host-enforced memory limit in pages.
    pub fn mem_limit(&self, vm: VmId) -> u64 {
        self.vms[vm.index()].mem_limit
    }

    /// Adjusts the VM's memory limit (cgroup resize). Excess is reclaimed
    /// lazily by subsequent allocations.
    pub fn set_mem_limit(&mut self, vm: VmId, pages: u64) {
        self.vms[vm.index()].mem_limit = pages;
    }

    /// Number of resident (EPT-present) guest pages of the VM.
    pub fn resident_pages(&self, vm: VmId) -> u64 {
        self.vms[vm.index()].ept.resident_pages()
    }

    /// Number of live page↔block associations for the VM (the Mapper's
    /// tracked-page count, Figure 15).
    pub fn origin_len(&self, vm: VmId) -> u64 {
        self.vms[vm.index()].origin.len() as u64
    }

    /// Content currently stored at `page` of the VM's disk image.
    pub fn image_label(&self, vm: VmId, page: u64) -> ContentLabel {
        self.vms[vm.index()].image.label(page)
    }

    /// Size of the VM's disk image in pages.
    pub fn image_pages(&self, vm: VmId) -> u64 {
        self.vms[vm.index()].image.pages()
    }

    /// True if the guest page is EPT-present.
    pub fn is_present(&self, vm: VmId, gfn: Gfn) -> bool {
        self.vms[vm.index()].ept.translate(gfn).is_some()
    }

    /// The backing of a non-present guest page (`None` if present).
    pub fn backing(&self, vm: VmId, gfn: Gfn) -> Option<Backing> {
        self.vms[vm.index()].ept.backing(gfn)
    }

    /// Content label of a resident guest page (`None` if non-present).
    pub fn resident_label(&self, vm: VmId, gfn: Gfn) -> Option<ContentLabel> {
        self.vms[vm.index()].ept.translate(gfn).map(|f| self.frames.label(f))
    }

    /// Hints that guest pages below `gfn_limit` are vital (kernel text,
    /// page tables) and should not be paged out — the page-type-aware
    /// policy the paper sketches as future work (§7: "since OSes tend not
    /// to page out the OS kernel, page tables, and executables, the
    /// hypervisor may be able to improve guest performance by adapting a
    /// similar policy"). In this model the hint is supplied externally
    /// (the simulator knows the guest layout); the paper discusses
    /// inferring it from fault monitoring or added hardware usage bits.
    pub fn hint_protect_low_gfns(&mut self, vm: VmId, gfn_limit: u64) {
        self.vms[vm.index()].protected_below = gfn_limit;
    }

    /// The content signature of a guest page wherever it currently lives:
    /// the resident frame, the host swap slot, or the disk-image block of
    /// a discarded named page. `None` for never-materialized pages (zero
    /// content). Used by live migration to detect pages dirtied between
    /// pre-copy rounds.
    pub fn page_signature(&self, vm: VmId, gfn: Gfn) -> Option<ContentLabel> {
        let mm = &self.vms[vm.index()];
        match mm.ept.translate(gfn) {
            Some(frame) => Some(self.frames.label(frame)),
            None => match mm.ept.backing(gfn).expect("non-present") {
                Backing::None => None,
                Backing::SwapSlot(slot) => Some(self.swap.get(slot).expect("occupied").label),
                Backing::ImagePage(page) => Some(mm.image.label(page)),
            },
        }
    }

    /// Where a guest page's content can be fetched from for migration:
    /// a resident frame (memory copy), the host swap area (disk read), a
    /// disk-image block (reference suffices if the target shares the
    /// image), or nowhere (zero page).
    pub fn page_residency(&self, vm: VmId, gfn: Gfn) -> PageResidency {
        let mm = &self.vms[vm.index()];
        match mm.ept.translate(gfn) {
            Some(_) => {
                if mm.origin.page_for_gfn(gfn).is_some() && mm.mapper_enabled {
                    PageResidency::ResidentNamed
                } else {
                    PageResidency::ResidentAnon
                }
            }
            None => match mm.ept.backing(gfn).expect("non-present") {
                Backing::None => PageResidency::Untouched,
                Backing::SwapSlot(_) => PageResidency::Swapped,
                Backing::ImagePage(_) => PageResidency::Discarded,
            },
        }
    }

    /// Reads a swapped page's content for migration (a host swap-area
    /// read, charged to the migration thread). Returns the I/O cost.
    ///
    /// # Panics
    ///
    /// Panics if the page is not swap-backed.
    pub fn migration_read_swapped(&mut self, now: SimTime, vm: VmId, gfn: Gfn) -> SimDuration {
        let Some(Backing::SwapSlot(slot)) = self.vms[vm.index()].ept.backing(gfn) else {
            panic!("page is not swap-backed");
        };
        let range = self.swap_region.page_range(slot);
        let mut t = now;
        if self.disk_io_failed(&mut t, vm, IoKind::Read, range, IoTag::HostSwap) {
            // The physical sectors are unreadable, but the logical
            // content (the slot record) survives: serve it degraded.
            self.stats.recovered_pages += 1;
        }
        t - now
    }

    /// Draws a fresh, never-before-seen content label (guest writes).
    pub fn fresh_label(&mut self) -> ContentLabel {
        self.labels.fresh()
    }

    /// Image blocks of the VM currently quarantined from Mapper use.
    pub fn suspect_blocks(&self, vm: VmId) -> u64 {
        self.vms[vm.index()].suspect_pages().count() as u64
    }

    /// Disk pages still unallocated in the layout — whether this host can
    /// carve the image and hypervisor-binary regions of an arriving VM.
    pub fn disk_free_pages(&self) -> u64 {
        self.layout.free_pages()
    }

    // ------------------------------------------------------------------
    // Live-migration handoff (cluster mode)
    // ------------------------------------------------------------------

    /// Detaches a VM for live migration: captures every guest page's wire
    /// state, moves the (shared-storage) disk image out, and releases all
    /// host-side resources the VM held — frames, swap slots, block
    /// associations, hypervisor code pages. The `VmId` remains allocated
    /// but vacated (IDs are never reused), and the VM's disk regions stay
    /// carved out of the layout, as a shared-storage image would.
    ///
    /// Swapped pages are exported as anonymous content; the caller models
    /// the swap readback I/O (see
    /// [`HostKernel::migration_read_swapped`]).
    pub fn export_vm(&mut self, vm: VmId) -> VmExport {
        let gfn_count = self.vms[vm.index()].ept.gfn_count();
        let mut pages = Vec::with_capacity(gfn_count as usize);
        for g in 0..gfn_count {
            let gfn = Gfn::new(g);
            let mm = &self.vms[vm.index()];
            let state = match mm.ept.translate(gfn) {
                Some(frame) => match mm.origin.page_for_gfn(gfn) {
                    Some(page) if mm.mapper_enabled && !self.frames.dirty(frame) => {
                        PageState::Named { image_page: page, resident: true }
                    }
                    _ => PageState::Anon { label: self.frames.label(frame) },
                },
                None => match mm.ept.backing(gfn).expect("non-present") {
                    Backing::None => PageState::Untouched,
                    Backing::SwapSlot(slot) => {
                        PageState::Anon { label: self.swap.get(slot).expect("occupied slot").label }
                    }
                    Backing::ImagePage(page) => {
                        PageState::Named { image_page: page, resident: false }
                    }
                },
            };
            pages.push(state);
        }
        let cfg = VmMmConfig {
            gfn_count,
            image_pages: self.vms[vm.index()].image.pages(),
            mem_limit_pages: self.vms[vm.index()].mem_limit,
            mapper_enabled: self.vms[vm.index()].mapper_enabled,
        };
        let protected_below = self.vms[vm.index()].protected_below;
        let image = self.release_vm(vm);
        VmExport { cfg, image, pages, protected_below }
    }

    /// Detaches a VM from a *crashed* host. Unlike [`HostKernel::export_vm`]
    /// the host's DRAM is gone, so only state with an on-disk record
    /// survives: Mapper block references (clean named pages), discarded
    /// associations, and swap-slot records are replayed into the wire
    /// state; every resident page whose sole copy was DRAM — dirty
    /// frames, unassociated anonymous content, and *all* resident pages
    /// on a Mapper-less host — is exported as untouched and listed in
    /// `lost`, so the caller can invalidate it guest-side and the guest
    /// re-faults it. Nothing is ever silently dropped: a page is either
    /// recovered or reported lost.
    pub fn export_vm_crashed(&mut self, vm: VmId) -> CrashExport {
        let gfn_count = self.vms[vm.index()].ept.gfn_count();
        let mut pages = Vec::with_capacity(gfn_count as usize);
        let mut lost = Vec::new();
        let mut recovered_refs = 0u64;
        let mut recovered_slots = 0u64;
        for g in 0..gfn_count {
            let gfn = Gfn::new(g);
            let mm = &self.vms[vm.index()];
            let state = match mm.ept.translate(gfn) {
                Some(frame) => match mm.origin.page_for_gfn(gfn) {
                    Some(page) if mm.mapper_enabled && !self.frames.dirty(frame) => {
                        // The block reference survives on shared storage.
                        recovered_refs += 1;
                        PageState::Named { image_page: page, resident: false }
                    }
                    _ => {
                        // The only copy was the crashed host's DRAM.
                        lost.push(gfn);
                        PageState::Untouched
                    }
                },
                None => match mm.ept.backing(gfn).expect("non-present") {
                    Backing::None => PageState::Untouched,
                    Backing::SwapSlot(slot) => {
                        // The slot record survives on the host's disk.
                        recovered_slots += 1;
                        PageState::Anon { label: self.swap.get(slot).expect("occupied slot").label }
                    }
                    Backing::ImagePage(page) => {
                        recovered_refs += 1;
                        PageState::Named { image_page: page, resident: false }
                    }
                },
            };
            pages.push(state);
        }
        let cfg = VmMmConfig {
            gfn_count,
            image_pages: self.vms[vm.index()].image.pages(),
            mem_limit_pages: self.vms[vm.index()].mem_limit,
            mapper_enabled: self.vms[vm.index()].mapper_enabled,
        };
        let protected_below = self.vms[vm.index()].protected_below;
        let image = self.release_vm(vm);
        CrashExport {
            export: VmExport { cfg, image, pages, protected_below },
            lost,
            recovered_refs,
            recovered_slots,
        }
    }

    /// Frees every host resource a VM holds and vacates its slot,
    /// returning the disk image. After this the VM owns no frames, no
    /// swap slots, and no associations; `charged` is zero and
    /// [`HostKernel::audit`] holds.
    fn release_vm(&mut self, vm: VmId) -> ImageStore {
        // Free every frame the VM owns, whatever its role.
        let owned: Vec<(FrameId, FrameOwner)> = self
            .frames
            .iter_allocated()
            .filter(|(_, o)| {
                matches!(o,
                    FrameOwner::Guest { vm: v, .. }
                    | FrameOwner::HypervisorCode { vm: v, .. }
                    | FrameOwner::PageCache { vm: v, .. }
                    | FrameOwner::WriteBuffer { vm: v, .. } if *v == vm)
            })
            .collect();
        for (frame, owner) in owned {
            debug_assert!(
                !matches!(owner, FrameOwner::WriteBuffer { .. }),
                "flush the Preventer before exporting a VM"
            );
            self.list_remove(vm, frame);
            self.flags.clear(frame);
            self.frames.free(frame);
            self.vms[vm.index()].charged -= 1;
        }
        // Free the VM's swap slots.
        let slots: Vec<u64> =
            self.swap.iter_occupied().filter(|(_, info)| info.vm == vm).map(|(s, _)| s).collect();
        for slot in slots {
            self.swap.free(slot);
        }
        // Vacate the per-VM state: an empty address space, an empty
        // image, no associations. The slot itself stays (IDs are stable).
        let mm = &mut self.vms[vm.index()];
        debug_assert_eq!(mm.charged, 0, "all charged frames were freed");
        mm.ept = Ept::new(0);
        mm.origin = OriginMap::new(0, 0);
        mm.anon_lru = ListHead::new();
        mm.named_lru = ListHead::new();
        mm.mem_limit = 0;
        mm.protected_below = 0;
        mm.hv_code_frames.iter_mut().for_each(|f| *f = None);
        mm.suspect.clear();
        let mut empty_gen = LabelGen::new();
        std::mem::replace(&mut mm.image, ImageStore::new(0, &mut empty_gen))
    }

    /// Attaches a migrated-in VM: carves fresh disk regions, installs the
    /// shared-storage image, re-establishes every page from its wire
    /// state, and pre-faults the hypervisor's code pages. Anonymous
    /// content arrives resident and dirty; named pages land *discarded*
    /// (association only — the §7 optimization: the target never
    /// requests pages it can re-map from shared storage) and refault on
    /// demand. Arrival allocations run the normal reclaim path, so
    /// importing onto a pressured host swaps exactly as a real
    /// stop-and-copy landing would. Returns the new VM's id and the time
    /// the installation took.
    ///
    /// # Errors
    ///
    /// Returns [`HostError::DiskFull`] if the image or hypervisor-binary
    /// region does not fit, or [`HostError::InsufficientDram`] if DRAM
    /// cannot hold the hypervisor code pages.
    pub fn import_vm(
        &mut self,
        now: SimTime,
        export: VmExport,
    ) -> Result<(VmId, SimDuration), HostError> {
        let VmExport { cfg, image, pages, protected_below } = export;
        assert_eq!(image.pages(), cfg.image_pages, "image must match its geometry");
        assert_eq!(pages.len() as u64, cfg.gfn_count, "one wire state per gfn");
        let (image_region, hv_binary_region) = self.alloc_vm_regions(cfg.image_pages)?;
        let vm = VmId::new(self.vms.len() as u32);
        let mut mm = VmMm::new(&cfg, image, image_region, hv_binary_region, &self.spec);
        mm.protected_below = protected_below;
        self.vms.push(mm);
        let mut t = now;
        // The hypervisor process starts on the target first.
        self.prefault_hv_code(&mut t, vm)?;
        // Install the guest pages from their wire state.
        for (g, &state) in pages.iter().enumerate() {
            let gfn = Gfn::new(g as u64);
            match state {
                PageState::Untouched => {}
                PageState::Named { image_page, resident: _ } => {
                    if self.vms[vm.index()].mapper_enabled {
                        // §7: the target avoids requesting pages it can
                        // re-map from shared storage. Named pages land
                        // *discarded* — zero target memory on arrival —
                        // and refault on demand with image readahead.
                        self.vms[vm.index()].origin.associate(gfn, image_page);
                        self.vms[vm.index()].ept.set_backing(gfn, Backing::ImagePage(image_page));
                    } else {
                        // Without the Mapper the target cannot hold a
                        // block association: the page lands as plain
                        // anonymous content.
                        let frame = self
                            .alloc_frame(&mut t, vm, FrameOwner::Guest { vm, gfn })
                            .expect("reclaim guarantees progress");
                        let label = self.vms[vm.index()].image.label(image_page);
                        self.frames.set_label(frame, label);
                        self.frames.set_dirty(frame, true);
                        self.vms[vm.index()].ept.map(gfn, frame);
                        self.list_push(vm, frame, false);
                    }
                }
                PageState::Anon { label } => {
                    let frame = self
                        .alloc_frame(&mut t, vm, FrameOwner::Guest { vm, gfn })
                        .expect("reclaim guarantees progress");
                    self.frames.set_label(frame, label);
                    // The content exists nowhere on this host's disk:
                    // dirty, so reclaim must swap (never discard) it.
                    self.frames.set_dirty(frame, true);
                    self.vms[vm.index()].ept.map(gfn, frame);
                    self.list_push(vm, frame, false);
                }
            }
        }
        Ok((vm, t - now))
    }

    // ------------------------------------------------------------------
    // Fallible disk I/O: retry, backoff, and graceful degradation
    // ------------------------------------------------------------------

    /// Submits a foreground request with bounded retries and exponential
    /// backoff in simulated time. On success `t` lands on the completion
    /// instant; on permanent failure `t` has absorbed every wasted
    /// attempt and pause, and `true` is returned so the caller can take
    /// its degradation path.
    fn disk_io_failed(
        &mut self,
        t: &mut SimTime,
        vm: VmId,
        kind: IoKind,
        range: SectorRange,
        tag: IoTag,
    ) -> bool {
        let start = *t;
        let mut attempt = 0u32;
        let failed = loop {
            match self.disk.submit_attempt(*t, kind, range, tag, attempt) {
                Ok(io) => {
                    *t = io.finished;
                    break false;
                }
                Err(err) => {
                    *t += err.wasted;
                    attempt += 1;
                    if !err.is_retryable() || !self.retry.should_retry(attempt, *t - start) {
                        break true;
                    }
                    let backoff = self.retry.backoff(attempt - 1);
                    self.stats.io_retries += 1;
                    self.events.emit_with(*t, None, || Event::IoRetry { attempt, backoff });
                    *t += backoff;
                }
            }
        };
        if attempt > 0 {
            self.latency.record(vm.get(), LatencyClass::RetriedIo, *t - start);
        }
        failed
    }

    /// True if any sector of the range is permanently bad under the
    /// installed fault plan.
    fn range_has_latent(&self, range: SectorRange) -> bool {
        match self.disk.fault_plan() {
            Some(plan) => (range.start()..range.end()).any(|s| plan.latent_bad(s)),
            None => false,
        }
    }

    /// An image-span request failed permanently: pages whose physical
    /// blocks are latent-bad are quarantined from future Mapper use.
    /// Callers on read paths additionally count the span as recovered
    /// (served from the logical image).
    fn degrade_image_span(&mut self, t: &mut SimTime, vm: VmId, image_page: u64, count: u64) {
        for p in image_page..image_page + count {
            let range = self.vms[vm.index()].image_region.page_range(p);
            if self.range_has_latent(range) {
                self.mark_block_suspect(t, vm, p);
            }
        }
    }

    /// Quarantines an image block whose physical sectors proved bad: no
    /// future association may target it, and any existing association is
    /// dissolved — the held page degrades to anonymous, its content
    /// recovered from the logical image where needed. Idempotent.
    fn mark_block_suspect(&mut self, t: &mut SimTime, vm: VmId, page: u64) {
        if self.vms[vm.index()].is_suspect(page) {
            return;
        }
        self.vms[vm.index()].set_suspect(page);
        let Some(gfn) = self.vms[vm.index()].origin.gfn_for_page(page) else {
            return;
        };
        self.stats.fault_invalidations += 1;
        self.stats.degraded_pages += 1;
        self.events.emit_with(*t, Some(vm.get()), || Event::MapperDegraded {
            gfn: gfn.get(),
            image_page: page,
        });
        match self.vms[vm.index()].ept.translate(gfn) {
            Some(frame) => {
                // Resident named page: the frame already holds the bytes;
                // just stop trusting the block.
                self.vms[vm.index()].origin.dissociate_gfn(gfn);
                self.list_move(vm, frame, false);
            }
            None if self.vms[vm.index()].ept.backing(gfn) == Some(Backing::ImagePage(page)) => {
                // Discarded named page: its only physical copy just went
                // bad. Materialize it from the logical image before the
                // association dies; it lives on as an anonymous page.
                self.vms[vm.index()].origin.dissociate_gfn(gfn);
                self.vms[vm.index()].ept.set_backing(gfn, Backing::None);
                let frame = self
                    .alloc_frame(t, vm, FrameOwner::Guest { vm, gfn })
                    .expect("reclaim guarantees progress");
                let label = self.vms[vm.index()].image.label(page);
                self.frames.set_label(frame, label);
                self.frames.set_dirty(frame, false);
                self.vms[vm.index()].ept.map(gfn, frame);
                self.list_push(vm, frame, false);
                self.stats.recovered_pages += 1;
            }
            None => {
                // Swapped or untouched: the association is bookkeeping
                // only; drop it.
                self.vms[vm.index()].origin.dissociate_gfn(gfn);
            }
        }
    }

    // ------------------------------------------------------------------
    // Guest memory access (EPT path)
    // ------------------------------------------------------------------

    /// A guest CPU access to `gfn`. Handles EPT violations: zero-fill,
    /// swap-in with readahead, or (Mapper) image refault with readahead.
    /// Writes dirty the page, breaking any page↔block association (a COW
    /// break when the Mapper had the page named).
    pub fn guest_access(&mut self, now: SimTime, vm: VmId, gfn: Gfn, write: bool) -> AccessOutcome {
        let mut t = now;
        let (faulted, major) = if self.vms[vm.index()].ept.translate(gfn).is_some() {
            (false, false)
        } else {
            // The fault is the root span: every swap-in, disk request,
            // and retry it triggers parents (transitively) under it.
            let span = self.events.open_span(now);
            let major = self.fault_in(&mut t, vm, gfn, FaultCause::Guest);
            self.events.close_span_with(span, Some(vm.get()), || Event::PageFault {
                gfn: gfn.get(),
                write,
                major,
            });
            (true, major)
        };
        let frame = self.vms[vm.index()].ept.translate(gfn).expect("faulted in");
        self.frames.set_accessed(frame, true);
        self.flags.set_prefetched(frame, false);
        if write {
            self.guest_write_present(&mut t, vm, gfn, frame, None);
        }
        AccessOutcome { latency: t - now, faulted, major, label: self.frames.label(frame) }
    }

    /// A guest full-page overwrite (page zeroing, COW copy, page
    /// migration) with known new content, **without** the False Reads
    /// Preventer: if the page is swapped out its old content is read in
    /// first, only to be discarded — a *false swap read*.
    pub fn overwrite_page(
        &mut self,
        now: SimTime,
        vm: VmId,
        gfn: Gfn,
        label: ContentLabel,
    ) -> AccessOutcome {
        let mut t = now;
        let (faulted, major) = if self.vms[vm.index()].ept.translate(gfn).is_some() {
            (false, false)
        } else {
            let was_on_disk = matches!(
                self.vms[vm.index()].ept.backing(gfn),
                Some(Backing::SwapSlot(_)) | Some(Backing::ImagePage(_))
            );
            let span = self.events.open_span(now);
            let major = self.fault_in(&mut t, vm, gfn, FaultCause::Guest);
            self.events.close_span_with(span, Some(vm.get()), || Event::PageFault {
                gfn: gfn.get(),
                write: true,
                major,
            });
            if was_on_disk {
                self.stats.false_swap_reads += 1;
            }
            (true, major)
        };
        let frame = self.vms[vm.index()].ept.translate(gfn).expect("faulted in");
        self.frames.set_accessed(frame, true);
        self.guest_write_present(&mut t, vm, gfn, frame, Some(label));
        AccessOutcome { latency: t - now, faulted, major, label }
    }

    /// Marks a resident page dirty with new content; breaks any named
    /// association (COW). `label` of `None` draws a fresh label.
    fn guest_write_present(
        &mut self,
        t: &mut SimTime,
        vm: VmId,
        gfn: Gfn,
        frame: FrameId,
        label: Option<ContentLabel>,
    ) {
        let mapper = self.vms[vm.index()].mapper_enabled;
        if self.vms[vm.index()].origin.dissociate_gfn(gfn).is_some() && mapper {
            // The paper: a store to a privately-mapped named page COWs it
            // and makes it anonymous (§4.1), costing an exit.
            self.stats.cow_breaks += 1;
            *t += self.spec.cow_break_overhead;
            self.list_move(vm, frame, false);
            self.events.emit_with(*t, Some(vm.get()), || Event::MapperUnname { gfn: gfn.get() });
        }
        let label = label.unwrap_or_else(|| self.labels.fresh());
        self.frames.set_label(frame, label);
        self.frames.set_dirty(frame, true);
    }

    // ------------------------------------------------------------------
    // Virtual disk I/O service (the QEMU emulation path)
    // ------------------------------------------------------------------

    /// Services a guest virtual-disk **read** of `count` image pages
    /// starting at `image_page` into `dest_gfns`, the baseline way: QEMU
    /// `read()`s into the guest buffer, so swapped-out destinations are
    /// faulted in first (stale swap reads) and the filled pages stay
    /// classified anonymous.
    ///
    /// # Panics
    ///
    /// Panics if `dest_gfns.len() != count` or the range exceeds the
    /// image.
    pub fn virt_disk_read(
        &mut self,
        now: SimTime,
        vm: VmId,
        image_page: u64,
        dest_gfns: &[Gfn],
    ) -> SimDuration {
        let count = dest_gfns.len() as u64;
        assert!(image_page + count <= self.vms[vm.index()].image.pages(), "read exceeds image");
        let mut t = now;
        self.stats.virtual_io_requests += 1;
        t += self.spec.virtual_io_overhead;
        self.hv_touch(&mut t, vm, self.spec.hypervisor_code_touch_per_io);

        // Fault in destination buffers (the stale-read pathology).
        for &gfn in dest_gfns {
            if self.vms[vm.index()].ept.translate(gfn).is_none() {
                let swapped =
                    matches!(self.vms[vm.index()].ept.backing(gfn), Some(Backing::SwapSlot(_)));
                self.fault_in(&mut t, vm, gfn, FaultCause::HostIo);
                if swapped {
                    self.stats.stale_swap_reads += 1;
                }
            }
        }

        // The physical read of the image blocks.
        let range = self.vms[vm.index()].image_region.page_span(image_page, count);
        if self.disk_io_failed(&mut t, vm, IoKind::Read, range, IoTag::GuestImage) {
            self.stats.recovered_pages += count;
            self.degrade_image_span(&mut t, vm, image_page, count);
        }

        // DMA fills the destination pages with image content.
        for (i, &gfn) in dest_gfns.iter().enumerate() {
            let page = image_page + i as u64;
            // Reclaim pressure from faulting a later buffer may have
            // evicted an earlier one mid-request; fault it back.
            if self.vms[vm.index()].ept.translate(gfn).is_none() {
                self.fault_in(&mut t, vm, gfn, FaultCause::HostIo);
            }
            // Unhook only after the fault above: its reclaim pressure
            // could have discarded the block's current holder.
            self.unhook_stale_block_association(vm, gfn, page);
            let frame = self.vms[vm.index()].ept.translate(gfn).expect("present");
            let label = self.vms[vm.index()].image.label(page);
            self.frames.set_label(frame, label);
            self.frames.set_dirty(frame, false);
            self.frames.set_accessed(frame, true);
            if self.vms[vm.index()].mapper_enabled || self.vms[vm.index()].is_suspect(page) {
                // The Mapper's *unaligned fallback* path (the request
                // cannot be tracked) — and quarantined blocks are never
                // tracked either.
                self.vms[vm.index()].origin.dissociate_gfn(gfn);
            } else {
                // Track the origin for silent-write classification; the
                // baseline never acts on it.
                self.vms[vm.index()].origin.associate(gfn, page);
            }
            // Baseline keeps the page anonymous; only the Mapper names it.
            self.list_move(vm, frame, false);
        }
        t - now
    }

    /// Services a guest virtual-disk **read** the Swap Mapper way (§4.1
    /// "Guest I/O Flow"): destinations are *re-mapped*, not faulted — a
    /// swapped-out destination's old content is simply discarded — and the
    /// filled pages become named, clean, file-backed pages.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the image.
    pub fn virt_disk_read_mapped(
        &mut self,
        now: SimTime,
        vm: VmId,
        image_page: u64,
        dest_gfns: &[Gfn],
    ) -> SimDuration {
        let count = dest_gfns.len() as u64;
        assert!(image_page + count <= self.vms[vm.index()].image.pages(), "read exceeds image");
        let mut t = now;
        self.stats.virtual_io_requests += 1;
        t += self.spec.virtual_io_overhead;
        self.hv_touch(&mut t, vm, self.spec.hypervisor_code_touch_per_io);

        // readahead(2) + mmap(MAP_POPULATE | MAP_NOCOW): one streaming read,
        // plus the per-page mapping overhead of the mmap path (§5.3).
        let range = self.vms[vm.index()].image_region.page_span(image_page, count);
        if self.disk_io_failed(&mut t, vm, IoKind::Read, range, IoTag::GuestImage) {
            self.stats.recovered_pages += count;
            self.degrade_image_span(&mut t, vm, image_page, count);
        }
        t += self.spec.mmap_page_overhead * count;

        for (i, &gfn) in dest_gfns.iter().enumerate() {
            let page = image_page + i as u64;
            // Discard whatever backed the destination before: no stale read.
            let frame = match self.vms[vm.index()].ept.translate(gfn) {
                Some(frame) => frame,
                None => {
                    if let Some(Backing::SwapSlot(slot)) = self.vms[vm.index()].ept.backing(gfn) {
                        self.swap.free(slot);
                    }
                    self.vms[vm.index()].ept.set_backing(gfn, Backing::None);
                    let frame = self
                        .alloc_frame(&mut t, vm, FrameOwner::Guest { vm, gfn })
                        .expect("reclaim guarantees progress");
                    self.vms[vm.index()].ept.map(gfn, frame);
                    self.list_push(vm, frame, false);
                    frame
                }
            };
            let label = self.vms[vm.index()].image.label(page);
            self.frames.set_label(frame, label);
            self.frames.set_dirty(frame, false);
            self.frames.set_accessed(frame, true);
            // Unhook only after the allocation above: its reclaim
            // pressure could have discarded the block's current holder.
            self.unhook_stale_block_association(vm, gfn, page);
            if self.vms[vm.index()].is_suspect(page) {
                // The block cannot be trusted to serve a refault: keep
                // the page anonymous (degraded) instead of naming it.
                self.vms[vm.index()].origin.dissociate_gfn(gfn);
                self.list_move(vm, frame, false);
                self.stats.degraded_pages += 1;
                self.events.emit_with(t, Some(vm.get()), || Event::MapperDegraded {
                    gfn: gfn.get(),
                    image_page: page,
                });
            } else {
                self.vms[vm.index()].origin.associate(gfn, page);
                self.list_move(vm, frame, true);
            }
        }
        t - now
    }

    /// Services a guest virtual-disk **write** of `src_gfns` to `count`
    /// image pages starting at `image_page`. Handles the Mapper's
    /// data-consistency protocol: if a written block is mapped by some
    /// *other* swapped-out named page, that page's old content is faulted
    /// in before the block is overwritten (§4.1 "Data Consistency").
    /// After the write, the source pages are associated with the written
    /// blocks (write-then-map), becoming named if the Mapper is on.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the image.
    /// `mappable` is false for requests not aligned to 4 KiB (§4.1 "Page
    /// Alignment"): the Mapper cannot keep an association for those.
    pub fn virt_disk_write(
        &mut self,
        now: SimTime,
        vm: VmId,
        src_gfns: &[Gfn],
        image_page: u64,
        mappable: bool,
    ) -> SimDuration {
        let count = src_gfns.len() as u64;
        assert!(image_page + count <= self.vms[vm.index()].image.pages(), "write exceeds image");
        let mut t = now;
        self.stats.virtual_io_requests += 1;
        t += self.spec.virtual_io_overhead;
        self.hv_touch(&mut t, vm, self.spec.hypervisor_code_touch_per_io);

        for (i, &gfn) in src_gfns.iter().enumerate() {
            let page = image_page + i as u64;

            // The source content must be resident to be written out.
            if self.vms[vm.index()].ept.translate(gfn).is_none() {
                self.fault_in(&mut t, vm, gfn, FaultCause::HostIo);
            }

            // Consistency: dissolve another page's association with the
            // target block before overwriting it.
            let other = self.vms[vm.index()].origin.gfn_for_page(page);
            if let Some(other_gfn) = other.filter(|&g| g != gfn) {
                let mapper = self.vms[vm.index()].mapper_enabled;
                let discarded = matches!(
                    self.vms[vm.index()].ept.backing(other_gfn),
                    Some(Backing::ImagePage(_))
                );
                if mapper && discarded {
                    // The old content exists nowhere but the block we are
                    // about to overwrite: fetch it first.
                    self.stats.consistency_invalidations += 1;
                    self.fault_in(&mut t, vm, other_gfn, FaultCause::HostIo);
                }
                self.vms[vm.index()].origin.dissociate_gfn(other_gfn);
                if let Some(frame) = self.vms[vm.index()].ept.translate(other_gfn) {
                    self.list_move(vm, frame, false);
                }
            }

            // The consistency fault-in above (or a later iteration's
            // pressure) may have evicted the source: bring it back.
            if self.vms[vm.index()].ept.translate(gfn).is_none() {
                self.fault_in(&mut t, vm, gfn, FaultCause::HostIo);
            }
            let frame = self.vms[vm.index()].ept.translate(gfn).expect("present");
            let label = self.frames.label(frame);
            self.vms[vm.index()].image.write(page, label);
            let mapper = self.vms[vm.index()].mapper_enabled;
            let suspect = self.vms[vm.index()].is_suspect(page);
            if (mappable || !mapper) && !suspect {
                // Write-then-map: the source page now matches the block.
                self.unhook_stale_block_association(vm, gfn, page);
                self.vms[vm.index()].origin.associate(gfn, page);
                self.frames.set_dirty(frame, false);
            } else {
                self.vms[vm.index()].origin.dissociate_gfn(gfn);
            }
            let named = mapper && mappable && !suspect;
            self.list_move(vm, frame, named);
        }

        let range = self.vms[vm.index()].image_region.page_span(image_page, count);
        if self.disk_io_failed(&mut t, vm, IoKind::Write, range, IoTag::GuestImage) {
            // The logical image already holds the written labels; the
            // bad physical blocks are quarantined (dissolving the
            // write-then-map associations made above).
            self.degrade_image_span(&mut t, vm, image_page, count);
        }
        t - now
    }

    /// A block about to be (re)associated with `dest` may still back a
    /// *different*, discarded guest page from an earlier caching of the
    /// same block (the guest dropped that cache page without telling the
    /// host). The old page's content is unrecoverable once the
    /// association moves, so its backing degrades to a zero page — safe,
    /// because guests never read freed pages without overwriting them
    /// first.
    fn unhook_stale_block_association(&mut self, vm: VmId, dest: Gfn, page: u64) {
        if let Some(old) = self.vms[vm.index()].origin.gfn_for_page(page) {
            if old != dest
                && self.vms[vm.index()].ept.backing(old) == Some(Backing::ImagePage(page))
            {
                self.vms[vm.index()].ept.set_backing(old, Backing::None);
            }
        }
    }

    // ------------------------------------------------------------------
    // Ballooning support
    // ------------------------------------------------------------------

    /// The guest's balloon driver pinned `gfn` and donated it to the host:
    /// free the frame (or swap slot) immediately.
    pub fn balloon_release(&mut self, vm: VmId, gfn: Gfn) {
        self.vms[vm.index()].origin.dissociate_gfn(gfn);
        if let Some(frame) = self.vms[vm.index()].ept.translate(gfn) {
            self.list_remove(vm, frame);
            self.vms[vm.index()].ept.unmap(gfn, Backing::None);
            self.frames.free(frame);
            self.vms[vm.index()].charged -= 1;
            self.stats.balloon_released_pages += 1;
        } else {
            if let Some(Backing::SwapSlot(slot)) = self.vms[vm.index()].ept.backing(gfn) {
                self.swap.free(slot);
                self.stats.balloon_released_slots += 1;
            }
            self.vms[vm.index()].ept.set_backing(gfn, Backing::None);
        }
    }

    // ------------------------------------------------------------------
    // False Reads Preventer support (driven by `vswap-core`)
    // ------------------------------------------------------------------

    /// Allocates a pinned, unlisted emulation buffer frame for a write to
    /// the swapped-out `gfn`. Returns the frame and the allocation cost.
    pub fn alloc_buffer_frame(
        &mut self,
        now: SimTime,
        vm: VmId,
        gfn: Gfn,
    ) -> (FrameId, SimDuration) {
        let mut t = now;
        let frame = self
            .alloc_frame(&mut t, vm, FrameOwner::WriteBuffer { vm, gfn })
            .expect("reclaim guarantees progress");
        (frame, t - now)
    }

    /// Reads the old (backing) content of a non-present page for an
    /// emulation merge, without mapping it. Returns the content and the
    /// I/O cost.
    ///
    /// # Panics
    ///
    /// Panics if the page is present or has no disk backing.
    pub fn read_backing_label(
        &mut self,
        now: SimTime,
        vm: VmId,
        gfn: Gfn,
    ) -> (ContentLabel, SimDuration) {
        let backing = self.vms[vm.index()].ept.backing(gfn).expect("page must be non-present");
        match backing {
            Backing::SwapSlot(slot) => {
                let info = self.swap.get(slot).expect("occupied slot");
                let range = self.swap_region.page_range(slot);
                let mut t = now;
                if self.disk_io_failed(&mut t, vm, IoKind::Read, range, IoTag::HostSwap) {
                    // The emulation merge still proceeds: the logical
                    // content survives in the slot record.
                    self.stats.recovered_pages += 1;
                }
                self.stats.swap_ins += 1;
                (info.label, t - now)
            }
            Backing::ImagePage(page) => {
                let range = self.vms[vm.index()].image_region.page_range(page);
                let mut t = now;
                if self.disk_io_failed(&mut t, vm, IoKind::Read, range, IoTag::GuestImage) {
                    // Served from the logical image. The block is NOT
                    // quarantined here: this page is mid-emulation (its
                    // buffer is about to be promoted, which dissolves
                    // the association itself), and quarantining would
                    // have to materialize the page — forbidden while the
                    // caller holds it non-present.
                    self.stats.recovered_pages += 1;
                }
                self.stats.named_refaults += 1;
                (self.vms[vm.index()].image.label(page), t - now)
            }
            Backing::None => (ContentLabel::ZERO, SimDuration::ZERO),
        }
    }

    /// Installs a completed emulation buffer as the guest page: the buffer
    /// frame becomes the page (repurposed, §4.2), the old backing is
    /// released, and the page is anonymous and dirty.
    ///
    /// # Panics
    ///
    /// Panics if the page is present.
    pub fn promote_buffer_frame(
        &mut self,
        vm: VmId,
        gfn: Gfn,
        frame: FrameId,
        label: ContentLabel,
    ) {
        assert!(self.vms[vm.index()].ept.translate(gfn).is_none(), "page became present");
        if let Some(Backing::SwapSlot(slot)) = self.vms[vm.index()].ept.backing(gfn) {
            self.swap.free(slot);
        }
        self.vms[vm.index()].origin.dissociate_gfn(gfn);
        self.vms[vm.index()].ept.set_backing(gfn, Backing::None);
        self.frames.set_owner(frame, FrameOwner::Guest { vm, gfn });
        self.frames.set_label(frame, label);
        self.frames.set_dirty(frame, true);
        self.frames.set_accessed(frame, true);
        self.vms[vm.index()].ept.map(gfn, frame);
        self.list_push(vm, frame, false);
    }

    /// Drops an emulation buffer without installing it (aborted
    /// emulation).
    pub fn drop_buffer_frame(&mut self, vm: VmId, frame: FrameId) {
        debug_assert!(matches!(self.frames.owner(frame), FrameOwner::WriteBuffer { .. }));
        self.frames.free(frame);
        self.vms[vm.index()].charged -= 1;
    }

    // ------------------------------------------------------------------
    // Fault handling
    // ------------------------------------------------------------------

    /// Materializes a non-present page. Returns `true` if disk I/O was
    /// required (major fault).
    fn fault_in(&mut self, t: &mut SimTime, vm: VmId, gfn: Gfn, cause: FaultCause) -> bool {
        let backing = self.vms[vm.index()].ept.backing(gfn).expect("page must be non-present");
        let major = match backing {
            Backing::None => {
                let frame = self
                    .alloc_frame(t, vm, FrameOwner::Guest { vm, gfn })
                    .expect("reclaim guarantees progress");
                self.frames.set_label(frame, ContentLabel::ZERO);
                self.vms[vm.index()].ept.map(gfn, frame);
                self.list_push(vm, frame, false);
                self.stats.zero_fills += 1;
                *t += self.spec.minor_fault_overhead;
                false
            }
            Backing::SwapSlot(slot) => {
                self.swap_in_cluster(t, vm, gfn, slot);
                *t += self.spec.major_fault_overhead;
                true
            }
            Backing::ImagePage(page) => {
                self.image_refault_cluster(t, vm, gfn, page);
                *t += self.spec.major_fault_overhead;
                true
            }
        };
        match cause {
            FaultCause::Guest => {
                if major {
                    self.stats.guest_major_faults += 1;
                    // Servicing the exit runs hypervisor code (async-PF
                    // delivery, the VCPU loop): touch one hot code page,
                    // refaulting it if reclaim took it — false page
                    // anonymity's running cost even without virtual I/O.
                    self.hv_touch(t, vm, 1);
                } else {
                    self.stats.guest_minor_faults += 1;
                }
            }
            FaultCause::HostIo => self.stats.host_context_faults += 1,
        }
        major
    }

    /// Swap-in with fault-time readahead: reads the cluster of occupied
    /// slots at `[slot, slot + window)` belonging to this VM and maps every
    /// page it brought in. The effectiveness of this readahead is exactly
    /// what "decayed swap sequentiality" destroys.
    fn swap_in_cluster(&mut self, t: &mut SimTime, vm: VmId, gfn: Gfn, slot: u64) {
        debug_assert_eq!(self.vms[vm.index()].ept.backing(gfn), Some(Backing::SwapSlot(slot)));
        let t0 = *t;
        let lifecycle = self.events.open_span(t0);
        self.adjust_readahead_window(vm);
        // Take the reused scratch out of `self` for the fault's duration:
        // after warm-up this path performs no heap allocation.
        let mut cluster = std::mem::take(&mut self.swap_cluster_scratch);
        cluster.clear();
        cluster.extend(
            self.swap
                .window_iter(slot, self.vms[vm.index()].ra_window)
                .filter(|(_, info)| info.vm == vm),
        );
        debug_assert!(cluster.iter().any(|&(s, _)| s == slot), "faulting slot must be occupied");

        // Allocate all target frames first (may trigger reclaim).
        let mut frames = std::mem::take(&mut self.frame_scratch);
        frames.clear();
        for &(_, info) in &cluster {
            let frame = self
                .alloc_frame(t, vm, FrameOwner::Guest { vm: info.vm, gfn: info.gfn })
                .expect("reclaim guarantees progress");
            frames.push(frame);
        }

        // Readahead reads the covering span in one request, holes
        // included — one positioning cost, then sequential transfer.
        let first = cluster.iter().map(|&(s, _)| s).min().expect("non-empty cluster");
        let last = cluster.iter().map(|&(s, _)| s).max().expect("non-empty cluster");
        let span = self.swap_region.page_span(first, last - first + 1);
        let failed = self.disk_io_failed(t, vm, IoKind::Read, span, IoTag::HostSwap);
        if failed {
            // Unreadable physical slots: every cluster member's logical
            // content survives in its slot record; serve them degraded
            // and retire the bad slots below.
            self.stats.recovered_pages += cluster.len() as u64;
        }
        let readahead = cluster.len() as u64 - 1;

        for (&(s, info), &frame) in cluster.iter().zip(&frames) {
            self.frames.set_label(frame, info.label);
            self.frames.set_dirty(frame, false);
            self.vms[vm.index()].ept.set_backing(info.gfn, Backing::None);
            self.vms[vm.index()].ept.map(info.gfn, frame);
            let named = self.vms[vm.index()].mapper_enabled
                && self.vms[vm.index()].origin.page_for_gfn(info.gfn).is_some();
            self.list_push(vm, frame, named);
            if failed && self.range_has_latent(self.swap_region.page_range(s)) {
                self.swap.mark_bad(s);
            } else {
                self.swap.free(s);
            }
            self.stats.swap_ins += 1;
            // Count every cluster member toward the adaptive window's
            // evidence: a window stuck at 1 must still accumulate loads,
            // or it could never grow back.
            self.vms[vm.index()].ra_loaded += 1;
            if s != slot {
                self.stats.swap_readahead_extra += 1;
                self.flags.set_prefetched(frame, true);
            } else {
                self.frames.set_accessed(frame, true);
            }
        }

        self.swap_cluster_scratch = cluster;
        self.frame_scratch = frames;
        self.latency.record(vm.get(), LatencyClass::SwapIn, *t - t0);
        self.events.close_span_with(lifecycle, Some(vm.get()), || Event::SwapIn {
            gfn: gfn.get(),
            readahead,
        });
    }

    /// Named refault with image readahead: re-reads the faulting block and
    /// up to `image_readahead_pages` following blocks whose associated
    /// guest pages are also discarded, streaming from the (sequential)
    /// disk image — the Mapper's answer to decayed swap sequentiality.
    fn image_refault_cluster(&mut self, t: &mut SimTime, vm: VmId, gfn: Gfn, page: u64) {
        debug_assert_eq!(self.vms[vm.index()].origin.gfn_for_page(page), Some(gfn));
        let t0 = *t;
        let span = self.events.open_span(t0);
        let end = (page + self.spec.image_readahead_pages).min(self.vms[vm.index()].image.pages());
        let mut cluster = std::mem::take(&mut self.image_cluster_scratch);
        cluster.clear();
        for p in page..end {
            match self.vms[vm.index()].origin.gfn_for_page(p) {
                Some(g) if self.vms[vm.index()].ept.backing(g) == Some(Backing::ImagePage(p)) => {
                    cluster.push((p, g));
                }
                _ if p == page => unreachable!("faulting page must qualify"),
                _ => break, // keep the read one contiguous streaming run
            }
        }

        let mut frames = std::mem::take(&mut self.frame_scratch);
        frames.clear();
        for &(_, g) in &cluster {
            let frame = self
                .alloc_frame(t, vm, FrameOwner::Guest { vm, gfn: g })
                .expect("reclaim guarantees progress");
            frames.push(frame);
        }

        let count = cluster.len() as u64;
        let range = self.vms[vm.index()].image_region.page_span(page, count);
        let failed = self.disk_io_failed(t, vm, IoKind::Read, range, IoTag::GuestImage);
        if failed {
            // The refault is served from the logical image; latent-bad
            // members are quarantined (and degraded to anonymous) below.
            self.stats.recovered_pages += count;
        }
        for (&(p, g), &frame) in cluster.iter().zip(&frames) {
            let label = self.vms[vm.index()].image.label(p);
            self.frames.set_label(frame, label);
            self.frames.set_dirty(frame, false);
            self.vms[vm.index()].ept.set_backing(g, Backing::None);
            self.vms[vm.index()].ept.map(g, frame);
            let bad =
                failed && self.range_has_latent(self.vms[vm.index()].image_region.page_range(p));
            if bad {
                // The block cannot serve the next refault: break the
                // association while the content is safely in memory.
                self.vms[vm.index()].set_suspect(p);
                self.vms[vm.index()].origin.dissociate_gfn(g);
                self.list_push(vm, frame, false);
                self.stats.degraded_pages += 1;
                self.stats.fault_invalidations += 1;
                self.events.emit_with(*t, Some(vm.get()), || Event::MapperDegraded {
                    gfn: g.get(),
                    image_page: p,
                });
            } else {
                self.list_push(vm, frame, true);
            }
            self.stats.named_refaults += 1;
            if p != page {
                self.stats.image_readahead_extra += 1;
            } else {
                self.frames.set_accessed(frame, true);
            }
        }

        self.image_cluster_scratch = cluster;
        self.frame_scratch = frames;
        self.latency.record(vm.get(), LatencyClass::SwapIn, *t - t0);
        self.events.close_span_with(span, Some(vm.get()), || Event::NamedRefault {
            gfn: gfn.get(),
            readahead: count - 1,
        });
    }

    /// Rescales the VM's swap-readahead window every 64 speculative
    /// loads: mostly-wasted windows shrink (halve, min 1), mostly-useful
    /// ones grow back toward the configured maximum.
    fn adjust_readahead_window(&mut self, vm: VmId) {
        let mm = &mut self.vms[vm.index()];
        if mm.ra_loaded < 64 {
            return;
        }
        if mm.ra_wasted * 2 > mm.ra_loaded {
            // Mostly wasted (>50%): shrink.
            mm.ra_window = (mm.ra_window / 2).max(1);
        } else if mm.ra_wasted * 4 < mm.ra_loaded {
            // Mostly useful (<25% waste): grow back.
            mm.ra_window = (mm.ra_window * 2).min(self.spec.swap_readahead_pages);
        }
        mm.ra_loaded = 0;
        mm.ra_wasted = 0;
    }

    /// Touches hypervisor (QEMU) code pages in round-robin order,
    /// refaulting any that reclaim evicted — the running cost of false
    /// page anonymity.
    fn hv_touch(&mut self, t: &mut SimTime, vm: VmId, count: u64) {
        let code_pages = self.spec.hypervisor_code_pages;
        for _ in 0..count {
            let page = self.vms[vm.index()].hv_code_cursor % code_pages;
            self.vms[vm.index()].hv_code_cursor += 1;
            match self.vms[vm.index()].hv_code_frames[page as usize] {
                Some(frame) => self.frames.set_accessed(frame, true),
                None => {
                    self.stats.host_context_faults += 1;
                    self.stats.hypervisor_code_refaults += 1;
                    let frame = self
                        .alloc_frame(t, vm, FrameOwner::HypervisorCode { vm, page })
                        .expect("reclaim guarantees progress");
                    let range = self.vms[vm.index()].hv_binary_region.page_range(page);
                    if self.disk_io_failed(t, vm, IoKind::Read, range, IoTag::GuestImage) {
                        // Hypervisor binary pages are recoverable from
                        // the install media; serve the code degraded
                        // rather than wedging emulation.
                        self.stats.recovered_pages += 1;
                    }
                    *t += self.spec.major_fault_overhead;
                    self.vms[vm.index()].hv_code_frames[page as usize] = Some(frame);
                    self.list_push(vm, frame, true);
                    self.frames.set_accessed(frame, true);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Allocation and reclaim
    // ------------------------------------------------------------------

    /// Allocates a frame for the VM, running direct reclaim first if the
    /// VM is at its memory limit or the host is out of frames.
    fn alloc_frame(&mut self, t: &mut SimTime, vm: VmId, owner: FrameOwner) -> Option<FrameId> {
        for _ in 0..3 {
            let over_limit = self.vms[vm.index()].charged >= self.vms[vm.index()].mem_limit;
            let host_full = self.frames.free_frames() == 0;
            if !over_limit && !host_full {
                break;
            }
            let victim_vm = if over_limit { vm } else { self.most_charged_vm() };
            let want = self.spec.reclaim_batch.max(
                self.vms[vm.index()].charged + 1
                    - self.vms[vm.index()].mem_limit.min(self.vms[vm.index()].charged),
            );
            self.reclaim_vm(t, victim_vm, want);
        }
        let frame = self.frames.alloc(owner)?;
        self.vms[vm.index()].charged += 1;
        Some(frame)
    }

    /// The VM with the largest footprint (global-pressure victim).
    fn most_charged_vm(&self) -> VmId {
        let idx = self
            .vms
            .iter()
            .enumerate()
            .max_by_key(|(_, mm)| mm.charged)
            .map(|(i, _)| i)
            .expect("at least one VM");
        VmId::new(idx as u32)
    }

    /// Direct reclaim: evicts up to `want` frames from the VM, preferring
    /// named pages (cheap to drop, easy to prefetch back — §3 "False Page
    /// Anonymity" explains why kernels are built this way).
    fn reclaim_vm(&mut self, t: &mut SimTime, vm: VmId, want: u64) {
        self.stats.reclaim_runs += 1;
        let scanned_before = self.stats.pages_scanned;
        let mut reclaimed = 0;
        for _ in 0..want {
            let Some((frame, named)) = self.select_victim(t, vm) else {
                break;
            };
            self.list_remove_class(vm, frame, named);
            self.evict_frame(t, vm, frame);
            reclaimed += 1;
        }
        self.events.emit_with(*t, Some(vm.get()), || Event::ReclaimScan {
            scanned: self.stats.pages_scanned - scanned_before,
            reclaimed,
        });
    }

    /// How much reclaim favors named (file-backed) pages over anonymous
    /// ones, mirroring Linux's swappiness-derived scan balance.
    const FILE_LIST_WEIGHT: u64 = 4;

    /// Picks the next eviction victim. The two LRU lists are scanned in
    /// proportion to their (weighted) sizes, as Linux balances its file
    /// and anonymous lists: named pages are preferred per byte, but a
    /// tiny named list (e.g. just the hypervisor's code pages in a
    /// baseline guest) is not hammered on every pass — though under
    /// sustained pressure it still bleeds, which is exactly the false
    /// page anonymity cost. Returns the frame and which list held it.
    fn select_victim(&mut self, t: &mut SimTime, vm: VmId) -> Option<(FrameId, bool)> {
        let named_len = self.vms[vm.index()].named_lru.len() as u64;
        let anon_len = self.vms[vm.index()].anon_lru.len() as u64;
        let weighted = if self.spec.reclaim_prefers_named {
            named_len * Self::FILE_LIST_WEIGHT
        } else {
            named_len / Self::FILE_LIST_WEIGHT
        };
        let total = weighted + anon_len;
        let prefer_named = total > 0 && self.rng.below(total.max(1)) < weighted;
        for named in [prefer_named, !prefer_named] {
            if let Some(victim) = self.scan_one_list(t, vm, named) {
                return Some((victim, named));
            }
        }
        None
    }

    /// Bounded second-chance scan of one list.
    fn scan_one_list(&mut self, t: &mut SimTime, vm: VmId, named: bool) -> Option<FrameId> {
        let protected_below = self.vms[vm.index()].protected_below;
        for pass in 0..2 {
            let len = if named {
                self.vms[vm.index()].named_lru.len()
            } else {
                self.vms[vm.index()].anon_lru.len()
            };
            let budget = if pass == 0 { len } else { len * 2 };
            for _ in 0..budget {
                let mm = &mut self.vms[vm.index()];
                let head = if named { &mut mm.named_lru } else { &mut mm.anon_lru };
                let Some(idx) = head.front() else { break };
                self.stats.pages_scanned += 1;
                *t += self.spec.scan_overhead;
                let frame = FrameId::new(idx as u32);
                let protected = matches!(
                    self.frames.owner(frame),
                    FrameOwner::Guest { gfn, .. } if gfn.get() < protected_below
                );
                if protected || self.frames.accessed(frame) {
                    // Referenced (or hinted vital): demote to "recently
                    // active" and requeue.
                    self.frames.set_accessed(frame, false);
                    self.flags.grant_second_chance(frame);
                    self.arena.move_to_back(head, idx);
                } else if self.flags.take_second_chance(frame) {
                    self.arena.move_to_back(head, idx);
                } else {
                    return Some(frame);
                }
            }
        }
        None
    }

    /// Evicts one frame (already removed from its LRU list): named guest
    /// pages are discarded; everything else guest-owned is swapped out
    /// (always written — no dirty bit for guest pages); hypervisor code
    /// and page-cache frames are dropped.
    fn evict_frame(&mut self, t: &mut SimTime, vm: VmId, frame: FrameId) {
        if self.flags.take_prefetched(frame) {
            self.vms[vm.index()].ra_wasted += 1;
        }
        match self.frames.owner(frame) {
            FrameOwner::Guest { vm: owner_vm, gfn } => {
                debug_assert_eq!(owner_vm, vm);
                let origin_page = self.vms[vm.index()].origin.page_for_gfn(gfn);
                let mapper = self.vms[vm.index()].mapper_enabled;
                // A discard is only safe onto a block the disk can still
                // serve: never discard onto a quarantined block.
                let discardable = origin_page.is_some_and(|p| !self.vms[vm.index()].is_suspect(p));
                if let (true, Some(page), false, true) =
                    (mapper, origin_page, self.frames.dirty(frame), discardable)
                {
                    // Named page: drop it; the image still has the bytes.
                    self.vms[vm.index()].ept.unmap(gfn, Backing::ImagePage(page));
                    self.stats.named_discards += 1;
                    self.events
                        .emit_with(*t, Some(vm.get()), || Event::NamedDiscard { gfn: gfn.get() });
                } else {
                    // Uncooperative swap-out. The hardware offers no dirty
                    // bit for guest pages, so the content is written even
                    // if it is byte-identical to a disk-image block — the
                    // silent swap write.
                    let label = self.frames.label(frame);
                    let slot = self.swap_out_write(*t, vm, gfn, label);
                    self.stats.swap_outs += 1;
                    self.events.emit_with(*t, Some(vm.get()), || Event::SwapOut { gfn: gfn.get() });
                    if origin_page.is_some() && !self.frames.dirty(frame) {
                        self.stats.silent_swap_writes += 1;
                    }
                    self.vms[vm.index()].ept.unmap(gfn, Backing::SwapSlot(slot));
                }
            }
            FrameOwner::HypervisorCode { vm: owner_vm, page } => {
                debug_assert_eq!(owner_vm, vm);
                self.vms[vm.index()].hv_code_frames[page as usize] = None;
            }
            FrameOwner::PageCache { .. } => {
                // Clean by construction: just drop it.
            }
            FrameOwner::WriteBuffer { .. } | FrameOwner::Free => {
                unreachable!("pinned or free frames never sit on LRU lists")
            }
        }
        self.frames.free(frame);
        self.vms[vm.index()].charged -= 1;
    }

    /// Allocates a swap slot and performs the write-behind swap-out
    /// write, riding out transient failures with bounded retries and
    /// relocating the page to a fresh slot when the first slot's media
    /// proves permanently bad. Returns the slot that finally holds the
    /// page.
    fn swap_out_write(&mut self, now: SimTime, vm: VmId, gfn: Gfn, label: ContentLabel) -> u64 {
        let jitter = self.spec.swap_alloc_jitter;
        let mut slot = self
            .swap
            .alloc_scattered(SlotInfo { vm, gfn, label }, &mut self.rng, jitter)
            .expect("host swap area exhausted");
        // Swap-out writes go through write-behind: reclaim does not
        // stall on them, but they occupy the device (and, silently, its
        // write bandwidth — the cost of silent swap writes). Retries
        // therefore resubmit when the device next drains, not on the
        // reclaim clock.
        let mut at = now;
        let mut attempt = 0u32;
        let mut retried = false;
        loop {
            let range = self.swap_region.page_range(slot);
            match self.disk.submit_writeback_attempt(at, range, IoTag::HostSwap, attempt) {
                Ok(_) => break,
                Err(err) => {
                    attempt += 1;
                    retried = true;
                    if err.kind == IoErrorKind::Latent {
                        // The slot's media is permanently bad: retire it
                        // and move the page to a fresh slot.
                        self.swap.mark_bad(slot);
                        self.stats.swap_slot_remaps += 1;
                        slot = self
                            .swap
                            .alloc_scattered(SlotInfo { vm, gfn, label }, &mut self.rng, jitter)
                            .expect("host swap area exhausted");
                        attempt = 0;
                        at = self.disk.busy_until();
                    } else if self.retry.should_retry(attempt, self.disk.busy_until() - now) {
                        let backoff = self.retry.backoff(attempt - 1);
                        self.stats.io_retries += 1;
                        let drained = self.disk.busy_until();
                        self.events.emit_with(drained, Some(vm.get()), || Event::IoRetry {
                            attempt,
                            backoff,
                        });
                        at = drained + backoff;
                    } else {
                        // Budget exhausted: accept the lost physical
                        // write. The logical content survives in the
                        // slot record, and any later read of the slot
                        // serves it (degraded) — nothing is silently
                        // corrupted.
                        break;
                    }
                }
            }
        }
        // The swap-out's cost is how far into the device's future the
        // write-behind queue now extends (zero when the disk was idle).
        let queued = self.disk.busy_until().saturating_since(now);
        self.latency.record(vm.get(), LatencyClass::SwapOut, queued);
        if retried {
            self.latency.record(vm.get(), LatencyClass::RetriedIo, queued);
        }
        slot
    }

    // ------------------------------------------------------------------
    // LRU list bookkeeping
    // ------------------------------------------------------------------

    fn list_push(&mut self, vm: VmId, frame: FrameId, named: bool) {
        debug_assert_eq!(self.flags.list_class(frame), ListClass::None);
        let mm = &mut self.vms[vm.index()];
        let head = if named { &mut mm.named_lru } else { &mut mm.anon_lru };
        self.arena.push_back(head, frame.index());
        self.flags.set_list_class(frame, if named { ListClass::Named } else { ListClass::Anon });
    }

    fn list_remove(&mut self, vm: VmId, frame: FrameId) {
        match self.flags.list_class(frame) {
            ListClass::None => {}
            ListClass::Anon => self.list_remove_class(vm, frame, false),
            ListClass::Named => self.list_remove_class(vm, frame, true),
        }
    }

    fn list_remove_class(&mut self, vm: VmId, frame: FrameId, named: bool) {
        let mm = &mut self.vms[vm.index()];
        let head = if named { &mut mm.named_lru } else { &mut mm.anon_lru };
        self.arena.remove(head, frame.index());
        self.flags.set_list_class(frame, ListClass::None);
    }

    /// Moves a frame to the (back of the) requested list if it is not
    /// already classified there.
    fn list_move(&mut self, vm: VmId, frame: FrameId, named: bool) {
        let want = if named { ListClass::Named } else { ListClass::Anon };
        if self.flags.list_class(frame) == want {
            return;
        }
        self.list_remove(vm, frame);
        self.list_push(vm, frame, named);
    }

    // ------------------------------------------------------------------
    // Invariant auditing (tests and property tests)
    // ------------------------------------------------------------------

    /// Checks cross-structure invariants, returning a description of the
    /// first violation found. Intended for tests and property tests.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated invariant.
    pub fn audit(&self) -> Result<(), String> {
        let mut charged = vec![0u64; self.vms.len()];
        let mut unlisted = vec![0u64; self.vms.len()];
        for (frame, owner) in self.frames.iter_allocated() {
            let (vm, expect_listed) = match owner {
                FrameOwner::Guest { vm, gfn } => {
                    let got = self.vms[vm.index()].ept.translate(gfn);
                    if got != Some(frame) {
                        return Err(format!("{frame} claims {vm}/{gfn} but EPT says {got:?}"));
                    }
                    (vm, true)
                }
                FrameOwner::HypervisorCode { vm, page } => {
                    if self.vms[vm.index()].hv_code_frames[page as usize] != Some(frame) {
                        return Err(format!("{frame} hv-code page {page} mismatch"));
                    }
                    (vm, true)
                }
                FrameOwner::PageCache { vm, .. } => (vm, true),
                FrameOwner::WriteBuffer { vm, .. } => (vm, false),
                FrameOwner::Free => unreachable!("iter_allocated skips free frames"),
            };
            charged[vm.index()] += 1;
            unlisted[vm.index()] += u64::from(!expect_listed);
            let listed = self.flags.list_class(frame) != ListClass::None;
            if listed != expect_listed {
                return Err(format!("{frame} listed={listed}, expected {expect_listed}"));
            }
        }
        for (i, mm) in self.vms.iter().enumerate() {
            if charged[i] != mm.charged {
                return Err(format!(
                    "vm{i} charge mismatch: counted {} recorded {}",
                    charged[i], mm.charged
                ));
            }
            let listed = (mm.anon_lru.len() + mm.named_lru.len()) as u64;
            let expect = charged[i] - unlisted[i];
            if listed != expect {
                return Err(format!("vm{i} lru size {listed} != listed frames {expect}"));
            }
        }
        for (slot, info) in self.swap.iter_occupied() {
            let backing = self.vms[info.vm.index()].ept.backing(info.gfn);
            if backing != Some(Backing::SwapSlot(slot)) {
                return Err(format!(
                    "slot {slot} holds {}/{} but backing is {backing:?}",
                    info.vm, info.gfn
                ));
            }
        }
        // Discarded named pages must still own their block association.
        for (vmi, mm) in self.vms.iter().enumerate() {
            for gfn_raw in 0..mm.ept.gfn_count() {
                let gfn = Gfn::new(gfn_raw);
                if let Some(Backing::ImagePage(p)) = mm.ept.backing(gfn) {
                    let holder = mm.origin.gfn_for_page(p);
                    if holder != Some(gfn) {
                        return Err(format!(
                            "vm{vmi}/{gfn} discarded to image page {p} but origin holder is {holder:?}"
                        ));
                    }
                }
            }
        }
        // A block the fault plan proved bad must never keep a Mapper
        // association — that would be a stale mapping onto storage a
        // refault cannot read.
        for (vmi, mm) in self.vms.iter().enumerate() {
            for p in mm.suspect_pages() {
                if let Some(gfn) = mm.origin.gfn_for_page(p) {
                    return Err(format!("vm{vmi} suspect block {p} still associated with {gfn}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 64-frame host with a 64-page-limit VM believing it has 192 pages.
    fn tight_host(mapper: bool) -> (HostKernel, VmId) {
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
                mapper_enabled: mapper,
            })
            .unwrap();
        (host, vm)
    }

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    #[test]
    fn first_touch_zero_fills() {
        let (mut host, vm) = tight_host(false);
        let out = host.guest_access(t0(), vm, Gfn::new(0), false);
        assert!(out.faulted);
        assert!(!out.major);
        assert!(out.label.is_zero_page());
        assert_eq!(host.stats().zero_fills, 1);
        assert_eq!(host.stats().guest_minor_faults, 1);
        host.audit().unwrap();
    }

    #[test]
    fn second_touch_hits() {
        let (mut host, vm) = tight_host(false);
        host.guest_access(t0(), vm, Gfn::new(0), false);
        let out = host.guest_access(t0(), vm, Gfn::new(0), false);
        assert!(!out.faulted);
        assert_eq!(out.latency, SimDuration::ZERO);
    }

    #[test]
    fn pressure_triggers_uncooperative_swapping() {
        let (mut host, vm) = tight_host(false);
        // Touch more pages than the 64-page limit: host must swap.
        for g in 0..128 {
            host.guest_access(t0(), vm, Gfn::new(g), true);
        }
        assert!(host.stats().swap_outs > 0, "must have swapped out");
        assert!(host.charged(vm) <= 64 + host.spec().reclaim_batch);
        host.audit().unwrap();
    }

    #[test]
    fn swapped_page_faults_back_with_same_content() {
        let (mut host, vm) = tight_host(false);
        let out = host.guest_access(t0(), vm, Gfn::new(0), true);
        let written = out.label;
        for g in 1..128 {
            host.guest_access(t0(), vm, Gfn::new(g), true);
        }
        assert!(!host.is_present(vm, Gfn::new(0)), "page 0 must have been evicted");
        let back = host.guest_access(t0(), vm, Gfn::new(0), false);
        assert!(back.major);
        assert_eq!(back.label, written, "content must survive the swap cycle");
        assert!(host.stats().guest_major_faults > 0);
        host.audit().unwrap();
    }

    #[test]
    fn swap_readahead_brings_neighbours() {
        let (mut host, vm) = tight_host(false);
        for g in 0..128 {
            host.guest_access(t0(), vm, Gfn::new(g), true);
        }
        let before = host.stats().swap_readahead_extra;
        // Fault one early page back; neighbours swapped at the same time
        // live in adjacent slots and ride along.
        host.guest_access(t0(), vm, Gfn::new(0), false);
        assert!(host.stats().swap_readahead_extra > before);
        host.audit().unwrap();
    }

    #[test]
    fn baseline_disk_read_counts_silent_writes_on_eviction() {
        let (mut host, vm) = tight_host(false);
        // Read 128 image pages into 128 distinct guest pages: the VM limit
        // (64) forces eviction of DMA-filled (clean, origin-tracked) pages.
        for i in 0..128u64 {
            host.virt_disk_read(t0(), vm, i, &[Gfn::new(i)]);
        }
        assert!(host.stats().swap_outs > 0);
        assert!(
            host.stats().silent_swap_writes > 0,
            "evicting unmodified file pages must be counted silent"
        );
        host.audit().unwrap();
    }

    #[test]
    fn baseline_disk_read_into_swapped_buffer_is_stale_read() {
        let (mut host, vm) = tight_host(false);
        for i in 0..128u64 {
            host.virt_disk_read(t0(), vm, i, &[Gfn::new(i)]);
        }
        assert!(!host.is_present(vm, Gfn::new(0)));
        let before = host.stats().stale_swap_reads;
        // Re-read block 200 into the swapped-out buffer gfn 0.
        host.virt_disk_read(t0(), vm, 200, &[Gfn::new(0)]);
        assert_eq!(host.stats().stale_swap_reads, before + 1);
        host.audit().unwrap();
    }

    #[test]
    fn mapper_discards_named_pages_without_swap_writes() {
        let (mut host, vm) = tight_host(true);
        for i in 0..128u64 {
            host.virt_disk_read_mapped(t0(), vm, i, &[Gfn::new(i)]);
        }
        assert_eq!(host.stats().swap_outs, 0, "mapper must not swap clean file pages");
        assert!(host.stats().named_discards > 0);
        assert_eq!(host.disk_stats().swap_sectors_written, 0);
        host.audit().unwrap();
    }

    #[test]
    fn mapper_refaults_named_pages_from_image() {
        let (mut host, vm) = tight_host(true);
        for i in 0..128u64 {
            host.virt_disk_read_mapped(t0(), vm, i, &[Gfn::new(i)]);
        }
        assert!(!host.is_present(vm, Gfn::new(0)));
        let expect = host.image_label(vm, 0);
        let out = host.guest_access(t0(), vm, Gfn::new(0), false);
        assert!(out.major);
        assert_eq!(out.label, expect);
        assert!(host.stats().named_refaults > 0);
        assert!(host.stats().image_readahead_extra > 0, "image readahead rides along");
        host.audit().unwrap();
    }

    #[test]
    fn mapper_read_into_swapped_buffer_avoids_stale_read() {
        let (mut host, vm) = tight_host(true);
        // Dirty anonymous pages so some get swapped out.
        for g in 0..128 {
            host.guest_access(t0(), vm, Gfn::new(g), true);
        }
        assert!(!host.is_present(vm, Gfn::new(0)));
        let before = host.stats().stale_swap_reads;
        let slots_used = host.swap().used();
        host.virt_disk_read_mapped(t0(), vm, 300, &[Gfn::new(0)]);
        assert_eq!(host.stats().stale_swap_reads, before, "no stale read with the Mapper");
        assert!(host.swap().used() < slots_used, "old slot must be released");
        host.audit().unwrap();
    }

    #[test]
    fn guest_write_breaks_named_association() {
        let (mut host, vm) = tight_host(true);
        host.virt_disk_read_mapped(t0(), vm, 7, &[Gfn::new(3)]);
        assert_eq!(host.origin_len(vm), 1);
        let out = host.guest_access(t0(), vm, Gfn::new(3), true);
        assert_ne!(out.label, host.image_label(vm, 7));
        assert_eq!(host.origin_len(vm), 0, "COW break dissolves the association");
        assert_eq!(host.stats().cow_breaks, 1);
        // Dirty page must now swap, not discard.
        for g in 10..138 {
            host.guest_access(t0(), vm, Gfn::new(g), true);
        }
        host.audit().unwrap();
    }

    #[test]
    fn disk_write_invalidates_discarded_mapping_first() {
        let (mut host, vm) = tight_host(true);
        // Cache block 7 in gfn 3, then force it to be discarded.
        host.virt_disk_read_mapped(t0(), vm, 7, &[Gfn::new(3)]);
        for g in 10..138 {
            host.guest_access(t0(), vm, Gfn::new(g), true);
        }
        assert_eq!(host.backing(vm, Gfn::new(3)), Some(Backing::ImagePage(7)));
        let old = host.image_label(vm, 7);
        // Guest writes new content to block 7 from another page.
        let w = host.guest_access(t0(), vm, Gfn::new(5), true);
        host.virt_disk_write(t0(), vm, &[Gfn::new(5)], 7, true);
        assert_eq!(host.stats().consistency_invalidations, 1);
        assert_eq!(host.image_label(vm, 7), w.label);
        // gfn 3 must still read the *old* content C0.
        let c0 = host.guest_access(t0(), vm, Gfn::new(3), false);
        assert_eq!(c0.label, old, "C0 must be preserved across the block overwrite");
        host.audit().unwrap();
    }

    #[test]
    fn disk_write_makes_source_named_under_mapper() {
        let (mut host, vm) = tight_host(true);
        let w = host.guest_access(t0(), vm, Gfn::new(0), true);
        host.virt_disk_write(t0(), vm, &[Gfn::new(0)], 11, true);
        assert_eq!(host.image_label(vm, 11), w.label);
        assert_eq!(host.origin_len(vm), 1);
        // Under pressure the page is discarded, not swapped.
        for g in 10..138 {
            host.guest_access(t0(), vm, Gfn::new(g), true);
        }
        assert_eq!(host.backing(vm, Gfn::new(0)), Some(Backing::ImagePage(11)));
        host.audit().unwrap();
    }

    #[test]
    fn overwrite_of_swapped_page_is_false_read() {
        let (mut host, vm) = tight_host(false);
        for g in 0..128 {
            host.guest_access(t0(), vm, Gfn::new(g), true);
        }
        assert!(!host.is_present(vm, Gfn::new(0)));
        let label = host.fresh_label();
        let out = host.overwrite_page(t0(), vm, Gfn::new(0), label);
        assert!(out.major, "baseline reads the doomed old content");
        assert_eq!(host.stats().false_swap_reads, 1);
        assert_eq!(out.label, label);
        host.audit().unwrap();
    }

    #[test]
    fn overwrite_of_fresh_page_is_not_false_read() {
        let (mut host, vm) = tight_host(false);
        let label = host.fresh_label();
        let out = host.overwrite_page(t0(), vm, Gfn::new(0), label);
        assert!(!out.major);
        assert_eq!(host.stats().false_swap_reads, 0);
    }

    #[test]
    fn buffer_promotion_replaces_swapped_page() {
        let (mut host, vm) = tight_host(false);
        for g in 0..128 {
            host.guest_access(t0(), vm, Gfn::new(g), true);
        }
        let gfn = Gfn::new(0);
        assert!(!host.is_present(vm, gfn));
        let used_before = host.swap().used();
        let (frame, _) = host.alloc_buffer_frame(t0(), vm, gfn);
        let label = host.fresh_label();
        host.promote_buffer_frame(vm, gfn, frame, label);
        assert!(host.is_present(vm, gfn));
        assert_eq!(host.resident_label(vm, gfn), Some(label));
        assert_eq!(host.swap().used(), used_before - 1, "old slot freed");
        host.audit().unwrap();
    }

    #[test]
    fn read_backing_label_returns_swapped_content() {
        let (mut host, vm) = tight_host(false);
        let w = host.guest_access(t0(), vm, Gfn::new(0), true);
        for g in 1..128 {
            host.guest_access(t0(), vm, Gfn::new(g), true);
        }
        assert!(!host.is_present(vm, Gfn::new(0)));
        let (label, cost) = host.read_backing_label(t0(), vm, Gfn::new(0));
        assert_eq!(label, w.label);
        assert!(cost.as_nanos() > 0);
    }

    #[test]
    fn balloon_release_frees_frame_or_slot() {
        let (mut host, vm) = tight_host(false);
        host.guest_access(t0(), vm, Gfn::new(0), true);
        let charged = host.charged(vm);
        host.balloon_release(vm, Gfn::new(0));
        assert_eq!(host.charged(vm), charged - 1);
        assert_eq!(host.backing(vm, Gfn::new(0)), Some(Backing::None));
        // Now a swapped-out page.
        for g in 1..128 {
            host.guest_access(t0(), vm, Gfn::new(g), true);
        }
        let victim = (1..128)
            .map(Gfn::new)
            .find(|&g| matches!(host.backing(vm, g), Some(Backing::SwapSlot(_))))
            .expect("something swapped");
        let used = host.swap().used();
        host.balloon_release(vm, victim);
        assert_eq!(host.swap().used(), used - 1);
        host.audit().unwrap();
    }

    #[test]
    fn hypervisor_code_refaults_under_pressure() {
        let (mut host, vm) = tight_host(false);
        // Heavy anonymous pressure with no virtual I/O: reclaim eventually
        // clears the code pages' accessed bits and evicts them.
        for round in 0..6 {
            for g in 0..160 {
                host.guest_access(t0(), vm, Gfn::new(g + round), true);
            }
        }
        // Virtual I/O now touches evicted code pages.
        host.virt_disk_read(t0(), vm, 0, &[Gfn::new(190)]);
        host.virt_disk_read(t0(), vm, 1, &[Gfn::new(191)]);
        assert!(
            host.stats().hypervisor_code_refaults > 0,
            "false page anonymity: QEMU code must get evicted and refault"
        );
        host.audit().unwrap();
    }

    #[test]
    fn reclaim_scans_are_counted() {
        let (mut host, vm) = tight_host(false);
        for g in 0..128 {
            host.guest_access(t0(), vm, Gfn::new(g), true);
        }
        assert!(host.stats().pages_scanned > 0);
        assert!(host.stats().reclaim_runs > 0);
    }

    #[test]
    fn vm_creation_fails_when_disk_too_small() {
        let spec = HostSpec { disk_pages: 128, swap_pages: 64, ..HostSpec::small_test() };
        let mut host = HostKernel::new(spec).unwrap();
        let err = host
            .create_vm(VmMmConfig {
                gfn_count: 64,
                image_pages: 1024,
                mem_limit_pages: 32,
                mapper_enabled: false,
            })
            .unwrap_err();
        assert!(matches!(err, HostError::DiskFull { .. }));
    }

    #[test]
    fn rereading_block_into_new_page_unhooks_old_discarded_page() {
        let (mut host, vm) = tight_host(true);
        host.virt_disk_read_mapped(t0(), vm, 7, &[Gfn::new(3)]);
        for g in 10..138 {
            host.guest_access(t0(), vm, Gfn::new(g), true);
        }
        assert_eq!(host.backing(vm, Gfn::new(3)), Some(Backing::ImagePage(7)));
        // The guest dropped its cache of block 7 (silently) and re-reads it
        // into a different page.
        host.virt_disk_read_mapped(t0(), vm, 7, &[Gfn::new(5)]);
        assert_eq!(host.backing(vm, Gfn::new(3)), Some(Backing::None));
        assert_eq!(host.resident_label(vm, Gfn::new(5)), Some(host.image_label(vm, 7)));
        host.audit().unwrap();
    }

    /// Loads a tight host into a clean state, applies `corrupt`, and
    /// returns what the audit reports.
    fn audit_error(mapper: bool, corrupt: impl FnOnce(&mut HostKernel, VmId)) -> String {
        let (mut host, vm) = tight_host(mapper);
        for i in 0..128u64 {
            if mapper {
                host.virt_disk_read_mapped(t0(), vm, i, &[Gfn::new(i)]);
            } else {
                host.guest_access(t0(), vm, Gfn::new(i), true);
            }
        }
        host.audit().unwrap();
        corrupt(&mut host, vm);
        host.audit().expect_err("the audit must catch the corruption")
    }

    #[test]
    fn audit_catches_a_charge_miscount() {
        let err = audit_error(false, |host, vm| host.vms[vm.index()].charged += 1);
        assert!(err.contains("charge mismatch"), "{err}");
    }

    #[test]
    fn audit_catches_a_swap_slot_record_the_ept_does_not_point_at() {
        let err = audit_error(false, |host, vm| {
            let untouched = Gfn::new(150);
            host.swap.alloc(SlotInfo { vm, gfn: untouched, label: ContentLabel::ZERO }).unwrap();
        });
        assert!(err.contains("but backing is Some(None)"), "{err}");
    }

    #[test]
    fn audit_catches_a_frame_the_ept_does_not_map() {
        let err = audit_error(false, |host, vm| {
            let gfn = (0..128).map(Gfn::new).find(|&g| host.is_present(vm, g)).unwrap();
            host.vms[vm.index()].ept.unmap(gfn, Backing::None);
        });
        assert!(err.contains("but EPT says None"), "{err}");
    }

    #[test]
    fn audit_catches_a_suspect_block_still_associated() {
        let err = audit_error(true, |host, vm| {
            let mm = &mut host.vms[vm.index()];
            let page = (0..128).find(|&p| mm.origin.gfn_for_page(p).is_some()).unwrap();
            mm.set_suspect(page);
        });
        assert!(err.contains("suspect block"), "{err}");
    }
}

#[cfg(test)]
mod dynamics_tests {
    use super::*;

    fn host_with(dram_pages: u64, limit: u64, mapper: bool) -> (HostKernel, VmId) {
        let spec = HostSpec {
            dram: vswap_mem::MemBytes::from_bytes(dram_pages * 4096),
            disk_pages: 16384,
            swap_pages: 4096,
            hypervisor_code_pages: 4,
            ..HostSpec::paper_testbed()
        };
        let mut host = HostKernel::new(spec).unwrap();
        let vm = host
            .create_vm(VmMmConfig {
                gfn_count: 2048,
                image_pages: 4096,
                mem_limit_pages: limit,
                mapper_enabled: mapper,
            })
            .unwrap();
        (host, vm)
    }

    #[test]
    fn sequential_swap_cycle_keeps_readahead_effective() {
        // Touch 2x the limit repeatedly in order: slots stay sequential
        // enough for clusters to resolve several pages per fault.
        let (mut host, vm) = host_with(1024, 256, false);
        for round in 0..4 {
            for g in 0..512u64 {
                host.guest_access(SimTime::ZERO, vm, Gfn::new(g), round == 0);
            }
        }
        let s = host.stats();
        assert!(
            s.swap_readahead_extra * 2 > s.swap_ins,
            "sequential cycling must keep clusters fat: {} extras of {} ins",
            s.swap_readahead_extra,
            s.swap_ins
        );
        host.audit().unwrap();
    }

    #[test]
    fn write_behind_does_not_charge_eviction_latency() {
        let (mut host, vm) = host_with(1024, 64, false);
        // Fill to the limit, then one more touch triggers reclaim whose
        // swap-out write must not stall the access for a full write.
        for g in 0..64u64 {
            host.guest_access(SimTime::ZERO, vm, Gfn::new(g), true);
        }
        let out = host.guest_access(SimTime::ZERO, vm, Gfn::new(100), true);
        assert!(out.faulted && !out.major, "zero-fill after reclaim");
        assert!(
            out.latency < SimDuration::from_millis(2),
            "write-behind: eviction writes are asynchronous, got {}",
            out.latency
        );
        assert!(host.disk_stats().swap_sectors_written > 0, "the write still happened");
    }

    #[test]
    fn proportional_scan_spares_a_tiny_named_list() {
        // Baseline: the only named pages are the 4 hypervisor code pages.
        // A heavy anonymous churn must not evict them wholesale.
        let (mut host, vm) = host_with(1024, 128, false);
        for g in 0..1024u64 {
            host.guest_access(SimTime::ZERO, vm, Gfn::new(g), true);
        }
        let refaults = host.stats().hypervisor_code_refaults;
        let evictions = host.stats().swap_outs;
        assert!(
            refaults < evictions / 20,
            "hv-code refaults ({refaults}) must be rare next to {evictions} swap-outs"
        );
        host.audit().unwrap();
    }

    #[test]
    fn mapper_reclaim_prefers_the_large_named_pool() {
        // Under the Mapper, file pages dominate the named list and absorb
        // reclaim by discard, keeping anonymous pages resident.
        let (mut host, vm) = host_with(1024, 128, true);
        // 64 dirty anon pages + 512 named file pages.
        for g in 0..64u64 {
            host.guest_access(SimTime::ZERO, vm, Gfn::new(g), true);
        }
        for p in 0..512u64 {
            host.virt_disk_read_mapped(SimTime::ZERO, vm, p, &[Gfn::new(1024 + p)]);
        }
        let s = host.stats();
        assert!(s.named_discards > s.swap_outs * 4, "discards must dominate: {s:?}");
        host.audit().unwrap();
    }

    #[test]
    fn scattered_slots_shrink_the_adaptive_window() {
        let (mut host, vm) = host_with(1024, 256, false);
        // Prime: cycle pages so slots fill.
        for g in 0..1024u64 {
            host.guest_access(SimTime::ZERO, vm, Gfn::new(g), true);
        }
        // Touch in a stride pattern: prefetched neighbours are rarely the
        // next page and get evicted untouched — waste accumulates.
        let mut g = 0u64;
        for _ in 0..4096 {
            host.guest_access(SimTime::ZERO, vm, Gfn::new(g % 1024), false);
            g = (g + 509) % 1024; // co-prime stride
        }
        // The counter proves the feedback loop ran; the exact window is
        // internal. Waste must have been detected at least once.
        assert!(host.stats().swap_ins > 0);
        host.audit().unwrap();
    }
}

#[cfg(test)]
mod protection_tests {
    use super::*;

    #[test]
    fn protected_gfns_survive_heavy_pressure() {
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
                gfn_count: 256,
                image_pages: 512,
                mem_limit_pages: 64,
                mapper_enabled: false,
            })
            .unwrap();
        host.hint_protect_low_gfns(vm, 16);
        // Materialize the protected range, then churn far past the limit.
        for g in 0..16 {
            host.guest_access(SimTime::ZERO, vm, Gfn::new(g), true);
        }
        for round in 0..4 {
            for g in 16..240 {
                host.guest_access(SimTime::ZERO, vm, Gfn::new(g), round == 0);
            }
        }
        for g in 0..16 {
            assert!(host.is_present(vm, Gfn::new(g)), "protected gfn {g} must never be evicted");
        }
        host.audit().unwrap();
    }

    #[test]
    fn unprotected_equivalent_gets_evicted() {
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
                gfn_count: 256,
                image_pages: 512,
                mem_limit_pages: 64,
                mapper_enabled: false,
            })
            .unwrap();
        for g in 0..16 {
            host.guest_access(SimTime::ZERO, vm, Gfn::new(g), true);
        }
        for round in 0..4 {
            for g in 16..240 {
                host.guest_access(SimTime::ZERO, vm, Gfn::new(g), round == 0);
            }
        }
        let evicted = (0..16).filter(|&g| !host.is_present(vm, Gfn::new(g))).count();
        assert!(evicted > 0, "without the hint, cold low gfns get swapped");
        host.audit().unwrap();
    }

    #[test]
    fn page_signature_follows_content_everywhere() {
        let spec = HostSpec::small_test();
        let mut host = HostKernel::new(spec).unwrap();
        let vm = host
            .create_vm(VmMmConfig {
                gfn_count: 128,
                image_pages: 256,
                mem_limit_pages: 32,
                mapper_enabled: true,
            })
            .unwrap();
        // Untouched page: no signature.
        assert_eq!(host.page_signature(vm, Gfn::new(5)), None);
        assert_eq!(host.page_residency(vm, Gfn::new(5)), PageResidency::Untouched);
        // Resident anonymous.
        let w = host.guest_access(SimTime::ZERO, vm, Gfn::new(0), true);
        assert_eq!(host.page_signature(vm, Gfn::new(0)), Some(w.label));
        assert_eq!(host.page_residency(vm, Gfn::new(0)), PageResidency::ResidentAnon);
        // Resident named (mapped read).
        host.virt_disk_read_mapped(SimTime::ZERO, vm, 7, &[Gfn::new(1)]);
        assert_eq!(host.page_signature(vm, Gfn::new(1)), Some(host.image_label(vm, 7)));
        assert_eq!(host.page_residency(vm, Gfn::new(1)), PageResidency::ResidentNamed);
        // Force pressure: named discards and anon swaps.
        for g in 10..80 {
            host.guest_access(SimTime::ZERO, vm, Gfn::new(g), true);
        }
        match host.page_residency(vm, Gfn::new(1)) {
            PageResidency::Discarded => {
                assert_eq!(host.page_signature(vm, Gfn::new(1)), Some(host.image_label(vm, 7)));
            }
            PageResidency::ResidentNamed => {} // survived the pressure
            other => panic!("unexpected residency {other:?}"),
        }
        if !host.is_present(vm, Gfn::new(0)) {
            assert_eq!(host.page_residency(vm, Gfn::new(0)), PageResidency::Swapped);
            assert_eq!(host.page_signature(vm, Gfn::new(0)), Some(w.label));
        }
        host.audit().unwrap();
    }
}

#[cfg(test)]
mod multi_vm_tests {
    use super::*;

    fn multi_host(dram_pages: u64) -> HostKernel {
        let spec = HostSpec {
            dram: vswap_mem::MemBytes::from_bytes(dram_pages * 4096),
            disk_pages: 32768,
            swap_pages: 8192,
            hypervisor_code_pages: 4,
            ..HostSpec::paper_testbed()
        };
        HostKernel::new(spec).unwrap()
    }

    fn add_vm(host: &mut HostKernel, limit: u64) -> VmId {
        host.create_vm(VmMmConfig {
            gfn_count: 1024,
            image_pages: 2048,
            mem_limit_pages: limit,
            mapper_enabled: false,
        })
        .unwrap()
    }

    #[test]
    fn global_pressure_reclaims_from_the_biggest_vm() {
        // Three VMs with no per-VM limit on a host that fits ~1.5 of them.
        let mut host = multi_host(1536);
        let vms: Vec<VmId> = (0..3).map(|_| add_vm(&mut host, u64::MAX)).collect();
        // VM 0 hogs; then the others allocate and force global reclaim.
        for g in 0..900 {
            host.guest_access(SimTime::ZERO, vms[0], Gfn::new(g), true);
        }
        for &vm in &vms[1..] {
            for g in 0..400 {
                host.guest_access(SimTime::ZERO, vm, Gfn::new(g), true);
            }
        }
        assert!(host.stats().swap_outs > 0, "global pressure must evict someone");
        // The hog lost pages; the small VMs largely kept theirs.
        assert!(host.charged(vms[0]) < 900);
        host.audit().unwrap();
    }

    #[test]
    fn per_vm_limits_isolate_neighbours() {
        let mut host = multi_host(4096);
        let a = add_vm(&mut host, 128);
        let b = add_vm(&mut host, 1024);
        // A thrashes within its cgroup; B must keep everything resident.
        for g in 0..512 {
            host.guest_access(SimTime::ZERO, b, Gfn::new(g), true);
        }
        for round in 0..3 {
            for g in 0..512 {
                host.guest_access(SimTime::ZERO, a, Gfn::new(g), round == 0);
            }
        }
        for g in 0..512 {
            assert!(
                host.is_present(b, Gfn::new(g)),
                "B's page {g} must be untouched by A's thrashing"
            );
        }
        assert!(host.charged(a) <= 128 + host.spec().reclaim_batch);
        host.audit().unwrap();
    }

    #[test]
    fn swap_slots_attribute_to_the_right_vm() {
        let mut host = multi_host(512);
        let a = add_vm(&mut host, 128);
        let b = add_vm(&mut host, 128);
        let wa = host.guest_access(SimTime::ZERO, a, Gfn::new(0), true);
        let wb = host.guest_access(SimTime::ZERO, b, Gfn::new(0), true);
        for g in 1..512 {
            host.guest_access(SimTime::ZERO, a, Gfn::new(g), true);
            host.guest_access(SimTime::ZERO, b, Gfn::new(g), true);
        }
        // Both VMs' early pages got swapped; each faults back its own
        // content.
        let ra = host.guest_access(SimTime::ZERO, a, Gfn::new(0), false);
        let rb = host.guest_access(SimTime::ZERO, b, Gfn::new(0), false);
        assert_eq!(ra.label, wa.label);
        assert_eq!(rb.label, wb.label);
        assert_ne!(ra.label, rb.label, "content is per-VM");
        host.audit().unwrap();
    }

    #[test]
    fn readahead_never_maps_other_vms_pages() {
        let mut host = multi_host(512);
        let a = add_vm(&mut host, 128);
        let b = add_vm(&mut host, 128);
        // Interleave evictions so A's and B's slots alternate.
        for g in 0..400 {
            host.guest_access(SimTime::ZERO, a, Gfn::new(g), true);
            host.guest_access(SimTime::ZERO, b, Gfn::new(g), true);
        }
        let b_resident_before = host.resident_pages(b);
        // A faults one page back: its readahead cluster may only map A's.
        host.guest_access(SimTime::ZERO, a, Gfn::new(0), false);
        // B's residency may only have gone DOWN (evictions for A's frames).
        assert!(host.resident_pages(b) <= b_resident_before);
        host.audit().unwrap();
    }
}
