//! The guest kernel: page cache, readahead, anonymous memory, reclaim,
//! balloon driver, and the OOM killer.

use crate::fs::{FileId, FsFullError, GuestFs};
use crate::hardware::VirtualHardware;
use crate::process::{AnonPage, ProcId, Process};
use crate::spec::GuestSpec;
use crate::stats::GuestStats;
use crate::swap::{GuestSlotInfo, GuestSwap};
use sim_core::{DeterministicRng, SimDuration};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use vswap_mem::{ContentLabel, Gfn, IndexList, Vpn};

/// What a guest-physical page is used for, from the guest's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuestPageState {
    /// On the guest's free list.
    Free,
    /// Guest kernel text/data; pinned for the guest's lifetime.
    Kernel,
    /// Page-cache copy of a virtual-disk page.
    Cache {
        /// The cached virtual-disk image page.
        image_page: u64,
    },
    /// Anonymous memory of a guest process.
    Anon {
        /// Owning process.
        proc: ProcId,
        /// Virtual page within that process.
        vpn: Vpn,
    },
    /// Pinned by the balloon driver and donated to the host.
    Balloon,
}

// Packed page-state encoding: one `u64` per gfn with `0` meaning `Free`,
// so a fresh table is all-zero bytes and construction writes only the
// kernel-page prefix. Bits 0..3 hold the state kind; a cache page keeps its
// image page in bits 3..64, an anonymous page its process in bits 3..32
// and its virtual page in bits 32..64.
const STATE_KERNEL: u64 = 1;
const STATE_BALLOON: u64 = 2;
const STATE_CACHE: u64 = 3;
const STATE_ANON: u64 = 4;
const STATE_KIND_BITS: u64 = 0x7;
const STATE_SHIFT: u32 = 3;
const STATE_PROC_BITS: u64 = (1 << 29) - 1;
const STATE_VPN_SHIFT: u32 = 32;

#[inline]
fn pack_state(state: GuestPageState) -> u64 {
    match state {
        GuestPageState::Free => 0,
        GuestPageState::Kernel => STATE_KERNEL,
        GuestPageState::Balloon => STATE_BALLOON,
        GuestPageState::Cache { image_page } => {
            assert!(image_page < 1 << (64 - STATE_SHIFT), "image page out of packed range");
            STATE_CACHE | image_page << STATE_SHIFT
        }
        GuestPageState::Anon { proc, vpn } => {
            assert!(u64::from(proc.get()) <= STATE_PROC_BITS, "{proc} out of packed range");
            assert!(vpn.get() < 1 << 32, "{vpn} out of packed range");
            STATE_ANON | u64::from(proc.get()) << STATE_SHIFT | vpn.get() << STATE_VPN_SHIFT
        }
    }
}

#[inline]
fn unpack_state(bits: u64) -> GuestPageState {
    match bits & STATE_KIND_BITS {
        0 => GuestPageState::Free,
        STATE_KERNEL => GuestPageState::Kernel,
        STATE_BALLOON => GuestPageState::Balloon,
        STATE_CACHE => GuestPageState::Cache { image_page: bits >> STATE_SHIFT },
        STATE_ANON => GuestPageState::Anon {
            proc: ProcId::new(((bits >> STATE_SHIFT) & STATE_PROC_BITS) as u32),
            vpn: Vpn::new(bits >> STATE_VPN_SHIFT),
        },
        kind => unreachable!("corrupt guest page state kind {kind}"),
    }
}

/// Guest page state per gfn, packed (see the encoding above).
#[derive(Debug)]
struct PageStates {
    words: Vec<u64>,
}

impl PageStates {
    /// `gfn_count` pages, the first `kernel_pages` of them kernel pages
    /// and the rest free.
    fn new(gfn_count: u64, kernel_pages: u64) -> Self {
        let mut words = vec![0; gfn_count as usize];
        words[..kernel_pages as usize].fill(STATE_KERNEL);
        PageStates { words }
    }

    #[inline]
    fn get(&self, idx: usize) -> GuestPageState {
        unpack_state(self.words[idx])
    }

    #[inline]
    fn set(&mut self, gfn: Gfn, state: GuestPageState) {
        self.words[gfn.index()] = pack_state(state);
    }

    fn iter(&self) -> impl Iterator<Item = (Gfn, GuestPageState)> + '_ {
        self.words.iter().enumerate().map(|(i, &w)| (Gfn::new(i as u64), unpack_state(w)))
    }
}

/// The guest free-page list. Never-used gfns are handed out lowest
/// first; freed pages are reused FIFO (coldest first): at the scale of a
/// busy kernel, a freed frame sits in the allocator long enough for
/// plenty to happen to its host-side state — the precondition for stale
/// and false swap reads. The never-used run is a watermark rather than
/// queue entries, so construction writes nothing per page.
#[derive(Debug)]
struct FreeGfns {
    /// `fresh..end` have never been handed out.
    fresh: u64,
    end: u64,
    /// Freed gfns, oldest first.
    recycled: VecDeque<Gfn>,
}

impl FreeGfns {
    /// A list holding `start..end`, lowest first.
    fn new(start: u64, end: u64) -> Self {
        FreeGfns { fresh: start, end, recycled: VecDeque::new() }
    }

    fn len(&self) -> u64 {
        self.end - self.fresh + self.recycled.len() as u64
    }

    fn pop_front(&mut self) -> Option<Gfn> {
        if self.fresh < self.end {
            self.fresh += 1;
            return Some(Gfn::new(self.fresh - 1));
        }
        self.recycled.pop_front()
    }

    fn push_back(&mut self, gfn: Gfn) {
        self.recycled.push_back(gfn);
    }
}

/// Errors surfaced by guest kernel operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuestError {
    /// Memory could not be found even after invoking the OOM killer.
    OutOfMemory,
    /// The operation targeted a process the OOM killer has reaped.
    ProcessKilled(ProcId),
    /// The filesystem cannot hold a new file.
    FsFull(FsFullError),
}

impl fmt::Display for GuestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuestError::OutOfMemory => write!(f, "guest out of memory"),
            GuestError::ProcessKilled(p) => write!(f, "{p} was killed by the OOM killer"),
            GuestError::FsFull(e) => write!(f, "{e}"),
        }
    }
}

impl Error for GuestError {}

impl From<FsFullError> for GuestError {
    fn from(e: FsFullError) -> Self {
        GuestError::FsFull(e)
    }
}

#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    gfn: Gfn,
    dirty: bool,
    label: ContentLabel,
}

/// Dense page-cache index over image pages, stored as parallel arrays
/// whose empty state is all-zero bytes: construction over a multi-
/// gigabyte disk image is one `alloc_zeroed` (lazily mapped), not an
/// eager fill per guest.
#[derive(Debug)]
struct CacheIndex {
    /// `gfn + 1` per image page; `0` = not cached.
    gfn: Vec<u64>,
    /// Raw content label per cached image page.
    label: Vec<u64>,
    /// Dirty bit per image page (set only while the page is cached).
    dirty_bits: Vec<u64>,
}

impl CacheIndex {
    fn new(pages: u64) -> Self {
        CacheIndex {
            gfn: vec![0; pages as usize],
            label: vec![0; pages as usize],
            dirty_bits: vec![0; (pages as usize).div_ceil(64)],
        }
    }

    fn is_cached(&self, page: u64) -> bool {
        self.gfn[page as usize] != 0
    }

    fn get(&self, page: u64) -> Option<CacheEntry> {
        let gfn = self.gfn[page as usize].checked_sub(1)?;
        Some(CacheEntry {
            gfn: Gfn::new(gfn),
            dirty: self.dirty(page),
            label: ContentLabel::from_raw(self.label[page as usize]),
        })
    }

    fn insert(&mut self, page: u64, entry: CacheEntry) {
        self.gfn[page as usize] = entry.gfn.get() + 1;
        self.label[page as usize] = entry.label.get();
        self.set_dirty(page, entry.dirty);
    }

    fn remove(&mut self, page: u64) {
        self.gfn[page as usize] = 0;
        self.label[page as usize] = 0;
        self.set_dirty(page, false);
    }

    fn set_label(&mut self, page: u64, label: ContentLabel) {
        self.label[page as usize] = label.get();
    }

    fn dirty(&self, page: u64) -> bool {
        self.dirty_bits[(page / 64) as usize] & (1u64 << (page % 64)) != 0
    }

    fn set_dirty(&mut self, page: u64, dirty: bool) {
        let mask = 1u64 << (page % 64);
        if dirty {
            self.dirty_bits[(page / 64) as usize] |= mask;
        } else {
            self.dirty_bits[(page / 64) as usize] &= !mask;
        }
    }

    fn cached_count(&self) -> u64 {
        self.gfn.iter().filter(|&&g| g != 0).count() as u64
    }

    fn dirty_count(&self) -> u64 {
        self.dirty_bits.iter().map(|w| u64::from(w.count_ones())).sum()
    }
}

/// Minimum page-cache pages guest reclaim keeps before it starts swapping
/// anonymous memory instead.
const MIN_CACHE_PAGES: usize = 64;

/// The guest kernel. See the crate-level docs for an overview and example.
#[derive(Debug)]
pub struct GuestKernel {
    spec: GuestSpec,
    page_state: PageStates,
    free_gfns: FreeGfns,
    /// Page-cache index, dense over image pages (`spec.disk.pages()`
    /// entries). The reverse gfn → image-page direction lives in
    /// `page_state` as [`GuestPageState::Cache`], so cache lookups in
    /// both directions are array reads — no hashing on the fault path.
    cache: CacheIndex,
    cache_len: u64,
    cache_lru: IndexList,
    anon_lru: IndexList,
    dirty_fifo: VecDeque<u64>,
    dirty_count: u64,
    processes: Vec<Process>,
    fs: GuestFs,
    swap: GuestSwap,
    balloon: Vec<Gfn>,
    rng: DeterministicRng,
    stats: GuestStats,
    /// Decayed count of balloon-pressured anonymous swap-outs; crossing
    /// the spec's limit invokes the OOM killer (over-ballooning, §2.4).
    balloon_swap_score: u64,
    /// Operation counter driving periodic kernel-text touches.
    op_counter: u64,
    /// Round-robin cursor over the hot kernel pages.
    kernel_touch_cursor: u64,
    /// Reusable readahead-window snapshot for [`GuestKernel::guest_swap_in`];
    /// kept across faults so the steady state allocates nothing.
    swapin_scratch: Vec<(u64, GuestSlotInfo)>,
}

impl GuestKernel {
    /// Creates a guest with the given parameters. `seed` makes the guest's
    /// incidental randomness (unaligned-I/O choices) reproducible.
    ///
    /// # Panics
    ///
    /// Panics if the spec reserves more kernel pages than the guest has,
    /// or a swap partition larger than the disk.
    pub fn new(spec: GuestSpec, seed: u64) -> Self {
        let gfn_count = spec.memory.pages();
        assert!(spec.kernel_pages < gfn_count, "kernel larger than guest memory");
        let swap_pages = spec.swap.pages();
        let disk_pages = spec.disk.pages();
        assert!(swap_pages < disk_pages, "swap larger than guest disk");
        GuestKernel {
            page_state: PageStates::new(gfn_count, spec.kernel_pages),
            free_gfns: FreeGfns::new(spec.kernel_pages, gfn_count),
            cache: CacheIndex::new(disk_pages),
            cache_len: 0,
            cache_lru: IndexList::with_capacity(gfn_count as usize),
            anon_lru: IndexList::with_capacity(gfn_count as usize),
            dirty_fifo: VecDeque::new(),
            dirty_count: 0,
            processes: Vec::new(),
            fs: GuestFs::new(swap_pages, disk_pages),
            swap: GuestSwap::new(0, swap_pages),
            balloon: Vec::new(),
            rng: DeterministicRng::seed_from(seed),
            stats: GuestStats::default(),
            balloon_swap_score: 0,
            op_counter: 0,
            kernel_touch_cursor: 0,
            swapin_scratch: Vec::new(),
            spec,
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Guest parameters.
    pub fn spec(&self) -> &GuestSpec {
        &self.spec
    }

    /// Cumulative guest counters.
    pub fn stats(&self) -> &GuestStats {
        &self.stats
    }

    /// Pages currently in the guest page cache.
    pub fn cache_pages(&self) -> u64 {
        self.cache_len
    }

    /// Clean (non-dirty) pages in the guest page cache — the population
    /// the Swap Mapper can track (Figure 15).
    pub fn cache_clean_pages(&self) -> u64 {
        self.cache_len - self.dirty_count
    }

    /// Pages on the guest free list.
    pub fn free_pages(&self) -> u64 {
        self.free_gfns.len()
    }

    /// Pages currently pinned by the balloon.
    pub fn balloon_pages(&self) -> u64 {
        self.balloon.len() as u64
    }

    /// Resident anonymous pages across all processes.
    pub fn anon_resident_pages(&self) -> u64 {
        self.anon_lru.len() as u64
    }

    /// Every live guest page and the content the guest expects to read
    /// from it: resident page-cache and anonymous pages, in gfn order.
    /// Whatever the host did behind the guest's back — swap, discard,
    /// degrade, recover from an injected fault — the host-side signature
    /// of each listed gfn must equal the listed label. Gfns the guest has
    /// freed are deliberately absent: the host may keep stale copies of
    /// those, and their fate is not guest-visible.
    pub fn expected_resident_content(&self) -> Vec<(Gfn, ContentLabel)> {
        self.page_state
            .iter()
            .filter_map(|(gfn, state)| match state {
                GuestPageState::Cache { image_page } => {
                    Some((gfn, self.cache.get(image_page).expect("cached").label))
                }
                GuestPageState::Anon { proc, vpn } => {
                    match self.processes[proc.index()].pages[vpn.index()] {
                        AnonPage::Resident { gfn: g, label } => {
                            debug_assert_eq!(g, gfn);
                            Some((gfn, label))
                        }
                        _ => None,
                    }
                }
                _ => None,
            })
            .collect()
    }

    /// True if the process is still alive (not reaped by the OOM killer).
    pub fn is_alive(&self, proc: ProcId) -> bool {
        self.processes.get(proc.index()).is_some_and(|p| p.alive)
    }

    /// Size of a file in pages.
    pub fn file_len(&self, file: FileId) -> u64 {
        self.fs.len(file)
    }

    // ------------------------------------------------------------------
    // Files and processes
    // ------------------------------------------------------------------

    /// Creates a file of `pages` pages on the guest filesystem.
    ///
    /// # Errors
    ///
    /// Returns [`GuestError::FsFull`] if the disk has no room.
    pub fn create_file(&mut self, pages: u64) -> Result<FileId, GuestError> {
        Ok(self.fs.create(pages)?)
    }

    /// Spawns a process with an empty address space.
    pub fn spawn_process(&mut self) -> ProcId {
        self.processes.push(Process::new());
        ProcId::new(self.processes.len() as u32 - 1)
    }

    /// Grows a process's anonymous address space by `pages` pages,
    /// returning the first new virtual page. No memory is committed until
    /// the pages are touched.
    ///
    /// # Errors
    ///
    /// Returns [`GuestError::ProcessKilled`] if the process is dead.
    pub fn alloc_anon(&mut self, proc: ProcId, pages: u64) -> Result<Vpn, GuestError> {
        self.check_alive(proc)?;
        Ok(self.processes[proc.index()].grow(pages))
    }

    /// Boots the guest: reads its boot files and dirties daemon memory,
    /// populating the page cache the way a freshly booted OS would — so
    /// benchmark-time allocations recycle previously used frames.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures (should not happen at boot sizes).
    pub fn boot(&mut self, hw: &mut dyn VirtualHardware) -> Result<SimDuration, GuestError> {
        let mut elapsed = SimDuration::ZERO;
        if self.spec.boot_file_pages > 0 {
            let boot_file = self.create_file(self.spec.boot_file_pages)?;
            elapsed += self.read_file(hw, boot_file, 0, self.spec.boot_file_pages)?;
        }
        if self.spec.boot_anon_pages > 0 {
            let init = self.spawn_process();
            let vpn = self.alloc_anon(init, self.spec.boot_anon_pages)?;
            for i in 0..self.spec.boot_anon_pages {
                elapsed += self.touch_anon(hw, init, vpn.offset(i), true)?;
            }
        }
        Ok(elapsed)
    }

    // ------------------------------------------------------------------
    // File I/O
    // ------------------------------------------------------------------

    /// Reads `count` pages of `file` starting at page `offset` through the
    /// page cache, with sequential readahead on misses.
    ///
    /// # Errors
    ///
    /// Returns [`GuestError::OutOfMemory`] if cache pages cannot be
    /// allocated even after the OOM killer runs.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the file.
    pub fn read_file(
        &mut self,
        hw: &mut dyn VirtualHardware,
        file: FileId,
        offset: u64,
        count: u64,
    ) -> Result<SimDuration, GuestError> {
        let mut elapsed = self.kernel_text_touch(hw);
        let file_len = self.fs.len(file);
        assert!(offset + count <= file_len, "read past end of {file}");
        let mut p = offset;
        while p < offset + count {
            let image_page = self.fs.image_page(file, p);
            if let Some(entry) = self.cache.get(image_page) {
                self.stats.cache_hits += 1;
                let r = hw.mem_read(entry.gfn);
                debug_assert_eq!(r.label, entry.label, "cache content diverged at {file}:{p}");
                elapsed += r.latency;
                self.cache_lru.move_to_back(entry.gfn.index());
                p += 1;
                continue;
            }

            // Miss: read a readahead run of uncached pages.
            self.stats.cache_misses += 1;
            let max_run = self.spec.file_readahead.min(file_len - p);
            let mut run = 0;
            while run < max_run {
                let ip = self.fs.image_page(file, p + run);
                if self.cache.is_cached(ip) {
                    break;
                }
                run += 1;
            }
            debug_assert!(run >= 1);
            let mut gfns = Vec::with_capacity(run as usize);
            for _ in 0..run {
                gfns.push(self.alloc_gfn(hw)?);
            }
            let aligned = !self.rng.chance(self.spec.unaligned_io_fraction);
            elapsed += hw.disk_read(image_page, &gfns, aligned);
            for (i, &gfn) in gfns.iter().enumerate() {
                let ip = image_page + i as u64;
                let label = hw.image_label(ip);
                self.install_cache_page(gfn, ip, label, false);
            }
            self.stats.readahead_pages += run - 1;
            let first = self.cache.get(image_page).expect("just installed");
            let r = hw.mem_read(first.gfn);
            debug_assert_eq!(r.label, first.label, "freshly read content diverged");
            elapsed += r.latency;
            p += 1;
        }
        self.writeback_if_over_ratio(hw, &mut elapsed);
        Ok(elapsed)
    }

    /// Writes `count` whole pages of `file` starting at page `offset`
    /// through the page cache (write-back caching).
    ///
    /// # Errors
    ///
    /// Returns [`GuestError::OutOfMemory`] on allocation failure.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the file.
    pub fn write_file(
        &mut self,
        hw: &mut dyn VirtualHardware,
        file: FileId,
        offset: u64,
        count: u64,
    ) -> Result<SimDuration, GuestError> {
        let mut elapsed = self.kernel_text_touch(hw);
        assert!(offset + count <= self.fs.len(file), "write past end of {file}");
        for p in offset..offset + count {
            let image_page = self.fs.image_page(file, p);
            if let Some(entry) = self.cache.get(image_page) {
                let r = hw.mem_write(entry.gfn);
                elapsed += r.latency;
                self.cache_lru.move_to_back(entry.gfn.index());
                self.mark_dirty(image_page, r.label);
            } else {
                let gfn = self.alloc_gfn(hw)?;
                let label = hw.fresh_label();
                let r = hw.mem_overwrite(gfn, label);
                elapsed += r.latency;
                self.install_cache_page(gfn, image_page, label, true);
            }
        }
        self.writeback_if_over_ratio(hw, &mut elapsed);
        Ok(elapsed)
    }

    /// Flushes every dirty page-cache page to the virtual disk (fsync).
    pub fn sync(&mut self, hw: &mut dyn VirtualHardware) -> SimDuration {
        let mut elapsed = SimDuration::ZERO;
        while self.dirty_count > 0 {
            elapsed += self.writeback_batch(hw, 64);
        }
        elapsed
    }

    /// Drops the entire page cache (`echo 3 > /proc/sys/vm/drop_caches`),
    /// writing dirty pages back first. The freed frames join the free
    /// list; the host is *not* told (it keeps their stale copies — the
    /// seed of future stale and false swap reads).
    pub fn drop_caches(&mut self, hw: &mut dyn VirtualHardware) -> SimDuration {
        let mut elapsed = self.sync(hw);
        while let Some(idx) = self.cache_lru.pop_front() {
            let gfn = Gfn::new(idx as u64);
            let GuestPageState::Cache { image_page } = self.page_state.get(idx) else {
                unreachable!("cache LRU holds only cache pages");
            };
            self.cache.remove(image_page);
            self.cache_len -= 1;
            self.stats.dropped_clean += 1;
            self.release_gfn(gfn);
        }
        // Dropping a quarter-million entries takes the kernel a moment.
        elapsed += SimDuration::from_micros(50);
        elapsed
    }

    /// Invalidates one page whose only copy died with a crashed host:
    /// the guest drops it and re-faults on next access, exactly like a
    /// page-cache drop or a never-swapped-in anonymous page after a
    /// power failure. A dirty cache page reverts to the on-disk file
    /// content (the un-synced write is lost); a resident anonymous page
    /// reverts to untouched (zero-fill on next touch). Kernel, balloon,
    /// and free pages need no invalidation. Returns `true` if guest
    /// state changed.
    pub fn crash_drop_page(&mut self, gfn: Gfn) -> bool {
        match self.page_state.get(gfn.index()) {
            GuestPageState::Cache { image_page } => {
                self.clear_dirty(image_page);
                self.cache_lru.remove(gfn.index());
                self.cache.remove(image_page);
                self.cache_len -= 1;
                self.stats.dropped_clean += 1;
                self.release_gfn(gfn);
                true
            }
            GuestPageState::Anon { proc, vpn } => {
                self.anon_lru.remove(gfn.index());
                self.processes[proc.index()].pages[vpn.index()] = AnonPage::Untouched;
                self.release_gfn(gfn);
                true
            }
            GuestPageState::Kernel | GuestPageState::Balloon | GuestPageState::Free => false,
        }
    }

    // ------------------------------------------------------------------
    // Anonymous memory
    // ------------------------------------------------------------------

    /// Touches one anonymous page, materializing (zeroing) it on first
    /// touch and swapping it in from the guest swap partition if the guest
    /// paged it out.
    ///
    /// # Errors
    ///
    /// Returns [`GuestError::ProcessKilled`] if the process is dead, or
    /// [`GuestError::OutOfMemory`] on allocation failure.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` was never allocated.
    pub fn touch_anon(
        &mut self,
        hw: &mut dyn VirtualHardware,
        proc: ProcId,
        vpn: Vpn,
        write: bool,
    ) -> Result<SimDuration, GuestError> {
        self.check_alive(proc)?;
        let mut elapsed = self.kernel_text_touch(hw);
        match self.processes[proc.index()].pages[vpn.index()] {
            AnonPage::Untouched => {
                let gfn = self.alloc_gfn_for(hw, proc)?;
                // Zero the (possibly recycled) frame: a full-page
                // overwrite the host cannot predict.
                let r = hw.mem_overwrite(gfn, ContentLabel::ZERO);
                elapsed += r.latency;
                self.stats.pages_zeroed += 1;
                let label = if write {
                    let w = hw.mem_write(gfn);
                    elapsed += w.latency;
                    w.label
                } else {
                    ContentLabel::ZERO
                };
                self.install_anon_page(gfn, proc, vpn, label);
            }
            AnonPage::Resident { gfn, label } => {
                let r = if write { hw.mem_write(gfn) } else { hw.mem_read(gfn) };
                if !write {
                    debug_assert_eq!(r.label, label, "anon content diverged at {proc}/{vpn}");
                }
                elapsed += r.latency;
                self.anon_lru.move_to_back(gfn.index());
                if write {
                    self.set_anon_label(proc, vpn, r.label);
                }
            }
            AnonPage::Swapped { slot, .. } => {
                elapsed += self.guest_swap_in(hw, slot)?;
                // Retry: the page is resident now.
                elapsed += self.touch_anon(hw, proc, vpn, write)?;
            }
        }
        Ok(elapsed)
    }

    /// Overwrites one whole anonymous page with fresh content (memset,
    /// memcpy destination). Unlike [`GuestKernel::touch_anon`] with
    /// `write`, a swapped-out page is *not* swapped in — its old content
    /// is dead — and a host-swapped page triggers the false-read path.
    ///
    /// # Errors
    ///
    /// Same as [`GuestKernel::touch_anon`].
    ///
    /// # Panics
    ///
    /// Panics if `vpn` was never allocated.
    pub fn overwrite_anon(
        &mut self,
        hw: &mut dyn VirtualHardware,
        proc: ProcId,
        vpn: Vpn,
    ) -> Result<SimDuration, GuestError> {
        self.check_alive(proc)?;
        let mut elapsed = self.kernel_text_touch(hw);
        match self.processes[proc.index()].pages[vpn.index()] {
            AnonPage::Untouched => {
                let gfn = self.alloc_gfn_for(hw, proc)?;
                let label = hw.fresh_label();
                let r = hw.mem_overwrite(gfn, label);
                elapsed += r.latency;
                self.stats.pages_zeroed += 1;
                self.install_anon_page(gfn, proc, vpn, label);
            }
            AnonPage::Resident { gfn, .. } => {
                let label = hw.fresh_label();
                let r = hw.mem_overwrite(gfn, label);
                elapsed += r.latency;
                self.anon_lru.move_to_back(gfn.index());
                self.set_anon_label(proc, vpn, label);
            }
            AnonPage::Swapped { slot, .. } => {
                // The guest knows the old content is garbage: release the
                // guest swap slot and materialize a fresh page.
                self.swap.free(slot);
                self.processes[proc.index()].pages[vpn.index()] = AnonPage::Untouched;
                let gfn = self.alloc_gfn_for(hw, proc)?;
                let label = hw.fresh_label();
                let r = hw.mem_overwrite(gfn, label);
                elapsed += r.latency;
                self.install_anon_page(gfn, proc, vpn, label);
            }
        }
        Ok(elapsed)
    }

    /// Frees `count` anonymous pages of `proc` starting at `vpn`.
    ///
    /// # Errors
    ///
    /// Returns [`GuestError::ProcessKilled`] if the process is dead.
    pub fn free_anon(&mut self, proc: ProcId, vpn: Vpn, count: u64) -> Result<(), GuestError> {
        self.check_alive(proc)?;
        for i in 0..count {
            let v = vpn.offset(i);
            match self.processes[proc.index()].pages[v.index()] {
                AnonPage::Untouched => {}
                AnonPage::Resident { gfn, .. } => {
                    self.anon_lru.remove(gfn.index());
                    self.release_gfn(gfn);
                }
                AnonPage::Swapped { slot, .. } => self.swap.free(slot),
            }
            self.processes[proc.index()].pages[v.index()] = AnonPage::Untouched;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Ballooning
    // ------------------------------------------------------------------

    /// Inflates or deflates the balloon to `target` pinned pages. Inflation
    /// forces guest reclaim (and can trigger the OOM killer — the
    /// over-ballooning failure of §2.4); deflation returns pages to the
    /// guest free list.
    ///
    /// # Errors
    ///
    /// Returns [`GuestError::OutOfMemory`] if inflation cannot find pages
    /// even after the OOM killer runs.
    pub fn balloon_set_target(
        &mut self,
        hw: &mut dyn VirtualHardware,
        target: u64,
    ) -> Result<SimDuration, GuestError> {
        let mut elapsed = SimDuration::ZERO;
        while (self.balloon.len() as u64) < target {
            let gfn = match self.alloc_gfn(hw) {
                Ok(gfn) => gfn,
                Err(e) => {
                    self.stats.balloon_pages = self.balloon.len() as u64;
                    return Err(e);
                }
            };
            self.page_state.set(gfn, GuestPageState::Balloon);
            hw.balloon_release(gfn);
            self.balloon.push(gfn);
            // Guest reclaim I/O time is charged through alloc_gfn's
            // reclaim; inflation itself is cheap.
            elapsed += SimDuration::from_nanos(200);
        }
        while (self.balloon.len() as u64) > target {
            let gfn = self.balloon.pop().expect("balloon non-empty");
            self.release_gfn(gfn);
        }
        self.stats.balloon_pages = self.balloon.len() as u64;
        Ok(elapsed)
    }

    // ------------------------------------------------------------------
    // Reclaim, allocation, OOM
    // ------------------------------------------------------------------

    /// Allocates one guest-physical page, reclaiming or OOM-killing as
    /// needed.
    fn alloc_gfn(&mut self, hw: &mut dyn VirtualHardware) -> Result<Gfn, GuestError> {
        if let Some(gfn) = self.free_gfns.pop_front() {
            // Real slack (more than one reclaim batch free) means pressure
            // is easing; pages just freed by our own direct reclaim do not
            // count.
            if self.free_gfns.len() > self.spec.reclaim_batch {
                self.balloon_swap_score = self.balloon_swap_score.saturating_sub(1);
            }
            return Ok(gfn);
        }
        self.reclaim(hw, self.spec.reclaim_batch);
        if let Some(gfn) = self.free_gfns.pop_front() {
            return Ok(gfn);
        }
        self.oom_kill();
        self.free_gfns.pop_front().ok_or(GuestError::OutOfMemory)
    }

    /// Allocates a page on behalf of `proc`, handling the case where the
    /// allocation's own reclaim pressure OOM-killed the requester.
    fn alloc_gfn_for(
        &mut self,
        hw: &mut dyn VirtualHardware,
        proc: ProcId,
    ) -> Result<Gfn, GuestError> {
        let gfn = self.alloc_gfn(hw)?;
        if !self.is_alive(proc) {
            self.release_gfn(gfn);
            return Err(GuestError::ProcessKilled(proc));
        }
        Ok(gfn)
    }

    /// Guest direct reclaim: drops clean page-cache pages first (keeping a
    /// small cache floor), writes back dirty ones, then swaps anonymous
    /// pages to the guest swap partition.
    fn reclaim(&mut self, hw: &mut dyn VirtualHardware, want: u64) {
        self.stats.reclaim_runs += 1;
        let mut freed = 0;
        while freed < want {
            let prefer_cache = !self.cache_lru.is_empty()
                && (self.cache_lru.len() > MIN_CACHE_PAGES || self.anon_lru.is_empty());
            if prefer_cache && self.drop_cache_victim(hw) {
                freed += 1;
                continue;
            }
            if self.swap_out_anon_victim(hw) {
                freed += 1;
                continue;
            }
            // Last resort: drain the cache below the floor.
            if !self.cache_lru.is_empty() && self.drop_cache_victim(hw) {
                freed += 1;
                continue;
            }
            break; // nothing reclaimable
        }
    }

    /// Drops the least-recently-used page-cache page (writing it back
    /// first if dirty). Returns false if the cache is empty.
    fn drop_cache_victim(&mut self, hw: &mut dyn VirtualHardware) -> bool {
        let Some(idx) = self.cache_lru.front() else { return false };
        let gfn = Gfn::new(idx as u64);
        let GuestPageState::Cache { image_page } = self.page_state.get(idx) else {
            unreachable!("cache LRU holds only cache pages");
        };
        let entry = self.cache.get(image_page).expect("cached");
        if entry.dirty {
            hw.disk_write_behind(&[gfn], image_page, true);
            self.stats.writebacks += 1;
            self.clear_dirty(image_page);
        } else {
            self.stats.dropped_clean += 1;
        }
        self.cache_lru.remove(idx);
        self.cache.remove(image_page);
        self.cache_len -= 1;
        self.release_gfn(gfn);
        true
    }

    /// Swaps the least-recently-used anonymous page to the guest swap
    /// partition. Returns false if there is nothing to swap or swap is
    /// full.
    fn swap_out_anon_victim(&mut self, hw: &mut dyn VirtualHardware) -> bool {
        let Some(idx) = self.anon_lru.front() else { return false };
        let gfn = Gfn::new(idx as u64);
        let GuestPageState::Anon { proc, vpn } = self.page_state.get(idx) else {
            unreachable!("anon LRU holds only anon pages");
        };
        let AnonPage::Resident { label, .. } = self.processes[proc.index()].pages[vpn.index()]
        else {
            unreachable!("resident page expected");
        };
        let Some(slot) = self.swap.alloc(GuestSlotInfo { proc, vpn, label }) else {
            return false;
        };
        hw.disk_write_behind(&[gfn], self.swap.image_page(slot), true);
        self.stats.swap_outs += 1;
        hw.observe(sim_obs::Event::GuestSwapOut { pages: 1 });
        self.processes[proc.index()].pages[vpn.index()] = AnonPage::Swapped { slot, label };
        self.anon_lru.remove(idx);
        self.note_balloon_pressure();
        self.release_gfn(gfn);
        true
    }

    /// Over-ballooning detection: an anonymous swap-out while the balloon
    /// is inflated means reclaim is racing allocation demand. A sustained
    /// run of them (allocations served without reclaim decay the score)
    /// makes the kernel give up and OOM-kill — the failure the paper
    /// observes in its KVM setup (§2.4).
    fn note_balloon_pressure(&mut self) {
        if self.balloon.is_empty() {
            return;
        }
        self.balloon_swap_score += 1;
        // The tolerance cannot exceed a quarter of the guest's memory:
        // a small guest gives up sooner in absolute terms.
        let limit = self.spec.oom_balloon_swap_limit.min(self.spec.memory.pages() / 4);
        if self.balloon_swap_score > limit {
            self.balloon_swap_score = 0;
            self.oom_kill();
        }
    }

    /// Swaps in the page at `slot` plus a readahead window of neighbours.
    fn guest_swap_in(
        &mut self,
        hw: &mut dyn VirtualHardware,
        slot: u64,
    ) -> Result<SimDuration, GuestError> {
        let mut elapsed = SimDuration::ZERO;
        let mut loaded = 0;
        // Snapshot the window into a reusable scratch buffer: the loop
        // below mutates `self.swap` (alloc_gfn may reclaim), so it cannot
        // borrow the partition while walking it.
        let mut window = std::mem::take(&mut self.swapin_scratch);
        self.swap.window_into(slot, self.spec.swap_readahead, &mut window);
        for &(s, info) in &window {
            if self.swap.get(s) != Some(info) {
                continue; // raced with reclaim during our own allocations
            }
            if !self.is_alive(info.proc) {
                continue;
            }
            let gfn = self.alloc_gfn(hw)?;
            // The allocation may have run the OOM killer: revalidate.
            if self.swap.get(s) != Some(info) || !self.is_alive(info.proc) {
                self.release_gfn(gfn);
                continue;
            }
            elapsed += hw.disk_read(self.swap.image_page(s), &[gfn], true);
            debug_assert_eq!(hw.image_label(self.swap.image_page(s)), info.label);
            self.install_anon_page(gfn, info.proc, info.vpn, info.label);
            self.swap.free(s);
            self.stats.swap_ins += 1;
            loaded += 1;
            if s != slot {
                self.stats.swap_readahead += 1;
            }
        }
        self.swapin_scratch = window;
        if loaded > 0 {
            hw.observe(sim_obs::Event::GuestSwapIn { pages: loaded });
        }
        Ok(elapsed)
    }

    /// Kills the process with the largest resident set, freeing all its
    /// memory (the over-ballooning casualty, §2.4).
    fn oom_kill(&mut self) {
        let victim = self
            .processes
            .iter()
            .enumerate()
            .filter(|(_, p)| p.alive)
            .max_by_key(|(_, p)| p.resident_count())
            .map(|(i, _)| ProcId::new(i as u32));
        let Some(victim) = victim else { return };
        self.stats.oom_kills += 1;
        let pages = std::mem::take(&mut self.processes[victim.index()].pages);
        self.processes[victim.index()].alive = false;
        for page in pages {
            match page {
                AnonPage::Untouched => {}
                AnonPage::Resident { gfn, .. } => {
                    self.anon_lru.remove(gfn.index());
                    self.release_gfn(gfn);
                }
                AnonPage::Swapped { slot, .. } => self.swap.free(slot),
            }
        }
    }

    // ------------------------------------------------------------------
    // Internal bookkeeping
    // ------------------------------------------------------------------

    /// Every guest operation runs kernel code: periodically touch a hot
    /// kernel-text page. The guest itself never pages these out, but an
    /// uncooperative host can — and then every syscall stalls on a major
    /// fault (the phenomenon behind the paper's §7 suggestion to teach
    /// hypervisors that kernels never page out their own text).
    fn kernel_text_touch(&mut self, hw: &mut dyn VirtualHardware) -> SimDuration {
        self.op_counter += 1;
        if self.op_counter % 64 != 0 || self.spec.kernel_pages == 0 {
            return SimDuration::ZERO;
        }
        // A quarter of the kernel is hot text.
        let hot = (self.spec.kernel_pages / 4).max(1);
        let page = self.kernel_touch_cursor % hot;
        self.kernel_touch_cursor += 1;
        hw.mem_read(Gfn::new(page)).latency
    }

    fn check_alive(&self, proc: ProcId) -> Result<(), GuestError> {
        if self.is_alive(proc) {
            Ok(())
        } else {
            Err(GuestError::ProcessKilled(proc))
        }
    }

    fn install_cache_page(&mut self, gfn: Gfn, image_page: u64, label: ContentLabel, dirty: bool) {
        self.page_state.set(gfn, GuestPageState::Cache { image_page });
        debug_assert!(!self.cache.is_cached(image_page), "double-caching {image_page}");
        self.cache.insert(image_page, CacheEntry { gfn, dirty, label });
        self.cache_len += 1;
        self.cache_lru.push_back(gfn.index());
        if dirty {
            self.dirty_count += 1;
            self.dirty_fifo.push_back(image_page);
        }
    }

    fn install_anon_page(&mut self, gfn: Gfn, proc: ProcId, vpn: Vpn, label: ContentLabel) {
        self.page_state.set(gfn, GuestPageState::Anon { proc, vpn });
        self.processes[proc.index()].pages[vpn.index()] = AnonPage::Resident { gfn, label };
        self.anon_lru.push_back(gfn.index());
    }

    fn set_anon_label(&mut self, proc: ProcId, vpn: Vpn, label: ContentLabel) {
        if let AnonPage::Resident { gfn, .. } = self.processes[proc.index()].pages[vpn.index()] {
            self.processes[proc.index()].pages[vpn.index()] = AnonPage::Resident { gfn, label };
        }
    }

    fn release_gfn(&mut self, gfn: Gfn) {
        self.page_state.set(gfn, GuestPageState::Free);
        self.free_gfns.push_back(gfn);
    }

    fn mark_dirty(&mut self, image_page: u64, label: ContentLabel) {
        assert!(self.cache.is_cached(image_page), "cached");
        self.cache.set_label(image_page, label);
        if !self.cache.dirty(image_page) {
            self.cache.set_dirty(image_page, true);
            self.dirty_count += 1;
            self.dirty_fifo.push_back(image_page);
        }
    }

    fn clear_dirty(&mut self, image_page: u64) {
        assert!(self.cache.is_cached(image_page), "cached");
        if self.cache.dirty(image_page) {
            self.cache.set_dirty(image_page, false);
            self.dirty_count -= 1;
        }
    }

    fn writeback_if_over_ratio(&mut self, hw: &mut dyn VirtualHardware, elapsed: &mut SimDuration) {
        let limit = (self.spec.memory.pages() as f64 * self.spec.dirty_ratio) as u64;
        while self.dirty_count > limit.max(1) {
            *elapsed += self.writeback_batch(hw, 64);
        }
    }

    /// Writes back up to `batch` dirty pages, grouping contiguous image
    /// pages into single requests.
    fn writeback_batch(&mut self, hw: &mut dyn VirtualHardware, batch: u64) -> SimDuration {
        let mut elapsed = SimDuration::ZERO;
        let mut victims: Vec<u64> = Vec::new();
        while victims.len() < batch as usize {
            let Some(image_page) = self.dirty_fifo.pop_front() else { break };
            if self.cache.is_cached(image_page) && self.cache.dirty(image_page) {
                victims.push(image_page);
            }
        }
        victims.sort_unstable();
        let mut i = 0;
        while i < victims.len() {
            let mut j = i + 1;
            while j < victims.len() && victims[j] == victims[j - 1] + 1 {
                j += 1;
            }
            let gfns: Vec<Gfn> =
                victims[i..j].iter().map(|p| self.cache.get(*p).expect("cached").gfn).collect();
            elapsed += hw.disk_write(&gfns, victims[i], true);
            for p in &victims[i..j] {
                self.clear_dirty(*p);
                self.stats.writebacks += 1;
            }
            i = j;
        }
        elapsed
    }

    /// Checks internal invariants; for tests.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn audit(&self) -> Result<(), String> {
        let mut counted_free = 0u64;
        for (gfn, state) in self.page_state.iter() {
            let i = gfn.index();
            match state {
                GuestPageState::Free => counted_free += 1,
                GuestPageState::Kernel | GuestPageState::Balloon => {}
                GuestPageState::Cache { image_page } => {
                    let entry = self
                        .cache
                        .get(image_page)
                        .ok_or_else(|| format!("{gfn} claims uncached page {image_page}"))?;
                    if entry.gfn != gfn {
                        return Err(format!("cache entry for {image_page} points elsewhere"));
                    }
                    if !self.cache_lru.contains(i) {
                        return Err(format!("{gfn} cached but not on cache LRU"));
                    }
                }
                GuestPageState::Anon { proc, vpn } => {
                    match self.processes[proc.index()].pages[vpn.index()] {
                        AnonPage::Resident { gfn: g, .. } if g == gfn => {}
                        other => {
                            return Err(format!("{gfn} claims {proc}/{vpn} but found {other:?}"))
                        }
                    }
                    if !self.anon_lru.contains(i) {
                        return Err(format!("{gfn} anon but not on anon LRU"));
                    }
                }
            }
        }
        if counted_free != self.free_pages() {
            return Err(format!(
                "free count mismatch: {} states vs {} on list",
                counted_free,
                self.free_pages()
            ));
        }
        let cached = self.cache.cached_count();
        if cached != self.cache_len {
            return Err(format!("cache len {} != actual {cached}", self.cache_len));
        }
        if self.cache_len != self.cache_lru.len() as u64 {
            return Err("cache index and LRU out of sync".to_owned());
        }
        let dirty = self.cache.dirty_count();
        if dirty != self.dirty_count {
            return Err(format!("dirty count {} != actual {dirty}", self.dirty_count));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::MockHardware;

    /// A 256-page guest (16 kernel pages => 240 usable) over a 4096-page
    /// disk with a 512-page swap partition.
    fn small_guest() -> (GuestKernel, MockHardware) {
        let spec = GuestSpec {
            memory: vswap_mem::MemBytes::from_bytes(256 * 4096),
            disk: vswap_mem::MemBytes::from_bytes(4096 * 4096),
            swap: vswap_mem::MemBytes::from_bytes(512 * 4096),
            file_readahead: 8,
            swap_readahead: 4,
            reclaim_batch: 8,
            kernel_pages: 16,
            boot_file_pages: 0,
            boot_anon_pages: 0,
            ..GuestSpec::linux_default()
        };
        (GuestKernel::new(spec, 42), MockHardware::new(4096))
    }

    #[test]
    fn read_uses_readahead_and_cache() {
        let (mut g, mut hw) = small_guest();
        let f = g.create_file(32).unwrap();
        g.read_file(&mut hw, f, 0, 32).unwrap();
        // 32 pages / 8-page readahead = 4 misses.
        assert_eq!(g.stats().cache_misses, 4);
        assert_eq!(g.stats().readahead_pages, 32 - 4);
        assert_eq!(hw.disk_reads, 4);
        // Pages brought in by readahead count as hits when touched: 28.
        assert_eq!(g.stats().cache_hits, 28);
        g.read_file(&mut hw, f, 0, 32).unwrap();
        assert_eq!(g.stats().cache_misses, 4, "second pass fully cached");
        assert_eq!(g.stats().cache_hits, 28 + 32);
        g.audit().unwrap();
    }

    #[test]
    fn cache_pressure_drops_clean_pages_silently() {
        let (mut g, mut hw) = small_guest();
        // 400 file pages > 240 usable: reclaim must drop clean cache.
        let f = g.create_file(400).unwrap();
        g.read_file(&mut hw, f, 0, 400).unwrap();
        assert!(g.stats().dropped_clean > 0);
        assert_eq!(hw.disk_writes, 0, "clean drops cost no I/O");
        assert!(g.cache_pages() <= 240);
        g.audit().unwrap();
    }

    #[test]
    fn rereading_dropped_pages_misses_again() {
        let (mut g, mut hw) = small_guest();
        let f = g.create_file(400).unwrap();
        g.read_file(&mut hw, f, 0, 400).unwrap();
        let misses = g.stats().cache_misses;
        g.read_file(&mut hw, f, 0, 64).unwrap();
        assert!(g.stats().cache_misses > misses, "dropped pages must be re-read");
        g.audit().unwrap();
    }

    #[test]
    fn write_file_dirties_and_writeback_on_sync() {
        let (mut g, mut hw) = small_guest();
        let f = g.create_file(16).unwrap();
        g.write_file(&mut hw, f, 0, 16).unwrap();
        assert_eq!(g.cache_pages(), 16);
        assert_eq!(g.cache_clean_pages(), 0);
        let d = g.sync(&mut hw);
        assert!(d.as_nanos() > 0);
        assert_eq!(g.stats().writebacks, 16);
        assert_eq!(g.cache_clean_pages(), 16);
        // Content round-trips: re-reading gives the written labels.
        g.audit().unwrap();
    }

    #[test]
    fn written_content_round_trips_through_disk() {
        let (mut g, mut hw) = small_guest();
        let f = g.create_file(4).unwrap();
        g.write_file(&mut hw, f, 0, 4).unwrap();
        g.sync(&mut hw);
        // Force the cache out.
        let big = g.create_file(400).unwrap();
        g.read_file(&mut hw, big, 0, 400).unwrap();
        // Re-read: content must match what the image now stores (the
        // debug assertion inside read_file checks label equality).
        g.read_file(&mut hw, f, 0, 4).unwrap();
        g.audit().unwrap();
    }

    #[test]
    fn anon_pressure_swaps_to_guest_swap() {
        let (mut g, mut hw) = small_guest();
        let p = g.spawn_process();
        let base = g.alloc_anon(p, 300).unwrap();
        for i in 0..300 {
            g.touch_anon(&mut hw, p, base.offset(i), true).unwrap();
        }
        assert!(g.stats().swap_outs > 0, "working set exceeds memory");
        assert!(g.is_alive(p), "swap absorbs the overcommit");
        // Touch an early page: swap-in with readahead.
        g.touch_anon(&mut hw, p, base, false).unwrap();
        assert!(g.stats().swap_ins > 0);
        assert!(g.stats().swap_readahead > 0);
        g.audit().unwrap();
    }

    #[test]
    fn overwrite_of_guest_swapped_page_skips_swap_in() {
        let (mut g, mut hw) = small_guest();
        let p = g.spawn_process();
        let base = g.alloc_anon(p, 300).unwrap();
        for i in 0..300 {
            g.touch_anon(&mut hw, p, base.offset(i), true).unwrap();
        }
        let swap_ins = g.stats().swap_ins;
        // Find a guest-swapped page and overwrite it wholesale.
        let victim = (0..300)
            .map(|i| base.offset(i))
            .find(|v| matches!(g.processes[p.index()].pages[v.index()], AnonPage::Swapped { .. }))
            .expect("something guest-swapped");
        g.overwrite_anon(&mut hw, p, victim).unwrap();
        assert_eq!(g.stats().swap_ins, swap_ins, "old content must not be read");
        g.audit().unwrap();
    }

    #[test]
    fn balloon_inflation_reclaims_and_deflation_returns() {
        let (mut g, mut hw) = small_guest();
        let f = g.create_file(200).unwrap();
        g.read_file(&mut hw, f, 0, 200).unwrap();
        g.balloon_set_target(&mut hw, 100).unwrap();
        assert_eq!(g.balloon_pages(), 100);
        assert_eq!(hw.released.len(), 100);
        assert!(g.stats().dropped_clean > 0, "inflation squeezed the cache");
        g.balloon_set_target(&mut hw, 20).unwrap();
        assert_eq!(g.balloon_pages(), 20);
        assert!(g.free_pages() >= 80);
        g.audit().unwrap();
    }

    #[test]
    fn over_ballooning_triggers_oom_killer() {
        let (mut g, mut hw) = small_guest();
        let p = g.spawn_process();
        let base = g.alloc_anon(p, 700).unwrap();
        // Fill swap + memory with anonymous pages.
        let mut killed = false;
        for i in 0..700 {
            if g.touch_anon(&mut hw, p, base.offset(i), true).is_err() {
                killed = true;
                break;
            }
        }
        if !killed {
            // Now demand almost everything for the balloon.
            let _ = g.balloon_set_target(&mut hw, 230);
        }
        assert!(g.stats().oom_kills > 0, "OOM killer must fire");
        assert!(!g.is_alive(p));
        let err = g.touch_anon(&mut hw, p, base, false).unwrap_err();
        assert_eq!(err, GuestError::ProcessKilled(p));
        g.audit().unwrap();
    }

    #[test]
    fn free_anon_releases_memory_and_slots() {
        let (mut g, mut hw) = small_guest();
        let p = g.spawn_process();
        let base = g.alloc_anon(p, 300).unwrap();
        for i in 0..300 {
            g.touch_anon(&mut hw, p, base.offset(i), true).unwrap();
        }
        let used_slots = g.swap.used();
        assert!(used_slots > 0);
        g.free_anon(p, base, 300).unwrap();
        assert_eq!(g.swap.used(), 0);
        assert_eq!(g.anon_resident_pages(), 0);
        g.audit().unwrap();
    }

    #[test]
    fn boot_populates_cache_and_anon() {
        let spec = GuestSpec {
            memory: vswap_mem::MemBytes::from_bytes(512 * 4096),
            disk: vswap_mem::MemBytes::from_bytes(8192 * 4096),
            swap: vswap_mem::MemBytes::from_bytes(512 * 4096),
            kernel_pages: 16,
            boot_file_pages: 64,
            boot_anon_pages: 32,
            ..GuestSpec::small_test()
        };
        let mut g = GuestKernel::new(spec, 1);
        let mut hw = MockHardware::new(8192);
        g.boot(&mut hw).unwrap();
        assert_eq!(g.cache_pages(), 64);
        assert_eq!(g.anon_resident_pages(), 32);
        g.audit().unwrap();
    }

    #[test]
    fn lifo_free_list_recycles_recently_dropped_frames() {
        let (mut g, mut hw) = small_guest();
        let f = g.create_file(400).unwrap();
        g.read_file(&mut hw, f, 0, 400).unwrap();
        // All free pages were recycled through the cache at least once —
        // the precondition for stale/false swap reads at the host.
        let p = g.spawn_process();
        let base = g.alloc_anon(p, 8).unwrap();
        g.touch_anon(&mut hw, p, base, true).unwrap();
        assert!(g.stats().pages_zeroed > 0);
        g.audit().unwrap();
    }

    #[test]
    fn free_list_matches_a_prefilled_deque() {
        // The watermark list must hand out exactly what an eagerly
        // filled queue would: never-used gfns lowest first, then freed
        // gfns oldest first — also when frees interleave with the
        // never-used run.
        let (start, end) = (16, 300);
        let mut list = FreeGfns::new(start, end);
        let mut model: VecDeque<Gfn> = (start..end).map(Gfn::new).collect();
        let mut held = Vec::new();
        let mut rng = DeterministicRng::seed_from(11);
        for _ in 0..5_000 {
            if rng.below(3) < 2 {
                let got = list.pop_front();
                assert_eq!(got, model.pop_front());
                held.extend(got);
            } else if !held.is_empty() {
                let gfn = held.swap_remove(rng.index(held.len()));
                list.push_back(gfn);
                model.push_back(gfn);
            }
            assert_eq!(list.len(), model.len() as u64);
        }
    }

    #[test]
    fn page_states_round_trip_at_the_packed_limits() {
        let states = [
            GuestPageState::Free,
            GuestPageState::Kernel,
            GuestPageState::Balloon,
            GuestPageState::Cache { image_page: 0 },
            GuestPageState::Cache { image_page: (1 << 61) - 1 },
            GuestPageState::Anon { proc: ProcId::new(0), vpn: Vpn::new(0) },
            GuestPageState::Anon {
                proc: ProcId::new((1 << 29) - 1),
                vpn: Vpn::new(u64::from(u32::MAX)),
            },
        ];
        for state in states {
            assert_eq!(unpack_state(pack_state(state)), state);
        }
        assert_eq!(pack_state(GuestPageState::Free), 0, "free is the zero word");
    }

    #[test]
    #[should_panic(expected = "out of packed range")]
    fn unencodable_page_state_panics() {
        pack_state(GuestPageState::Anon { proc: ProcId::new(0), vpn: Vpn::new(1 << 32) });
    }

    #[test]
    fn dirty_ratio_forces_writeback_during_writes() {
        let (mut g, mut hw) = small_guest();
        // dirty_ratio 0.20 of 256 pages = 51 pages.
        let f = g.create_file(150).unwrap();
        g.write_file(&mut hw, f, 0, 150).unwrap();
        assert!(g.stats().writebacks > 0, "dirty threshold must flush");
        assert!(g.dirty_count <= 52);
        g.audit().unwrap();
    }
}

#[cfg(test)]
mod thrash_tests {
    use super::*;
    use crate::hardware::MockHardware;

    fn guest(memory_pages: u64, limit: u64) -> (GuestKernel, MockHardware) {
        let spec = GuestSpec {
            memory: vswap_mem::MemBytes::from_bytes(memory_pages * 4096),
            disk: vswap_mem::MemBytes::from_bytes(16384 * 4096),
            swap: vswap_mem::MemBytes::from_bytes(4096 * 4096),
            kernel_pages: 16,
            boot_file_pages: 0,
            boot_anon_pages: 0,
            oom_balloon_swap_limit: limit,
            ..GuestSpec::small_test()
        };
        (GuestKernel::new(spec, 9), MockHardware::new(16384))
    }

    #[test]
    fn over_ballooned_allocation_burst_triggers_oom() {
        // Balloon pins most of the guest; a 400-page allocation burst
        // must sustain swap-outs and trip the over-ballooning guard.
        let (mut g, mut hw) = guest(512, 64);
        g.balloon_set_target(&mut hw, 400).unwrap();
        let p = g.spawn_process();
        let base = g.alloc_anon(p, 400).unwrap();
        let mut died = false;
        for i in 0..400 {
            if g.touch_anon(&mut hw, p, base.offset(i), true).is_err() {
                died = true;
                break;
            }
        }
        assert!(died, "allocation burst under a large balloon must OOM");
        assert!(g.stats().oom_kills >= 1);
        g.audit().unwrap();
    }

    #[test]
    fn same_burst_without_balloon_survives_on_swap() {
        let (mut g, mut hw) = guest(512, 64);
        let p = g.spawn_process();
        let base = g.alloc_anon(p, 900).unwrap();
        for i in 0..900 {
            g.touch_anon(&mut hw, p, base.offset(i), true).unwrap();
        }
        assert_eq!(g.stats().oom_kills, 0, "without a balloon the guard never fires");
        assert!(g.stats().swap_outs > 0);
        g.audit().unwrap();
    }

    #[test]
    fn modest_balloon_with_fitting_working_set_survives() {
        let (mut g, mut hw) = guest(512, 10_240);
        g.balloon_set_target(&mut hw, 100).unwrap();
        let p = g.spawn_process();
        let base = g.alloc_anon(p, 300).unwrap();
        for i in 0..300 {
            g.touch_anon(&mut hw, p, base.offset(i), true).unwrap();
        }
        assert_eq!(g.stats().oom_kills, 0);
        g.audit().unwrap();
    }
}

#[cfg(test)]
mod kernel_text_tests {
    use super::*;
    use crate::hardware::MockHardware;

    #[test]
    fn operations_periodically_touch_kernel_text() {
        let spec = GuestSpec {
            memory: vswap_mem::MemBytes::from_bytes(512 * 4096),
            disk: vswap_mem::MemBytes::from_bytes(4096 * 4096),
            swap: vswap_mem::MemBytes::from_bytes(512 * 4096),
            kernel_pages: 64,
            boot_file_pages: 0,
            boot_anon_pages: 0,
            ..GuestSpec::small_test()
        };
        let mut g = GuestKernel::new(spec, 1);
        let mut hw = MockHardware::new(4096);
        let p = g.spawn_process();
        let base = g.alloc_anon(p, 256).unwrap();
        for i in 0..256 {
            g.touch_anon(&mut hw, p, base.offset(i), true).unwrap();
        }
        // 256 ops => 4 kernel-text touches rotated over the hot quarter.
        assert_eq!(g.op_counter, 256);
        assert_eq!(g.kernel_touch_cursor, 4);
        g.audit().unwrap();
    }

    #[test]
    fn zero_kernel_pages_never_touch() {
        let spec = GuestSpec {
            memory: vswap_mem::MemBytes::from_bytes(256 * 4096),
            disk: vswap_mem::MemBytes::from_bytes(4096 * 4096),
            swap: vswap_mem::MemBytes::from_bytes(256 * 4096),
            kernel_pages: 1, // minimum; hot quarter clamps to one page
            boot_file_pages: 0,
            boot_anon_pages: 0,
            ..GuestSpec::small_test()
        };
        let mut g = GuestKernel::new(spec, 1);
        let mut hw = MockHardware::new(4096);
        let f = g.create_file(128).unwrap();
        g.read_file(&mut hw, f, 0, 128).unwrap();
        g.audit().unwrap();
    }
}
