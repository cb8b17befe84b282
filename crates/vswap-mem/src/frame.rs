//! The host physical frame table.
//!
//! Every 4 KiB of host DRAM is a frame with an owner, usage bits, and a
//! content label. The host reclaim algorithm (in `vswap-hostos`) walks this
//! table; the Mapper changes how frames are *classified* (named vs
//! anonymous), which is the crux of the "false page anonymity" pathology.

use crate::addr::{Gfn, VmId};
use crate::content::ContentLabel;
use std::fmt;

/// Identifies one host physical frame.
///
/// # Examples
///
/// ```
/// use vswap_mem::FrameId;
///
/// let f = FrameId::new(42);
/// assert_eq!(f.index(), 42);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(u32);

impl FrameId {
    /// Creates a frame identifier.
    pub const fn new(id: u32) -> Self {
        FrameId(id)
    }

    /// Returns the raw identifier.
    pub const fn get(self) -> u32 {
        self.0
    }

    /// Returns the identifier as a `usize` index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame#{}", self.0)
    }
}

/// Who a host frame currently belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameOwner {
    /// Unallocated.
    Free,
    /// Backs a guest-physical page of a VM. Classified *anonymous* by the
    /// baseline host; the Mapper may re-classify it as named.
    Guest {
        /// Owning VM.
        vm: VmId,
        /// Guest frame number the frame backs.
        gfn: Gfn,
    },
    /// Part of the hosted hypervisor's executable (QEMU code): the only
    /// *named* memory in a baseline guest address space, and therefore the
    /// host's preferred reclaim victim — the "false page anonymity" twist.
    HypervisorCode {
        /// VM whose QEMU process the code page belongs to.
        vm: VmId,
        /// Code page index within the hypervisor image.
        page: u64,
    },
    /// A False Reads Preventer emulation buffer.
    WriteBuffer {
        /// VM whose write is being emulated.
        vm: VmId,
        /// Guest frame number being emulated.
        gfn: Gfn,
    },
}

// Packed owner encoding: `0` is `Free`, so a freshly zeroed table is a
// table of free frames and `HostFrameTable::new` never touches its pages.
// Bits 0..3 hold the owner kind, bits 3..32 the VM id, bits 32..64 the
// owner-specific page number (gfn / code page).
const KIND_GUEST: u64 = 1;
const KIND_HYPERVISOR_CODE: u64 = 3;
const KIND_WRITE_BUFFER: u64 = 4;
const KIND_BITS: u64 = 0x7;
const VM_SHIFT: u32 = 3;
const VM_BITS: u64 = (1 << 29) - 1;
const PAGE_SHIFT: u32 = 32;

fn pack_owner(owner: FrameOwner) -> u64 {
    let (kind, vm, page) = match owner {
        FrameOwner::Free => return 0,
        FrameOwner::Guest { vm, gfn } => (KIND_GUEST, vm, gfn.get()),
        FrameOwner::HypervisorCode { vm, page } => (KIND_HYPERVISOR_CODE, vm, page),
        FrameOwner::WriteBuffer { vm, gfn } => (KIND_WRITE_BUFFER, vm, gfn.get()),
    };
    assert!(u64::from(vm.get()) <= VM_BITS, "vm id out of packed range");
    assert!(page < 1 << 32, "owner page out of packed range");
    kind | (u64::from(vm.get()) << VM_SHIFT) | (page << PAGE_SHIFT)
}

fn unpack_owner(bits: u64) -> FrameOwner {
    if bits == 0 {
        return FrameOwner::Free;
    }
    let vm = VmId::new(((bits >> VM_SHIFT) & VM_BITS) as u32);
    let page = bits >> PAGE_SHIFT;
    match bits & KIND_BITS {
        KIND_GUEST => FrameOwner::Guest { vm, gfn: Gfn::new(page) },
        KIND_HYPERVISOR_CODE => FrameOwner::HypervisorCode { vm, page },
        KIND_WRITE_BUFFER => FrameOwner::WriteBuffer { vm, gfn: Gfn::new(page) },
        kind => unreachable!("corrupt frame owner kind {kind}"),
    }
}

/// Host DRAM: a fixed-size table of frames with a bitmap free-frame
/// allocator.
///
/// One `u64` word tracks 64 frames (bit set = free). Allocation scans
/// words with `trailing_zeros`, starting from a search hint that is
/// kept at or below the lowest word holding a free bit, so the scan is
/// amortized O(1) and frames are always handed out lowest-index-first.
///
/// # Examples
///
/// ```
/// use vswap_mem::{FrameOwner, Gfn, HostFrameTable, VmId};
///
/// let mut table = HostFrameTable::new(4);
/// let f = table.alloc(FrameOwner::Guest { vm: VmId::new(0), gfn: Gfn::new(0) }).unwrap();
/// table.set_dirty(f, true);
/// assert!(table.dirty(f));
/// table.free(f);
/// assert_eq!(table.owner(f), FrameOwner::Free);
/// ```
#[derive(Debug, Clone)]
pub struct HostFrameTable {
    /// Packed owner per frame; `0` = free. Structure-of-arrays so the
    /// empty table is all-zero bytes and construction is `alloc_zeroed`
    /// (lazily mapped), not an eager fill over hundreds of MiB of DRAM
    /// metadata per host.
    owners: Vec<u64>,
    /// Accessed (referenced) bit per frame, one bit per frame.
    accessed_bits: Vec<u64>,
    /// Dirty bit per frame, one bit per frame.
    dirty_bits: Vec<u64>,
    /// Raw content label per frame (`ContentLabel::ZERO` is 0).
    labels: Vec<u64>,
    /// Bit set = frame free. Word `w` covers frames `64*w .. 64*w+64`.
    /// Stored inverted-on-construction relative to the zero page (a fresh
    /// table is all-free), but at one bit per frame the fill is tiny.
    free_bits: Vec<u64>,
    free_count: u64,
    /// Invariant: no word below `hint` has a free bit.
    hint: usize,
}

impl HostFrameTable {
    /// Creates a table of `total` free frames.
    pub fn new(total: u64) -> Self {
        let words = (total as usize).div_ceil(64);
        let mut free_bits = vec![u64::MAX; words];
        // Clear the tail bits past `total` in the last word.
        let tail = (total % 64) as u32;
        if tail != 0 {
            if let Some(last) = free_bits.last_mut() {
                *last = (1u64 << tail) - 1;
            }
        }
        HostFrameTable {
            owners: vec![0; total as usize],
            accessed_bits: vec![0; words],
            dirty_bits: vec![0; words],
            labels: vec![0; total as usize],
            free_bits,
            free_count: total,
            hint: 0,
        }
    }

    /// Number of currently free frames.
    pub fn free_frames(&self) -> u64 {
        self.free_count
    }

    /// Allocates a frame for `owner`, or `None` if DRAM is exhausted.
    /// The lowest-numbered free frame is handed out. The new frame's
    /// usage bits are clear and its content is the zero page.
    pub fn alloc(&mut self, owner: FrameOwner) -> Option<FrameId> {
        debug_assert!(!matches!(owner, FrameOwner::Free), "cannot alloc a Free frame");
        if self.free_count == 0 {
            return None;
        }
        let mut w = self.hint;
        while self.free_bits[w] == 0 {
            w += 1;
        }
        self.hint = w;
        let bit = self.free_bits[w].trailing_zeros();
        self.free_bits[w] &= !(1u64 << bit);
        self.free_count -= 1;
        let id = (w as u32) * 64 + bit;
        self.owners[id as usize] = pack_owner(owner);
        self.accessed_bits[w] &= !(1u64 << bit);
        self.dirty_bits[w] &= !(1u64 << bit);
        self.labels[id as usize] = 0;
        Some(FrameId(id))
    }

    /// Releases a frame back to the free bitmap.
    ///
    /// # Panics
    ///
    /// Panics if the frame is already free.
    pub fn free(&mut self, id: FrameId) {
        assert!(self.owners[id.index()] != 0, "double free of {id}");
        let w = id.index() / 64;
        let bit = id.index() % 64;
        self.owners[id.index()] = 0;
        self.accessed_bits[w] &= !(1u64 << bit);
        self.dirty_bits[w] &= !(1u64 << bit);
        self.labels[id.index()] = 0;
        debug_assert_eq!(self.free_bits[w] & (1u64 << bit), 0, "free bit already set for {id}");
        self.free_bits[w] |= 1u64 << bit;
        self.free_count += 1;
        // Keep the hint at or below the lowest free word.
        if w < self.hint {
            self.hint = w;
        }
    }

    /// Returns the frame's owner.
    pub fn owner(&self, id: FrameId) -> FrameOwner {
        unpack_owner(self.owners[id.index()])
    }

    /// Re-labels the frame's owner (e.g. a page-cache frame becomes a guest
    /// frame when the Mapper maps it into the VM).
    ///
    /// # Panics
    ///
    /// Panics if the frame is free or the new owner is `Free` (use
    /// [`HostFrameTable::free`]).
    pub fn set_owner(&mut self, id: FrameId, owner: FrameOwner) {
        assert!(!matches!(owner, FrameOwner::Free), "use free() to release frames");
        assert!(self.owners[id.index()] != 0, "cannot retag a free frame");
        self.owners[id.index()] = pack_owner(owner);
    }

    /// Returns the frame's accessed (referenced) bit.
    pub fn accessed(&self, id: FrameId) -> bool {
        self.accessed_bits[id.index() / 64] & (1u64 << (id.index() % 64)) != 0
    }

    /// Sets or clears the accessed bit.
    pub fn set_accessed(&mut self, id: FrameId, accessed: bool) {
        let mask = 1u64 << (id.index() % 64);
        if accessed {
            self.accessed_bits[id.index() / 64] |= mask;
        } else {
            self.accessed_bits[id.index() / 64] &= !mask;
        }
    }

    /// Returns the frame's dirty bit.
    pub fn dirty(&self, id: FrameId) -> bool {
        self.dirty_bits[id.index() / 64] & (1u64 << (id.index() % 64)) != 0
    }

    /// Sets or clears the dirty bit.
    pub fn set_dirty(&mut self, id: FrameId, dirty: bool) {
        let mask = 1u64 << (id.index() % 64);
        if dirty {
            self.dirty_bits[id.index() / 64] |= mask;
        } else {
            self.dirty_bits[id.index() / 64] &= !mask;
        }
    }

    /// Returns the frame's content label.
    pub fn label(&self, id: FrameId) -> ContentLabel {
        ContentLabel::from_raw(self.labels[id.index()])
    }

    /// Replaces the frame's content label (the frame was written or filled
    /// from disk).
    pub fn set_label(&mut self, id: FrameId, label: ContentLabel) {
        self.labels[id.index()] = label.get();
    }

    /// Iterates over all allocated frames as `(id, owner)`.
    pub fn iter_allocated(&self) -> impl Iterator<Item = (FrameId, FrameOwner)> + '_ {
        self.owners.iter().enumerate().filter_map(|(i, &bits)| {
            if bits == 0 {
                None
            } else {
                Some((FrameId(i as u32), unpack_owner(bits)))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guest_owner(gfn: u64) -> FrameOwner {
        FrameOwner::Guest { vm: VmId::new(0), gfn: Gfn::new(gfn) }
    }

    #[test]
    fn alloc_until_exhaustion() {
        let mut t = HostFrameTable::new(3);
        assert!(t.alloc(guest_owner(0)).is_some());
        assert!(t.alloc(guest_owner(1)).is_some());
        assert!(t.alloc(guest_owner(2)).is_some());
        assert!(t.alloc(guest_owner(3)).is_none());
        assert_eq!(t.free_frames(), 0);
    }

    #[test]
    fn low_frames_first() {
        let mut t = HostFrameTable::new(4);
        let f = t.alloc(guest_owner(0)).unwrap();
        assert_eq!(f.get(), 0);
    }

    #[test]
    fn free_recycles() {
        let mut t = HostFrameTable::new(1);
        let f = t.alloc(guest_owner(0)).unwrap();
        t.set_dirty(f, true);
        t.set_accessed(f, true);
        t.free(f);
        let g = t.alloc(guest_owner(1)).unwrap();
        assert_eq!(f, g);
        assert!(!t.dirty(g), "recycled frame must have clear bits");
        assert!(!t.accessed(g));
        assert_eq!(t.label(g), ContentLabel::ZERO);
    }

    #[test]
    fn lowest_free_frame_reused_first() {
        let mut t = HostFrameTable::new(8);
        let frames: Vec<FrameId> = (0..8).map(|g| t.alloc(guest_owner(g)).unwrap()).collect();
        // Free out of order; the allocator must still hand back the
        // lowest-numbered free frame first.
        t.free(frames[5]);
        t.free(frames[1]);
        t.free(frames[3]);
        assert_eq!(t.alloc(guest_owner(10)).unwrap().get(), 1);
        assert_eq!(t.alloc(guest_owner(11)).unwrap().get(), 3);
        assert_eq!(t.alloc(guest_owner(12)).unwrap().get(), 5);
        assert!(t.alloc(guest_owner(13)).is_none());
    }

    #[test]
    fn bitmap_spans_multiple_words() {
        let mut t = HostFrameTable::new(130);
        let frames: Vec<FrameId> = (0..130).map(|g| t.alloc(guest_owner(g)).unwrap()).collect();
        assert_eq!(frames.last().unwrap().get(), 129);
        assert!(t.alloc(guest_owner(130)).is_none());
        // Free one frame in each word; reuse must walk back to word 0.
        t.free(frames[129]);
        t.free(frames[70]);
        t.free(frames[3]);
        assert_eq!(t.alloc(guest_owner(200)).unwrap().get(), 3);
        assert_eq!(t.alloc(guest_owner(201)).unwrap().get(), 70);
        assert_eq!(t.alloc(guest_owner(202)).unwrap().get(), 129);
        assert_eq!(t.free_frames(), 0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut t = HostFrameTable::new(1);
        let f = t.alloc(guest_owner(0)).unwrap();
        t.free(f);
        t.free(f);
    }

    #[test]
    fn retagging_owner() {
        let mut t = HostFrameTable::new(1);
        let vm = VmId::new(0);
        let f = t.alloc(FrameOwner::WriteBuffer { vm, gfn: Gfn::new(3) }).unwrap();
        t.set_owner(f, FrameOwner::Guest { vm, gfn: Gfn::new(3) });
        assert_eq!(t.owner(f), FrameOwner::Guest { vm, gfn: Gfn::new(3) });
    }

    #[test]
    fn iter_allocated_skips_free() {
        let mut t = HostFrameTable::new(3);
        let a = t.alloc(guest_owner(0)).unwrap();
        let b = t.alloc(guest_owner(1)).unwrap();
        t.free(a);
        let allocated: Vec<FrameId> = t.iter_allocated().map(|(id, _)| id).collect();
        assert_eq!(allocated, vec![b]);
    }
}
