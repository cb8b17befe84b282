//! The guest's own swap partition allocator.
//!
//! When a balloon squeezes the guest (or guest memory is simply too small
//! for its anonymous working set), the guest swaps process pages to its
//! swap partition — a region of its virtual disk. From the host's point of
//! view that is ordinary virtual-disk I/O.

use crate::process::ProcId;
use vswap_mem::{ContentLabel, Vpn};

/// What one occupied guest swap slot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuestSlotInfo {
    /// Owning guest process.
    pub proc: ProcId,
    /// Virtual page of that process.
    pub vpn: Vpn,
    /// Content stored in the slot.
    pub label: ContentLabel,
}

/// The guest swap partition: page-sized slots over a virtual-disk region.
///
/// # Examples
///
/// ```
/// use vswap_guestos::swap::GuestSlotInfo;
/// use vswap_guestos::{GuestSwap, ProcId};
/// use vswap_mem::{ContentLabel, Vpn};
///
/// let mut swap = GuestSwap::new(100, 4); // disk pages 100..104
/// let info = GuestSlotInfo { proc: ProcId::new(0), vpn: Vpn::new(1), label: ContentLabel::ZERO };
/// let slot = swap.alloc(info).unwrap();
/// assert_eq!(swap.image_page(slot), 100);
/// ```
#[derive(Debug, Clone)]
pub struct GuestSwap {
    base_page: u64,
    /// `proc + 1` per occupied slot; `0` = free. Structure-of-arrays with
    /// the zero word meaning "empty", like the host `SwapArea`, so a fresh
    /// gigabyte-sized partition is `alloc_zeroed`, not an eager fill.
    slot_proc: Vec<u32>,
    /// Virtual page per occupied slot (valid only when occupied).
    slot_vpn: Vec<u64>,
    /// Raw content label per occupied slot (valid only when occupied).
    slot_label: Vec<u64>,
    /// Free bitmap, one bit per slot; mirrors the host `SwapArea` shape
    /// so slot allocation is a word scan, not a tree walk per swap-out.
    free_bits: Vec<u64>,
    free_count: u64,
    cursor: u64,
    /// No free slot exists below `low_hint * 64`; lowered on free so the
    /// wrap scan stays amortized O(1).
    low_hint: usize,
}

impl GuestSwap {
    /// Creates a swap partition of `pages` slots whose first slot lives at
    /// virtual-disk page `base_page`.
    pub fn new(base_page: u64, pages: u64) -> Self {
        let words = (pages as usize).div_ceil(64);
        let mut free_bits = vec![u64::MAX; words];
        let tail = pages % 64;
        if tail != 0 {
            free_bits[words - 1] = (1u64 << tail) - 1;
        }
        GuestSwap {
            base_page,
            slot_proc: vec![0; pages as usize],
            slot_vpn: vec![0; pages as usize],
            slot_label: vec![0; pages as usize],
            free_bits,
            free_count: pages,
            cursor: 0,
            low_hint: 0,
        }
    }

    /// Total slots.
    pub fn capacity(&self) -> u64 {
        self.slot_proc.len() as u64
    }

    /// Occupied slots.
    pub fn used(&self) -> u64 {
        self.capacity() - self.free_count
    }

    /// First free slot at or after `start`, if any.
    fn next_free_from(&self, start: u64) -> Option<u64> {
        let mut word = start as usize / 64;
        if word >= self.free_bits.len() {
            return None;
        }
        let mut mask = self.free_bits[word] & !((1u64 << (start % 64)) - 1);
        loop {
            if mask != 0 {
                return Some((word as u64) * 64 + u64::from(mask.trailing_zeros()));
            }
            word += 1;
            if word >= self.free_bits.len() {
                return None;
            }
            mask = self.free_bits[word];
        }
    }

    /// Allocates a slot (cursor scan with wrap, like the host allocator).
    ///
    /// # Panics
    ///
    /// Panics if `info.proc` is `u32::MAX`, which the packed slot record
    /// cannot hold.
    pub fn alloc(&mut self, info: GuestSlotInfo) -> Option<u64> {
        assert!(info.proc.get() < u32::MAX, "{} out of packed range", info.proc);
        if self.free_count == 0 {
            return None;
        }
        let slot = self
            .next_free_from(self.cursor)
            .or_else(|| self.next_free_from((self.low_hint as u64) * 64))
            .expect("free_count > 0");
        self.free_bits[slot as usize / 64] &= !(1u64 << (slot % 64));
        self.free_count -= 1;
        self.cursor = slot + 1;
        let i = slot as usize;
        self.slot_proc[i] = info.proc.get() + 1;
        self.slot_vpn[i] = info.vpn.get();
        self.slot_label[i] = info.label.get();
        Some(slot)
    }

    /// Frees a slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already free.
    pub fn free(&mut self, slot: u64) {
        let proc = &mut self.slot_proc[slot as usize];
        assert!(*proc != 0, "freeing free guest swap slot {slot}");
        *proc = 0;
        debug_assert_eq!(self.free_bits[slot as usize / 64] & (1u64 << (slot % 64)), 0);
        self.free_bits[slot as usize / 64] |= 1u64 << (slot % 64);
        self.free_count += 1;
        self.low_hint = self.low_hint.min(slot as usize / 64);
    }

    /// Contents of a slot, or `None` if free.
    pub fn get(&self, slot: u64) -> Option<GuestSlotInfo> {
        let i = slot as usize;
        let proc = self.slot_proc[i].checked_sub(1)?;
        Some(GuestSlotInfo {
            proc: ProcId::new(proc),
            vpn: Vpn::new(self.slot_vpn[i]),
            label: ContentLabel::from_raw(self.slot_label[i]),
        })
    }

    /// The virtual-disk image page a slot occupies.
    pub fn image_page(&self, slot: u64) -> u64 {
        self.base_page + slot
    }

    /// Occupied slots in `[start, start + window)`, for guest swap
    /// readahead.
    pub fn window(&self, start: u64, window: u64) -> Vec<(u64, GuestSlotInfo)> {
        let end = (start + window).min(self.capacity());
        (start..end).filter_map(|s| self.get(s).map(|i| (s, i))).collect()
    }

    /// Snapshots the occupied slots of `[start, start + window)` into
    /// `out` (cleared first) — the readahead loop mutates the partition
    /// while it walks, so it needs a stable copy, not a borrow.
    pub fn window_into(&self, start: u64, window: u64, out: &mut Vec<(u64, GuestSlotInfo)>) {
        out.clear();
        let end = (start + window).min(self.capacity());
        out.extend((start..end).filter_map(|s| self.get(s).map(|i| (s, i))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(vpn: u64) -> GuestSlotInfo {
        GuestSlotInfo { proc: ProcId::new(0), vpn: Vpn::new(vpn), label: ContentLabel::ZERO }
    }

    #[test]
    fn slots_map_to_image_pages() {
        let mut swap = GuestSwap::new(50, 4);
        let a = swap.alloc(info(0)).unwrap();
        let b = swap.alloc(info(1)).unwrap();
        assert_eq!(swap.image_page(a), 50);
        assert_eq!(swap.image_page(b), 51);
    }

    #[test]
    fn alloc_free_cycle() {
        let mut swap = GuestSwap::new(0, 2);
        let a = swap.alloc(info(0)).unwrap();
        swap.alloc(info(1)).unwrap();
        assert_eq!(swap.alloc(info(2)), None);
        swap.free(a);
        assert_eq!(swap.used(), 1);
        assert_eq!(swap.alloc(info(3)), Some(a));
    }

    #[test]
    fn window_lists_occupied() {
        let mut swap = GuestSwap::new(0, 8);
        swap.alloc(info(0)).unwrap();
        swap.alloc(info(1)).unwrap();
        swap.free(0);
        let w = swap.window(0, 8);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].0, 1);
    }
}
