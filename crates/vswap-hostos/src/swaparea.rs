//! The host swap area: slot allocation and slot contents.
//!
//! Models Linux's swap-slot allocator closely enough to reproduce *decayed
//! swap sequentiality*: slots are handed out by scanning forward from a
//! cursor (so a fresh swap area fills sequentially in reclaim order), and
//! freed slots leave holes that later allocations plug out of order — which
//! is precisely how file-sequential content gets scattered over time.
//!
//! Free slots are tracked in a bitmap (one `u64` word per 64 slots) scanned
//! with `trailing_zeros`, plus a low-water hint word so the wrap-around
//! scan is amortized O(1). Allocation order is identical to the earlier
//! ordered-set implementation: first free slot at or after the cursor,
//! else the lowest free slot overall.

use sim_core::DeterministicRng;
use std::collections::BTreeSet;
use vswap_mem::{ContentLabel, Gfn, VmId};

/// What one occupied swap slot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotInfo {
    /// VM whose page was swapped out.
    pub vm: VmId,
    /// Guest frame number of the swapped page.
    pub gfn: Gfn,
    /// Content stored in the slot.
    pub label: ContentLabel,
}

/// The indices of the set bits of a bitmap given word by word (word `w`
/// covers bits `64*w .. 64*w+64`), ascending, via `trailing_zeros`.
pub(crate) fn set_bits(words: impl Iterator<Item = u64>) -> impl Iterator<Item = u64> {
    words.enumerate().flat_map(|(w, mut word)| {
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = w as u64 * 64 + u64::from(word.trailing_zeros());
                word &= word - 1;
                bit
            })
        })
    })
}

/// Iterates the free slots of `[..end)` in ascending order starting from a
/// pre-masked word, word-accelerated via `trailing_zeros`.
struct FreeRange<'a> {
    bits: &'a [u64],
    word: usize,
    /// Unconsumed free bits of `bits[word]`.
    mask: u64,
    end: u64,
}

impl<'a> FreeRange<'a> {
    /// Free slots in `[start, end)`, ascending.
    fn new(bits: &'a [u64], start: u64, end: u64) -> Self {
        let word = (start / 64) as usize;
        let mask = if word < bits.len() { bits[word] & !((1u64 << (start % 64)) - 1) } else { 0 };
        FreeRange { bits, word, mask, end }
    }
}

impl Iterator for FreeRange<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        loop {
            if self.mask != 0 {
                let slot = (self.word as u64) * 64 + self.mask.trailing_zeros() as u64;
                if slot >= self.end {
                    return None;
                }
                self.mask &= self.mask - 1;
                return Some(slot);
            }
            self.word += 1;
            if (self.word as u64) * 64 >= self.end || self.word >= self.bits.len() {
                return None;
            }
            self.mask = self.bits[self.word];
        }
    }
}

/// The host swap area: a fixed number of page-sized slots.
///
/// # Examples
///
/// ```
/// use vswap_hostos::{SlotInfo, SwapArea};
/// use vswap_mem::{ContentLabel, Gfn, VmId};
///
/// let mut swap = SwapArea::new(8);
/// let info = SlotInfo { vm: VmId::new(0), gfn: Gfn::new(3), label: ContentLabel::ZERO };
/// let slot = swap.alloc(info).unwrap();
/// assert_eq!(swap.get(slot), Some(info));
/// swap.free(slot);
/// assert_eq!(swap.get(slot), None);
/// ```
#[derive(Debug, Clone)]
pub struct SwapArea {
    capacity: u64,
    /// `vm + 1` per occupied slot; `0` = free (or retired). Kept as
    /// structure-of-arrays with the zero word meaning "empty" so a fresh
    /// multi-gigabyte swap area is `alloc_zeroed`, not an eager fill.
    slot_vm: Vec<u32>,
    /// Guest frame number per occupied slot (valid only when occupied).
    slot_gfn: Vec<u64>,
    /// Raw content label per occupied slot (valid only when occupied).
    slot_label: Vec<u64>,
    /// Bit set = slot free. Word `w` covers slots `64*w .. 64*w+64`.
    free_bits: Vec<u64>,
    free_count: u64,
    cursor: u64,
    /// Invariant: no word below `low_hint` has a free bit — the
    /// wrap-around scan starts here instead of at slot 0.
    low_hint: usize,
    high_water: u64,
    /// Slots retired after a permanent media error; never allocated again.
    bad: BTreeSet<u64>,
}

impl SwapArea {
    /// Creates an empty swap area of `capacity` slots.
    pub fn new(capacity: u64) -> Self {
        let words = (capacity as usize).div_ceil(64);
        let mut free_bits = vec![u64::MAX; words];
        let tail = (capacity % 64) as u32;
        if tail != 0 {
            if let Some(last) = free_bits.last_mut() {
                *last = (1u64 << tail) - 1;
            }
        }
        SwapArea {
            capacity,
            slot_vm: vec![0; capacity as usize],
            slot_gfn: vec![0; capacity as usize],
            slot_label: vec![0; capacity as usize],
            free_bits,
            free_count: capacity,
            cursor: 0,
            low_hint: 0,
            high_water: 0,
            bad: BTreeSet::new(),
        }
    }

    /// Total slots.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Occupied slots (retired bad slots are neither free nor used).
    pub fn used(&self) -> u64 {
        self.capacity() - self.free_count - self.bad.len() as u64
    }

    fn is_free(&self, slot: u64) -> bool {
        self.free_bits[(slot / 64) as usize] >> (slot % 64) & 1 == 1
    }

    fn clear_free(&mut self, slot: u64) {
        self.free_bits[(slot / 64) as usize] &= !(1u64 << (slot % 64));
        self.free_count -= 1;
    }

    /// First free slot in `[start, capacity)`, if any.
    fn next_free_from(&self, start: u64) -> Option<u64> {
        FreeRange::new(&self.free_bits, start, self.capacity()).next()
    }

    /// Free slots starting at the cursor and wrapping around, ascending in
    /// each half — the order slot allocation considers candidates in.
    fn free_from_cursor(&self) -> impl Iterator<Item = u64> + '_ {
        FreeRange::new(&self.free_bits, self.cursor, self.capacity()).chain(FreeRange::new(
            &self.free_bits,
            (self.low_hint as u64) * 64,
            self.cursor,
        ))
    }

    /// Retires a physically bad slot: its contents (if any) are dropped
    /// and the slot is withdrawn from allocation forever.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds.
    pub fn mark_bad(&mut self, slot: u64) {
        self.slot_vm[slot as usize] = 0;
        if self.is_free(slot) {
            self.clear_free(slot);
        }
        self.bad.insert(slot);
    }

    /// Number of retired slots.
    pub fn bad_slots(&self) -> u64 {
        self.bad.len() as u64
    }

    /// True if the slot has been retired by [`SwapArea::mark_bad`].
    pub fn is_bad(&self, slot: u64) -> bool {
        self.bad.contains(&slot)
    }

    /// The most slots ever occupied at once.
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Allocates a slot for `info`, scanning forward from the allocation
    /// cursor (wrapping), like Linux's `scan_swap_map`. Returns `None`
    /// if the area is full.
    pub fn alloc(&mut self, info: SlotInfo) -> Option<u64> {
        let slot = match self.next_free_from(self.cursor) {
            Some(s) => s,
            None => {
                // Wrap: the lowest free slot overall. Nothing below
                // `low_hint` is free, so start the scan there and pull the
                // hint forward to the word we land in.
                let s = self.next_free_from((self.low_hint as u64) * 64)?;
                self.low_hint = (s / 64) as usize;
                s
            }
        };
        self.take_slot(slot, info);
        Some(slot)
    }

    /// Like [`SwapArea::alloc`], but picks randomly among the next
    /// `jitter` free slots from the cursor — modelling the interleaving
    /// of concurrent per-CPU slot allocations on a real kernel. This
    /// jitter is the entropy source behind *decayed swap sequentiality*:
    /// with every swap-out/in generation, file-sequential content
    /// diffuses a little further apart.
    pub fn alloc_scattered(
        &mut self,
        info: SlotInfo,
        rng: &mut DeterministicRng,
        jitter: u64,
    ) -> Option<u64> {
        if jitter <= 1 {
            return self.alloc(info);
        }
        // Two passes over the candidate window keep this allocation-free:
        // count the candidates, draw the index, then re-scan to the pick.
        let count = self.free_from_cursor().take(jitter as usize).count();
        if count == 0 {
            return None;
        }
        let pick = rng.index(count);
        let slot = self.free_from_cursor().nth(pick).expect("candidate counted above");
        self.take_slot(slot, info);
        Some(slot)
    }

    fn take_slot(&mut self, slot: u64, info: SlotInfo) {
        self.clear_free(slot);
        self.cursor = slot + 1;
        self.slot_vm[slot as usize] = info.vm.get() + 1;
        self.slot_gfn[slot as usize] = info.gfn.get();
        self.slot_label[slot as usize] = info.label.get();
        self.high_water = self.high_water.max(self.used());
    }

    /// Frees a slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already free or out of bounds.
    pub fn free(&mut self, slot: u64) {
        assert!(self.slot_vm[slot as usize] != 0, "freeing an already-free swap slot {slot}");
        self.slot_vm[slot as usize] = 0;
        self.free_bits[(slot / 64) as usize] |= 1u64 << (slot % 64);
        self.free_count += 1;
        self.low_hint = self.low_hint.min((slot / 64) as usize);
    }

    /// Returns the contents of a slot, or `None` if free.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds.
    pub fn get(&self, slot: u64) -> Option<SlotInfo> {
        let vm = self.slot_vm[slot as usize].checked_sub(1)?;
        Some(SlotInfo {
            vm: VmId::new(vm),
            gfn: Gfn::new(self.slot_gfn[slot as usize]),
            label: ContentLabel::from_raw(self.slot_label[slot as usize]),
        })
    }

    /// Iterates every occupied slot in ascending order, skipping a whole
    /// bitmap word of free slots at a time.
    pub fn iter_occupied(&self) -> impl Iterator<Item = (u64, SlotInfo)> + '_ {
        // Retired slots are taken but empty; `get` skips them.
        set_bits(self.free_bits.iter().map(|&free| !free))
            .take_while(|&slot| slot < self.capacity)
            .filter_map(|slot| self.get(slot).map(|info| (slot, info)))
    }

    /// Iterates the occupied slots in the readahead window
    /// `[start, start + window)`, clamped to capacity, in slot order —
    /// the cluster a fault-time swap readahead would read. Borrows the
    /// area instead of allocating, so the per-fault path stays heap-free.
    pub fn window_iter(
        &self,
        start: u64,
        window: u64,
    ) -> impl Iterator<Item = (u64, SlotInfo)> + '_ {
        let end = (start + window).min(self.capacity());
        (start..end).filter_map(|s| self.get(s).map(|info| (s, info)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(gfn: u64) -> SlotInfo {
        SlotInfo { vm: VmId::new(0), gfn: Gfn::new(gfn), label: ContentLabel::ZERO }
    }

    #[test]
    fn fresh_area_allocates_sequentially() {
        let mut swap = SwapArea::new(8);
        let slots: Vec<u64> = (0..5).map(|g| swap.alloc(info(g)).unwrap()).collect();
        assert_eq!(slots, vec![0, 1, 2, 3, 4]);
        assert_eq!(swap.used(), 5);
    }

    #[test]
    fn cursor_skips_holes_then_wraps() {
        let mut swap = SwapArea::new(4);
        for g in 0..4 {
            swap.alloc(info(g)).unwrap();
        }
        swap.free(1);
        swap.free(2);
        // Cursor is at 4 (past the end): wrap to the lowest free slot.
        assert_eq!(swap.alloc(info(10)), Some(1));
        // Cursor now at 2: continue forward.
        assert_eq!(swap.alloc(info(11)), Some(2));
        assert_eq!(swap.alloc(info(12)), None);
    }

    #[test]
    fn fragmentation_scatters_sequential_content() {
        // Fill, free every other slot, re-allocate: the new "file-order"
        // stream lands in scattered slots — the decay mechanism.
        let mut swap = SwapArea::new(8);
        for g in 0..8 {
            swap.alloc(info(g)).unwrap();
        }
        for s in [0, 2, 4, 6] {
            swap.free(s);
        }
        let new_slots: Vec<u64> = (100..104).map(|g| swap.alloc(info(g)).unwrap()).collect();
        assert_eq!(new_slots, vec![0, 2, 4, 6], "re-allocation plugs holes out of order");
    }

    #[test]
    fn window_returns_occupied_cluster() {
        let mut swap = SwapArea::new(8);
        for g in 0..4 {
            swap.alloc(info(g)).unwrap();
        }
        swap.free(2);
        let slots: Vec<u64> = swap.window_iter(1, 4).map(|(s, _)| s).collect();
        assert_eq!(slots, vec![1, 3]);
        // Window clamps at capacity.
        assert_eq!(swap.window_iter(7, 10).count(), 0);
    }

    #[test]
    fn scattered_allocation_spans_large_areas() {
        // A multi-word area with holes far apart: the wrapped candidate
        // enumeration must see them in cursor order.
        let mut swap = SwapArea::new(256);
        for g in 0..256 {
            swap.alloc(info(g)).unwrap();
        }
        for s in [3, 70, 200] {
            swap.free(s);
        }
        // Cursor is at 256: wrapping enumeration yields 3, 70, 200.
        let mut rng = DeterministicRng::seed_from(7);
        let got = swap.alloc_scattered(info(300), &mut rng, 3).unwrap();
        assert!([3, 70, 200].contains(&got));
        assert_eq!(swap.used(), 254);
    }

    #[test]
    fn iter_occupied_skips_free_and_retired_slots() {
        let mut swap = SwapArea::new(150); // three words, the last partial
        for g in 0..150 {
            swap.alloc(info(g)).unwrap();
        }
        for s in (0..150).filter(|s| ![1, 64, 65, 149].contains(s)) {
            swap.free(s);
        }
        swap.mark_bad(65);
        let occupied: Vec<(u64, u64)> =
            swap.iter_occupied().map(|(s, info)| (s, info.gfn.get())).collect();
        assert_eq!(occupied, vec![(1, 1), (64, 64), (149, 149)]);
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut swap = SwapArea::new(4);
        let a = swap.alloc(info(0)).unwrap();
        let _b = swap.alloc(info(1)).unwrap();
        swap.free(a);
        assert_eq!(swap.used(), 1);
        assert_eq!(swap.high_water(), 2);
    }

    #[test]
    #[should_panic(expected = "already-free")]
    fn double_free_panics() {
        let mut swap = SwapArea::new(1);
        let s = swap.alloc(info(0)).unwrap();
        swap.free(s);
        swap.free(s);
    }

    #[test]
    fn bad_slots_are_never_reallocated() {
        let mut swap = SwapArea::new(4);
        let s = swap.alloc(info(0)).unwrap();
        swap.mark_bad(s);
        assert!(swap.is_bad(s));
        assert_eq!(swap.bad_slots(), 1);
        assert_eq!(swap.get(s), None, "retired slots drop their contents");
        assert_eq!(swap.used(), 0, "a retired slot is not in use");
        for g in 0..3 {
            let next = swap.alloc(info(g)).unwrap();
            assert_ne!(next, s, "a bad slot must never be handed out again");
        }
        assert_eq!(swap.alloc(info(9)), None, "capacity shrinks by the retired slot");
    }

    #[test]
    fn marking_a_free_slot_bad_withdraws_it() {
        let mut swap = SwapArea::new(2);
        swap.mark_bad(1);
        assert_eq!(swap.alloc(info(0)), Some(0));
        assert_eq!(swap.alloc(info(1)), None);
    }
}
