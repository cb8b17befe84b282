//! The host kernel's reclaim bookkeeping per frame, one byte per frame.

use vswap_mem::FrameId;

/// Which LRU list a frame is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ListClass {
    None,
    Anon,
    Named,
}

// Bits 0..2 hold the list class (`0` = on no list), bit 2 the second
// chance, bit 3 the prefetched mark.
const CLASS_BITS: u8 = 0b11;
const CLASS_ANON: u8 = 1;
const CLASS_NAMED: u8 = 2;
const SECOND_CHANCE: u8 = 1 << 2;
const PREFETCHED: u8 = 1 << 3;

/// Per-frame reclaim state packed into one byte: which LRU list holds
/// the frame; whether it has a second chance left (Linux's
/// active/inactive promotion: a referenced page must be demoted before it
/// can be evicted, so it survives one more reclaim encounter after its
/// accessed bit is cleared); and whether swap readahead loaded it without
/// anyone touching it yet (an eviction while still marked counts as
/// readahead waste). The zero byte is the resting state, so the table
/// over all of host DRAM is one `alloc_zeroed`, and the reclaim scan reads
/// one array instead of three.
#[derive(Debug, Clone)]
pub(crate) struct FrameFlags {
    bytes: Vec<u8>,
}

impl FrameFlags {
    /// Flags for `frames` frames, all at rest.
    pub(crate) fn new(frames: u64) -> Self {
        FrameFlags { bytes: vec![0; frames as usize] }
    }

    pub(crate) fn list_class(&self, frame: FrameId) -> ListClass {
        match self.bytes[frame.index()] & CLASS_BITS {
            CLASS_ANON => ListClass::Anon,
            CLASS_NAMED => ListClass::Named,
            _ => ListClass::None,
        }
    }

    pub(crate) fn set_list_class(&mut self, frame: FrameId, class: ListClass) {
        let bits = match class {
            ListClass::None => 0,
            ListClass::Anon => CLASS_ANON,
            ListClass::Named => CLASS_NAMED,
        };
        let byte = &mut self.bytes[frame.index()];
        *byte = (*byte & !CLASS_BITS) | bits;
    }

    pub(crate) fn grant_second_chance(&mut self, frame: FrameId) {
        self.bytes[frame.index()] |= SECOND_CHANCE;
    }

    /// Uses up the frame's second chance; true if it had one.
    pub(crate) fn take_second_chance(&mut self, frame: FrameId) -> bool {
        self.take(frame, SECOND_CHANCE)
    }

    pub(crate) fn set_prefetched(&mut self, frame: FrameId, prefetched: bool) {
        if prefetched {
            self.bytes[frame.index()] |= PREFETCHED;
        } else {
            self.bytes[frame.index()] &= !PREFETCHED;
        }
    }

    /// Clears the prefetched mark; true if it was set.
    pub(crate) fn take_prefetched(&mut self, frame: FrameId) -> bool {
        self.take(frame, PREFETCHED)
    }

    /// Returns the frame to rest. Its list class must already be `None`.
    pub(crate) fn clear(&mut self, frame: FrameId) {
        debug_assert_eq!(self.list_class(frame), ListClass::None);
        self.bytes[frame.index()] = 0;
    }

    fn take(&mut self, frame: FrameId, bit: u8) -> bool {
        let byte = &mut self.bytes[frame.index()];
        let had = *byte & bit != 0;
        *byte &= !bit;
        had
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_are_independent() {
        let mut flags = FrameFlags::new(2);
        let f = FrameId::new(1);
        flags.set_list_class(f, ListClass::Named);
        flags.grant_second_chance(f);
        flags.set_prefetched(f, true);
        flags.set_list_class(f, ListClass::Anon);
        assert_eq!(flags.list_class(f), ListClass::Anon);
        assert!(flags.take_prefetched(f));
        assert!(!flags.take_prefetched(f));
        assert!(flags.take_second_chance(f));
        assert!(!flags.take_second_chance(f));
        assert_eq!(flags.list_class(f), ListClass::Anon);
        assert_eq!(flags.list_class(FrameId::new(0)), ListClass::None, "neighbour untouched");
        flags.set_list_class(f, ListClass::None);
        flags.grant_second_chance(f);
        flags.clear(f);
        assert!(!flags.take_second_chance(f));
    }
}
