//! Host kernel event counters.
//!
//! These are the raw series behind the paper's per-experiment plots:
//! Figure 9b (host-context faults: stale reads + false page anonymity),
//! Figure 9c (guest-context faults: decayed sequentiality), Figure 9d
//! (sectors written to the swap area: silent writes), and Figure 11c
//! (pages scanned by reclaim).

sim_core::counters! {
    /// Cumulative host-kernel event counts, reported under their field
    /// names.
    ///
    /// All fields are public: this is a passive accounting record, written
    /// by the [`HostKernel`](crate::HostKernel) and read whole by reports.
    pub struct HostStats prefix "" {
        /// EPT violations taken while *guest* code ran that required disk
        /// I/O (major faults — Figure 9c's series).
        guest_major_faults,
        /// EPT violations taken while guest code ran that were satisfied
        /// without I/O (zero-fill or re-map).
        guest_minor_faults,
        /// Page faults taken while *host* code ran in service of the guest
        /// (Figure 9b's series: stale reads plus hypervisor-code refaults).
        host_context_faults,
        /// Stale swap reads: swapped-out destination pages faulted in only
        /// to be overwritten by virtual-disk DMA.
        stale_swap_reads,
        /// False swap reads: swapped-out pages faulted in only to be wholly
        /// overwritten by the guest CPU (zeroing, COW copies).
        false_swap_reads,
        /// Hypervisor (QEMU) code pages refaulted after being reclaimed —
        /// the cost of false page anonymity.
        hypervisor_code_refaults,
        /// Guest pages written to the host swap area.
        swap_outs,
        /// Guest pages read back from the host swap area (faulting page
        /// plus readahead).
        swap_ins,
        /// Swap writes whose content was identical to a guest disk-image
        /// block (silent swap writes).
        silent_swap_writes,
        /// Named guest pages reclaimed by discarding the mapping (the
        /// Mapper's replacement for a swap write).
        named_discards,
        /// Named guest pages faulted back in from the disk image (the
        /// Mapper's replacement for a swap-in).
        named_refaults,
        /// Pages examined by the reclaim scanner (Figure 11c).
        pages_scanned,
        /// Direct-reclaim invocations.
        reclaim_runs,
        /// Pages brought in by swap readahead beyond the faulting page.
        swap_readahead_extra,
        /// Pages brought in by image readahead beyond the faulting page.
        image_readahead_extra,
        /// Pages zero-filled on first touch.
        zero_fills,
        /// Copy-on-write breaks of named pages (Mapper overhead, §5.3).
        cow_breaks,
        /// Frames released to the host by balloon inflation.
        balloon_released_pages,
        /// Swap slots freed because the balloon reclaimed a swapped-out
        /// page.
        balloon_released_slots,
        /// Virtual-disk requests emulated (QEMU I/O servicing).
        virtual_io_requests,
        /// Mapper consistency invalidations: guest disk writes that
        /// dissolved (and possibly faulted in) an existing page↔block
        /// association.
        consistency_invalidations,
        /// Failed disk requests resubmitted by the host's retry policy.
        io_retries,
        /// Pages whose backing read failed permanently and whose content
        /// was served from the logical store (slot record or image)
        /// instead.
        recovered_pages,
        /// Named pages demoted to anonymous because their backing block
        /// went bad (the Mapper's graceful degradation).
        degraded_pages,
        /// Page↔block associations dissolved because the block was found
        /// physically unreliable.
        fault_invalidations,
        /// Swap-out writes relocated to a fresh slot after the first slot's
        /// media proved bad.
        swap_slot_remaps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_set_round_trips_fields() {
        let stats = HostStats { stale_swap_reads: 7, pages_scanned: 42, ..HostStats::default() };
        let set = stats.to_stat_set();
        assert_eq!(set.get("stale_swap_reads"), 7);
        assert_eq!(set.get("pages_scanned"), 42);
        assert_eq!(set.get("swap_outs"), 0);
        assert!(set.len() >= 20);
    }
}
