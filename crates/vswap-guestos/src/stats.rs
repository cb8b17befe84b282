//! Guest kernel event counters.

sim_core::counters! {
    /// Cumulative guest-kernel event counts, reported as `guest_<field>`.
    pub struct GuestStats prefix "guest_" {
        /// File reads satisfied from the guest page cache.
        cache_hits,
        /// File reads that missed the cache and required virtual-disk I/O.
        cache_misses,
        /// Pages read beyond the missing one by guest file readahead.
        readahead_pages,
        /// Dirty cache pages written back to the virtual disk.
        writebacks,
        /// Clean cache pages dropped by guest reclaim (no I/O, no host
        /// notification — the silent drop behind stale/false reads).
        dropped_clean,
        /// Anonymous pages the guest swapped out to its own swap partition.
        swap_outs,
        /// Anonymous pages the guest swapped back in.
        swap_ins,
        /// Pages brought in by guest swap readahead beyond the faulting
        /// page.
        swap_readahead,
        /// Guest direct-reclaim passes.
        reclaim_runs,
        /// Processes killed by the guest OOM killer (over-ballooning, §2.4).
        oom_kills,
        /// Pages currently pinned by the balloon.
        balloon_pages,
        /// Anonymous pages zeroed on first touch or reuse (full-page
        /// overwrites — the false-read trigger).
        pages_zeroed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_set_reflects_fields() {
        let stats = GuestStats { oom_kills: 2, cache_hits: 5, ..GuestStats::default() };
        let set = stats.to_stat_set();
        assert_eq!(set.get("guest_oom_kills"), 2);
        assert_eq!(set.get("guest_cache_hits"), 5);
        assert_eq!(set.get("guest_swap_outs"), 0);
    }
}
