//! The Swap Mapper (§4.1 of the paper) — QEMU-side policy.
//!
//! The Mapper's *mechanisms* live in the host kernel (`vswap-hostos`), just
//! as the paper splits its 409 lines between QEMU (174) and the kernel
//! (235): the kernel owns the page↔block associations (`OriginMap`, the
//! moral `vm_area_struct`s), named reclaim, image refaults, and
//! write-invalidation. This module is the QEMU side: it decides, per
//! virtual-disk request, whether the request is trackable (4 KiB aligned)
//! and routes it down the mmap path or the plain read/write path, and it
//! keeps the Mapper's own accounting (tracked pages for Figure 15,
//! unaligned fallbacks for the Windows experiments of §5.4).

use sim_core::{SimDuration, SimTime};
use sim_obs::{Event, EventLog};
use vswap_hostos::HostKernel;
use vswap_mem::{Gfn, VmId};

sim_core::counters! {
    /// Cumulative Mapper accounting, reported as `mapper_<field>`.
    pub struct MapperStats prefix "mapper_" {
        /// Aligned virtual-disk reads served through the mmap path.
        mapped_reads,
        /// Aligned virtual-disk writes (association established after the
        /// write, §4.1 "Guest I/O Flow").
        mapped_writes,
        /// Requests that fell back to the plain path because they were not
        /// 4 KiB aligned.
        unaligned_fallbacks,
        /// High-water mark of concurrently tracked pages.
        tracked_high_water,
    }
}

/// The Swap Mapper. One instance serves every VM on the machine (the
/// per-VM association state lives with the host kernel, keyed by
/// [`VmId`]).
///
/// # Examples
///
/// ```
/// use vswap_core::SwapMapper;
///
/// let mapper = SwapMapper::new(true);
/// assert!(mapper.enabled());
/// ```
#[derive(Debug)]
pub struct SwapMapper {
    enabled: bool,
    stats: MapperStats,
    /// Structured event sink; disabled (free) unless attached.
    events: EventLog,
}

impl SwapMapper {
    /// Creates a Mapper; `enabled = false` produces a pass-through that
    /// always takes the baseline path.
    pub fn new(enabled: bool) -> Self {
        SwapMapper { enabled, stats: MapperStats::default(), events: EventLog::disabled() }
    }

    /// Attaches a structured event log; page↔block associations made on
    /// the mmap path then emit [`Event::MapperName`] records.
    pub fn set_event_log(&mut self, events: EventLog) {
        self.events = events;
    }

    /// True if the Mapper is interposing on virtual-disk I/O.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &MapperStats {
        &self.stats
    }

    /// Pages currently tracked for `vm` (Figure 15's series).
    pub fn tracked_pages(&self, host: &HostKernel, vm: VmId) -> u64 {
        host.origin_len(vm)
    }

    /// Services a guest virtual-disk read: the mmap path when the Mapper
    /// is on and the request is aligned, the plain `preadv` path
    /// otherwise. Returns the request latency.
    pub fn disk_read(
        &mut self,
        host: &mut HostKernel,
        now: SimTime,
        vm: VmId,
        image_page: u64,
        gfns: &[Gfn],
        aligned: bool,
    ) -> SimDuration {
        let latency = if self.enabled && aligned {
            self.stats.mapped_reads += 1;
            let latency = host.virt_disk_read_mapped(now, vm, image_page, gfns);
            for (i, g) in gfns.iter().enumerate() {
                self.events.emit_with(now, Some(vm.get()), || Event::MapperName {
                    gfn: g.get(),
                    image_page: image_page + i as u64,
                });
            }
            latency
        } else {
            if self.enabled {
                self.stats.unaligned_fallbacks += 1;
            }
            host.virt_disk_read(now, vm, image_page, gfns)
        };
        self.note_tracking(host, vm);
        latency
    }

    /// Services a guest virtual-disk write, with write-then-map
    /// association when the Mapper is on and the request is aligned.
    /// Returns the request latency.
    pub fn disk_write(
        &mut self,
        host: &mut HostKernel,
        now: SimTime,
        vm: VmId,
        gfns: &[Gfn],
        image_page: u64,
        aligned: bool,
    ) -> SimDuration {
        if self.enabled {
            if aligned {
                self.stats.mapped_writes += 1;
            } else {
                self.stats.unaligned_fallbacks += 1;
            }
        }
        let latency = host.virt_disk_write(now, vm, gfns, image_page, aligned);
        if self.enabled && aligned {
            for (i, g) in gfns.iter().enumerate() {
                self.events.emit_with(now, Some(vm.get()), || Event::MapperName {
                    gfn: g.get(),
                    image_page: image_page + i as u64,
                });
            }
        }
        self.note_tracking(host, vm);
        latency
    }

    fn note_tracking(&mut self, host: &HostKernel, vm: VmId) {
        if self.enabled {
            self.stats.tracked_high_water = self.stats.tracked_high_water.max(host.origin_len(vm));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vswap_hostos::{HostSpec, VmMmConfig};

    fn host_vm(mapper: bool) -> (HostKernel, VmId) {
        let spec = HostSpec {
            dram: vswap_mem::MemBytes::from_bytes(512 * 4096),
            disk_pages: 4096,
            swap_pages: 512,
            hypervisor_code_pages: 4,
            ..HostSpec::paper_testbed()
        };
        let mut host = HostKernel::new(spec).unwrap();
        let vm = host
            .create_vm(VmMmConfig {
                gfn_count: 256,
                image_pages: 1024,
                mem_limit_pages: 256,
                mapper_enabled: mapper,
            })
            .unwrap();
        (host, vm)
    }

    #[test]
    fn aligned_reads_use_the_mmap_path() {
        let (mut host, vm) = host_vm(true);
        let mut mapper = SwapMapper::new(true);
        mapper.disk_read(&mut host, SimTime::ZERO, vm, 0, &[Gfn::new(0), Gfn::new(1)], true);
        assert_eq!(mapper.stats().mapped_reads, 1);
        assert_eq!(mapper.tracked_pages(&host, vm), 2);
        assert_eq!(mapper.stats().tracked_high_water, 2);
    }

    #[test]
    fn unaligned_reads_fall_back_and_are_untracked() {
        let (mut host, vm) = host_vm(true);
        let mut mapper = SwapMapper::new(true);
        mapper.disk_read(&mut host, SimTime::ZERO, vm, 0, &[Gfn::new(0)], false);
        assert_eq!(mapper.stats().unaligned_fallbacks, 1);
        assert_eq!(mapper.tracked_pages(&host, vm), 0, "unaligned requests are not tracked");
    }

    #[test]
    fn disabled_mapper_takes_baseline_path() {
        let (mut host, vm) = host_vm(false);
        let mut mapper = SwapMapper::new(false);
        mapper.disk_read(&mut host, SimTime::ZERO, vm, 0, &[Gfn::new(0)], true);
        assert_eq!(mapper.stats().mapped_reads, 0);
        assert_eq!(mapper.stats().unaligned_fallbacks, 0);
        // Baseline still tracks origins for accounting purposes.
        assert_eq!(host.origin_len(vm), 1);
        assert_eq!(mapper.stats().tracked_high_water, 0);
    }

    #[test]
    fn writes_track_after_completion() {
        let (mut host, vm) = host_vm(true);
        let mut mapper = SwapMapper::new(true);
        host.guest_access(SimTime::ZERO, vm, Gfn::new(3), true);
        mapper.disk_write(&mut host, SimTime::ZERO, vm, &[Gfn::new(3)], 10, true);
        assert_eq!(mapper.stats().mapped_writes, 1);
        assert_eq!(mapper.tracked_pages(&host, vm), 1);
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;

    #[test]
    fn stats_render_to_stat_set() {
        let stats = MapperStats {
            mapped_reads: 5,
            mapped_writes: 2,
            unaligned_fallbacks: 1,
            tracked_high_water: 99,
        };
        let set = stats.to_stat_set();
        assert_eq!(set.get("mapper_mapped_reads"), 5);
        assert_eq!(set.get("mapper_mapped_writes"), 2);
        assert_eq!(set.get("mapper_unaligned_fallbacks"), 1);
        assert_eq!(set.get("mapper_tracked_high_water"), 99);
    }
}
