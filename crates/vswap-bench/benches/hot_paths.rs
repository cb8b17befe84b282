//! Criterion micro-benchmarks of the simulator's hot paths: the
//! allocation-free fault-path primitives (the bitmap frame allocator,
//! the intrusive LRU lists, origin-map lookups, swap-slot allocation),
//! the disk model, the EPT, and the host kernel's fault paths. These are
//! the per-fault building blocks whose cost bounds pages-simulated/sec;
//! the suite-level numbers come from the `vswap-perf` benchmark. The
//! `construction` group times the per-guest tables a machine builds for
//! every VM, so an eager per-page fill shows up at its own layer. The
//! `events` group prices event emission: the branch a disabled log costs
//! at every instrumented site, a ring-buffer emit, and one record's
//! JSONL export.

use criterion::{criterion_group, criterion_main, Criterion};
use sim_core::{SimDuration, SimTime};
use sim_obs::{export, Event, EventLog};
use std::hint::black_box;
use vswap_bench::experiments::common;
use vswap_bench::Scale;
use vswap_disk::{DiskModel, DiskSpec, IoKind, IoTag, SectorRange};
use vswap_guestos::{GuestKernel, GuestSwap};
use vswap_hostos::{HostKernel, HostSpec, OriginMap, SlotInfo, SwapArea, VmMmConfig};
use vswap_mem::{
    Backing, ContentLabel, Ept, FrameId, FrameOwner, Gfn, HostFrameTable, IndexList, MemBytes, VmId,
};

/// One host's DRAM at smoke scale (1 GiB / 4 KiB pages).
const DRAM_FRAMES: u64 = 262_144;

fn bench_frame_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame_table");
    group.bench_function("alloc_free_cycle", |b| {
        let mut table = HostFrameTable::new(DRAM_FRAMES);
        // Half-fill so alloc scans a realistic mixed bitmap.
        let owner = FrameOwner::Guest { vm: VmId::new(0), gfn: Gfn::new(0) };
        for _ in 0..DRAM_FRAMES / 2 {
            table.alloc(owner).unwrap();
        }
        b.iter(|| {
            let f = table.alloc(owner).unwrap();
            table.set_accessed(f, true);
            table.free(f);
            black_box(f)
        });
    });
    group.bench_function("construction", |b| {
        b.iter(|| black_box(HostFrameTable::new(DRAM_FRAMES)));
    });
    group.finish();
}

fn bench_lru_requeue(c: &mut Criterion) {
    let mut group = c.benchmark_group("lru");
    group.bench_function("move_to_back", |b| {
        let n = 65_536usize;
        let mut lru = IndexList::with_capacity(n);
        for i in 0..n {
            lru.push_back(i);
        }
        let mut i = 0usize;
        b.iter(|| {
            // Requeue a page that was just referenced — the second-chance
            // hot path taken on every tracked guest access.
            lru.move_to_back(i);
            i = (i + 7919) % n;
            black_box(lru.front())
        });
    });
    group.bench_function("push_pop_cycle", |b| {
        let mut list = IndexList::with_capacity(1 << 16);
        for i in 0..(1 << 15) {
            list.push_back(i);
        }
        b.iter(|| {
            let idx = list.pop_front().expect("non-empty");
            list.push_back(idx);
            black_box(idx)
        });
    });
    group.finish();
}

fn bench_origin_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("origin");
    let gfns = 8_192u64;
    let image_pages = 327_680u64;
    let mut origin = OriginMap::new(gfns, image_pages);
    for g in 0..gfns / 2 {
        origin.associate(Gfn::new(g), g * 13 % image_pages);
    }
    group.bench_function("page_for_gfn", |b| {
        let mut g = 0u64;
        b.iter(|| {
            let hit = origin.page_for_gfn(Gfn::new(g));
            g = (g + 1) % gfns;
            black_box(hit)
        });
    });
    group.bench_function("gfn_for_page", |b| {
        let mut p = 0u64;
        b.iter(|| {
            let hit = origin.gfn_for_page(p);
            p = (p + 131) % image_pages;
            black_box(hit)
        });
    });
    group.finish();
}

fn bench_slot_alloc(c: &mut Criterion) {
    let mut group = c.benchmark_group("swap_area");
    group.bench_function("alloc_free_cycle", |b| {
        let mut area = SwapArea::new(DRAM_FRAMES);
        let info = SlotInfo { vm: VmId::new(0), gfn: Gfn::new(1), label: ContentLabel::ZERO };
        // Fragment the area the way long-running reclaim does, so the
        // cursor scan crosses occupied words.
        let slots: Vec<u64> = (0..DRAM_FRAMES).map(|_| area.alloc(info).unwrap()).collect();
        for s in slots.iter().step_by(2) {
            area.free(*s);
        }
        b.iter(|| {
            let s = area.alloc(info).unwrap();
            area.free(s);
            black_box(s)
        });
    });
    group.finish();
}

/// The tables `Machine::add_vm` builds for one paper-scale guest (512 MiB
/// memory, 1 GiB swap, 20 GiB disk). All are zero at rest, so each costs
/// an `alloc_zeroed` rather than a write per page; the guest kernel also
/// writes its kernel-page prefix.
fn bench_construction(c: &mut Criterion) {
    let guest = common::linux_vm(Scale::Paper, "guest", 512, 128).guest;
    let mut group = c.benchmark_group("construction");
    group.bench_function("ept", |b| b.iter(|| black_box(Ept::new(guest.memory.pages()))));
    group.bench_function("guest_swap", |b| {
        b.iter(|| black_box(GuestSwap::new(0, guest.swap.pages())));
    });
    group.bench_function("guest_kernel", |b| {
        b.iter(|| black_box(GuestKernel::new(guest.clone(), 1)));
    });
    group.finish();
}

fn bench_disk(c: &mut Criterion) {
    let mut group = c.benchmark_group("disk");
    group.bench_function("sequential_submit", |b| {
        let mut disk = DiskModel::new(DiskSpec::hdd_7200());
        let mut sector = 0u64;
        b.iter(|| {
            let io = disk.submit(
                SimTime::ZERO,
                IoKind::Read,
                SectorRange::new(sector, 8),
                IoTag::GuestImage,
            );
            let io = io.expect("no fault plan installed");
            sector += 8;
            black_box(io)
        });
    });
    group.bench_function("scattered_submit", |b| {
        let mut disk = DiskModel::new(DiskSpec::hdd_7200());
        let mut sector = 0u64;
        b.iter(|| {
            let io = disk.submit(
                SimTime::ZERO,
                IoKind::Read,
                SectorRange::new(sector % (1 << 24), 8),
                IoTag::HostSwap,
            );
            let io = io.expect("no fault plan installed");
            sector = sector.wrapping_mul(6364136223846793005).wrapping_add(8);
            black_box(io)
        });
    });
    group.finish();
}

fn bench_ept(c: &mut Criterion) {
    let mut group = c.benchmark_group("ept");
    group.bench_function("map_unmap", |b| {
        let mut ept = Ept::new(1 << 16);
        let mut gfn = 0u64;
        b.iter(|| {
            let g = black_box(Gfn::new(gfn % (1 << 16)));
            ept.map(g, FrameId::new(1));
            // Observe the mapping, or unmap's store makes map's dead.
            black_box(&ept);
            black_box(ept.unmap(g, Backing::None));
            gfn += 1;
        });
    });
    group.finish();
}

/// A disk completion: the kind a traced run emits most often.
fn disk_complete(sector: u64) -> Event {
    Event::DiskComplete {
        dir: IoKind::Read,
        class: IoTag::HostSwap,
        sector,
        sectors: 8,
        latency: SimDuration::from_micros(4),
        sequential: false,
        queue: 0,
    }
}

fn bench_events(c: &mut Criterion) {
    let mut group = c.benchmark_group("events");
    group.bench_function("emit_disabled", |b| {
        let log = EventLog::disabled();
        let mut sector = 0u64;
        b.iter(|| {
            black_box(&log).emit_with(SimTime::ZERO, None, || disk_complete(sector));
            sector += 8;
        });
    });
    group.bench_function("emit_ring", |b| {
        let log = EventLog::bounded(1024);
        for sector in 0..1024 {
            log.emit(SimTime::ZERO, None, disk_complete(sector));
        }
        // The ring is full: each emit below overwrites the oldest record.
        let mut sector = 0u64;
        b.iter(|| {
            log.emit_with(SimTime::from_nanos(sector), None, || disk_complete(black_box(sector)));
            sector += 8;
        });
        assert!(log.dropped() > 0, "the ring must have wrapped");
    });
    group.bench_function("export_jsonl", |b| {
        let log = EventLog::bounded(1);
        log.emit(SimTime::from_nanos(9_000), None, disk_complete(800));
        let records = log.records();
        b.iter(|| black_box(export::to_jsonl_records(black_box(&records))));
    });
    group.finish();
}

fn bench_host_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("host-kernel");
    group.sample_size(20);

    group.bench_function("resident_touch", |b| {
        let (mut host, vm) = tight_host();
        host.guest_access(SimTime::ZERO, vm, Gfn::new(0), false);
        b.iter(|| black_box(host.guest_access(SimTime::ZERO, vm, Gfn::new(0), false)));
    });

    group.bench_function("zero_fill_fault", |b| {
        // Each page is released after its touch, so every touch is a
        // first touch. Without the release the VM is fully resident
        // within the warm-up, and the timed touches are resident ones.
        let (mut host, vm) = roomy_host();
        let mut gfn = 0u64;
        b.iter(|| {
            let g = Gfn::new(gfn % 30_000);
            let out = host.guest_access(SimTime::ZERO, vm, g, false);
            host.balloon_release(vm, g);
            gfn += 1;
            black_box(out)
        });
    });

    group.bench_function("swap_cycle", |b| {
        // Continuously touching twice the limit cycles pages through the
        // swap area: eviction + swap-in with readahead on every step.
        let (mut host, vm) = tight_host();
        let mut gfn = 0u64;
        b.iter(|| {
            let out = host.guest_access(SimTime::ZERO, vm, Gfn::new(gfn % 2048), true);
            gfn += 1;
            black_box(out)
        });
    });
    group.finish();
}

fn tight_host() -> (HostKernel, VmId) {
    let spec = HostSpec {
        dram: MemBytes::from_mb(8),
        disk_pages: MemBytes::from_mb(128).pages(),
        swap_pages: MemBytes::from_mb(32).pages(),
        hypervisor_code_pages: 16,
        ..HostSpec::paper_testbed()
    };
    let mut host = HostKernel::new(spec).expect("valid spec");
    let vm = host
        .create_vm(VmMmConfig {
            gfn_count: 4096,
            image_pages: 8192,
            mem_limit_pages: 1024,
            mapper_enabled: false,
        })
        .expect("fits");
    (host, vm)
}

fn roomy_host() -> (HostKernel, VmId) {
    let spec = HostSpec {
        dram: MemBytes::from_mb(256),
        disk_pages: MemBytes::from_mb(512).pages(),
        swap_pages: MemBytes::from_mb(64).pages(),
        hypervisor_code_pages: 16,
        ..HostSpec::paper_testbed()
    };
    let mut host = HostKernel::new(spec).expect("valid spec");
    let vm = host
        .create_vm(VmMmConfig {
            gfn_count: 32_768,
            image_pages: 8192,
            mem_limit_pages: 32_768,
            mapper_enabled: false,
        })
        .expect("fits");
    (host, vm)
}

criterion_group!(
    benches,
    bench_frame_table,
    bench_lru_requeue,
    bench_origin_lookup,
    bench_slot_alloc,
    bench_construction,
    bench_disk,
    bench_ept,
    bench_events,
    bench_host_paths
);
criterion_main!(benches);
