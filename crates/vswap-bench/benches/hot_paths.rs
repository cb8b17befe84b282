//! Criterion micro-benchmarks of the allocation-free fault-path
//! primitives: the bitmap frame allocator, LRU requeue on the intrusive
//! lists, origin-map lookups, and swap-slot allocation. These are the
//! per-fault building blocks whose cost bounds pages-simulated/sec; the
//! suite-level number lives in `BENCH_7.json` (see EXPERIMENTS.md). The
//! `construction` group times the per-guest tables a machine builds for
//! every VM, so an eager per-page fill shows up at its own layer.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vswap_bench::experiments::common;
use vswap_bench::Scale;
use vswap_guestos::{GuestKernel, GuestSwap};
use vswap_hostos::{OriginMap, SlotInfo, SwapArea};
use vswap_mem::{ContentLabel, Ept, FrameOwner, Gfn, HostFrameTable, IndexList, VmId};

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

criterion_group!(
    benches,
    bench_frame_table,
    bench_lru_requeue,
    bench_origin_lookup,
    bench_slot_alloc,
    bench_construction
);
criterion_main!(benches);
