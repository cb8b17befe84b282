//! Property-based tests over the core data structures and the kernel
//! models: arbitrary operation sequences must preserve every structural
//! invariant.

use proptest::prelude::*;
use sim_core::{DeterministicRng, SimTime};
use std::collections::VecDeque;
use vswap_guestos::swap::GuestSlotInfo;
use vswap_guestos::{GuestKernel, GuestSpec, GuestSwap, MockHardware, ProcId};
use vswap_hostos::{Detach, HostKernel, HostSpec, SlotInfo, SwapArea, VmMmConfig};
use vswap_mem::{
    Backing, ContentLabel, Ept, EptEntry, FrameId, Gfn, IndexList, MemBytes, VmId, Vpn,
};

// ----------------------------------------------------------------------
// IndexList vs a reference deque
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
enum ListOp {
    PushBack(usize),
    PushFront(usize),
    PopFront,
    Remove(usize),
    MoveToBack(usize),
}

fn list_op() -> impl Strategy<Value = ListOp> {
    prop_oneof![
        (0..64usize).prop_map(ListOp::PushBack),
        (0..64usize).prop_map(ListOp::PushFront),
        Just(ListOp::PopFront),
        (0..64usize).prop_map(ListOp::Remove),
        (0..64usize).prop_map(ListOp::MoveToBack),
    ]
}

proptest! {
    #[test]
    fn index_list_matches_reference_deque(ops in prop::collection::vec(list_op(), 1..200)) {
        let mut list = IndexList::with_capacity(64);
        let mut reference: VecDeque<usize> = VecDeque::new();
        for op in ops {
            match op {
                ListOp::PushBack(i) => {
                    if !reference.contains(&i) {
                        list.push_back(i);
                        reference.push_back(i);
                    }
                }
                ListOp::PushFront(i) => {
                    if !reference.contains(&i) {
                        list.push_front(i);
                        reference.push_front(i);
                    }
                }
                ListOp::PopFront => {
                    prop_assert_eq!(list.pop_front(), reference.pop_front());
                }
                ListOp::Remove(i) => {
                    let was_there = reference.contains(&i);
                    prop_assert_eq!(list.remove(i), was_there);
                    reference.retain(|&x| x != i);
                }
                ListOp::MoveToBack(i) => {
                    list.move_to_back(i);
                    reference.retain(|&x| x != i);
                    reference.push_back(i);
                }
            }
            prop_assert_eq!(list.len(), reference.len());
            prop_assert_eq!(list.front(), reference.front().copied());
        }
        let collected: Vec<usize> = list.iter().collect();
        let expected: Vec<usize> = reference.iter().copied().collect();
        prop_assert_eq!(collected, expected);
    }
}

// ----------------------------------------------------------------------
// SwapArea invariants under arbitrary alloc/free
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
enum SwapOp {
    Alloc(u64),
    AllocScattered(u64),
    FreeNth(usize),
}

fn swap_op() -> impl Strategy<Value = SwapOp> {
    prop_oneof![
        (0..1000u64).prop_map(SwapOp::Alloc),
        (0..1000u64).prop_map(SwapOp::AllocScattered),
        (0..64usize).prop_map(SwapOp::FreeNth),
    ]
}

proptest! {
    #[test]
    fn swap_area_never_double_allocates(ops in prop::collection::vec(swap_op(), 1..300)) {
        let capacity = 48;
        let mut swap = SwapArea::new(capacity);
        let mut rng = DeterministicRng::seed_from(7);
        let mut held: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                SwapOp::Alloc(g) | SwapOp::AllocScattered(g) => {
                    let info = SlotInfo {
                        vm: VmId::new(0),
                        gfn: Gfn::new(g),
                        label: ContentLabel::ZERO,
                    };
                    let got = match op {
                        SwapOp::Alloc(_) => swap.alloc(info),
                        _ => swap.alloc_scattered(info, &mut rng, 4),
                    };
                    match got {
                        Some(slot) => {
                            prop_assert!(!held.contains(&slot), "slot {} double-allocated", slot);
                            prop_assert_eq!(swap.get(slot), Some(info));
                            held.push(slot);
                        }
                        None => prop_assert_eq!(held.len() as u64, capacity, "None only when full"),
                    }
                }
                SwapOp::FreeNth(n) => {
                    if !held.is_empty() {
                        let slot = held.remove(n % held.len());
                        swap.free(slot);
                        prop_assert_eq!(swap.get(slot), None);
                    }
                }
            }
            prop_assert_eq!(swap.used(), held.len() as u64);
            prop_assert!(swap.high_water() >= swap.used());
        }
        // Every held slot is distinct and occupied.
        for &slot in &held {
            prop_assert!(swap.get(slot).is_some());
        }
    }
}

// ----------------------------------------------------------------------
// Bitmap frame allocator vs a naive lowest-free-first model
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
enum FrameOp {
    Alloc,
    FreeNth(usize),
    Touch(usize),
}

fn frame_op() -> impl Strategy<Value = FrameOp> {
    prop_oneof![
        Just(FrameOp::Alloc),
        (0..64usize).prop_map(FrameOp::FreeNth),
        (0..64usize).prop_map(FrameOp::Touch),
    ]
}

proptest! {
    #[test]
    fn frame_table_matches_lowest_free_model(ops in prop::collection::vec(frame_op(), 1..400)) {
        use vswap_mem::{FrameOwner, HostFrameTable};
        let total = 130u64; // spans three bitmap words
        let mut table = HostFrameTable::new(total);
        // Reference model: the plain set of free frame numbers; alloc
        // always hands out the minimum.
        let mut model_free: std::collections::BTreeSet<u64> = (0..total).collect();
        let mut held: Vec<u64> = Vec::new();
        let owner = FrameOwner::Guest { vm: VmId::new(1), gfn: Gfn::new(9) };
        for op in ops {
            match op {
                FrameOp::Alloc => {
                    let got = table.alloc(owner).map(|f| u64::from(f.get()));
                    let want = model_free.iter().next().copied();
                    prop_assert_eq!(got, want, "alloc must be lowest-free-first");
                    if let Some(f) = got {
                        model_free.remove(&f);
                        held.push(f);
                        let id = vswap_mem::FrameId::new(f as u32);
                        prop_assert_eq!(table.owner(id), owner);
                        prop_assert!(!table.accessed(id), "fresh frame has clear bits");
                        prop_assert!(!table.dirty(id));
                        prop_assert_eq!(table.label(id), ContentLabel::ZERO);
                    }
                }
                FrameOp::FreeNth(n) => {
                    if !held.is_empty() {
                        let f = held.remove(n % held.len());
                        table.free(vswap_mem::FrameId::new(f as u32));
                        model_free.insert(f);
                    }
                }
                FrameOp::Touch(n) => {
                    if !held.is_empty() {
                        let f = held[n % held.len()];
                        let id = vswap_mem::FrameId::new(f as u32);
                        table.set_accessed(id, true);
                        table.set_dirty(id, true);
                        prop_assert!(table.accessed(id));
                        prop_assert!(table.dirty(id));
                    }
                }
            }
            prop_assert_eq!(table.free_frames(), model_free.len() as u64);
        }
        let allocated: Vec<u64> =
            table.iter_allocated().map(|(id, _)| u64::from(id.get())).collect();
        let mut expected = held.clone();
        expected.sort_unstable();
        prop_assert_eq!(allocated, expected);
    }
}

// ----------------------------------------------------------------------
// Hinted SwapArea::alloc vs a naive cursor-scan model
// ----------------------------------------------------------------------

proptest! {
    #[test]
    fn swap_alloc_order_matches_cursor_model(ops in prop::collection::vec(swap_op(), 1..300)) {
        // The bitmap allocator keeps a low-water hint so the wrap scan
        // skips known-full words; the observable order must still be
        // exactly "first free slot at or after the cursor, else the
        // lowest free slot overall".
        let capacity = 96u64;
        let mut swap = SwapArea::new(capacity);
        let mut model_free: std::collections::BTreeSet<u64> = (0..capacity).collect();
        let mut model_cursor = 0u64;
        let mut held: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                SwapOp::Alloc(g) => {
                    let info = SlotInfo {
                        vm: VmId::new(0),
                        gfn: Gfn::new(g),
                        label: ContentLabel::ZERO,
                    };
                    let want = model_free
                        .range(model_cursor..)
                        .next()
                        .or_else(|| model_free.iter().next())
                        .copied();
                    prop_assert_eq!(swap.alloc(info), want, "hinted scan diverged from model");
                    if let Some(slot) = want {
                        model_free.remove(&slot);
                        model_cursor = slot + 1;
                        held.push(slot);
                    }
                }
                // Scattered allocation draws from the same candidate
                // enumeration; exercised by swap_area_never_double_allocates.
                SwapOp::AllocScattered(_) => {}
                SwapOp::FreeNth(n) => {
                    if !held.is_empty() {
                        let slot = held.remove(n % held.len());
                        swap.free(slot);
                        model_free.insert(slot);
                    }
                }
            }
            prop_assert_eq!(swap.used(), held.len() as u64);
        }
    }
}

// ----------------------------------------------------------------------
// Packed Ept vs a plain table of entries
// ----------------------------------------------------------------------

const EPT_GFNS: u64 = 40;

#[derive(Debug, Clone)]
enum EptOp {
    Map(u64, u32),
    Unmap(u64, Backing),
    SetBacking(u64, Backing),
}

/// Slot and image-page numbers, biased to both ends of the packed range.
fn backing_index() -> impl Strategy<Value = u64> {
    let max = Ept::MAX_BACKING_INDEX;
    prop_oneof![0..1000u64, (max - 1000)..max, Just(max)]
}

fn backing() -> impl Strategy<Value = Backing> {
    prop_oneof![
        Just(Backing::None),
        backing_index().prop_map(Backing::SwapSlot),
        backing_index().prop_map(Backing::ImagePage),
    ]
}

fn ept_op() -> impl Strategy<Value = EptOp> {
    let frame = prop_oneof![0..1000u32, Just(u32::MAX)];
    prop_oneof![
        ((0..EPT_GFNS), frame).prop_map(|(g, f)| EptOp::Map(g, f)),
        ((0..EPT_GFNS), backing()).prop_map(|(g, b)| EptOp::Unmap(g, b)),
        ((0..EPT_GFNS), backing()).prop_map(|(g, b)| EptOp::SetBacking(g, b)),
    ]
}

proptest! {
    #[test]
    fn ept_matches_reference_entries(ops in prop::collection::vec(ept_op(), 1..300)) {
        let mut ept = Ept::new(EPT_GFNS);
        let mut model = vec![EptEntry::NotPresent { backing: Backing::None }; EPT_GFNS as usize];
        for op in ops {
            let g = match op {
                EptOp::Map(g, f) => {
                    if matches!(model[g as usize], EptEntry::NotPresent { .. }) {
                        ept.map(Gfn::new(g), FrameId::new(f));
                        model[g as usize] = EptEntry::Present { frame: FrameId::new(f) };
                    }
                    g
                }
                EptOp::Unmap(g, backing) => {
                    if let EptEntry::Present { frame } = model[g as usize] {
                        prop_assert_eq!(ept.unmap(Gfn::new(g), backing), frame);
                        model[g as usize] = EptEntry::NotPresent { backing };
                    }
                    g
                }
                EptOp::SetBacking(g, backing) => {
                    if matches!(model[g as usize], EptEntry::NotPresent { .. }) {
                        ept.set_backing(Gfn::new(g), backing);
                        model[g as usize] = EptEntry::NotPresent { backing };
                    }
                    g
                }
            };
            let (gfn, want) = (Gfn::new(g), model[g as usize]);
            prop_assert_eq!(ept.entry(gfn), want);
            let (frame, backing) = match want {
                EptEntry::Present { frame } => (Some(frame), None),
                EptEntry::NotPresent { backing } => (None, Some(backing)),
            };
            prop_assert_eq!(ept.translate(gfn), frame);
            prop_assert_eq!(ept.backing(gfn), backing);
            let resident = model.iter().filter(|e| matches!(e, EptEntry::Present { .. })).count();
            prop_assert_eq!(ept.resident_pages(), resident as u64);
        }
        for (g, &want) in model.iter().enumerate() {
            prop_assert_eq!(ept.entry(Gfn::new(g as u64)), want);
        }
        let present: Vec<(Gfn, FrameId)> = ept.iter_present().collect();
        let expected: Vec<(Gfn, FrameId)> = model
            .iter()
            .enumerate()
            .filter_map(|(g, e)| match *e {
                EptEntry::Present { frame } => Some((Gfn::new(g as u64), frame)),
                EptEntry::NotPresent { .. } => None,
            })
            .collect();
        prop_assert_eq!(present, expected);
    }
}

// ----------------------------------------------------------------------
// Structure-of-arrays GuestSwap vs a plain table of slot records
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
enum GuestSwapOp {
    Alloc(GuestSlotInfo),
    FreeNth(usize),
    Window(u64, u64),
}

fn guest_swap_op() -> impl Strategy<Value = GuestSwapOp> {
    // The largest process id the packed `proc + 1` record can hold.
    let proc = prop_oneof![0..8u32, Just(u32::MAX - 1)];
    let info = (proc, any::<u64>(), any::<u64>()).prop_map(|(p, vpn, label)| GuestSlotInfo {
        proc: ProcId::new(p),
        vpn: Vpn::new(vpn),
        label: ContentLabel::from_raw(label),
    });
    prop_oneof![
        info.prop_map(GuestSwapOp::Alloc),
        (0..64usize).prop_map(GuestSwapOp::FreeNth),
        ((0..100u64), (1..20u64)).prop_map(|(start, len)| GuestSwapOp::Window(start, len)),
    ]
}

proptest! {
    #[test]
    fn guest_swap_matches_reference_slots(ops in prop::collection::vec(guest_swap_op(), 1..300)) {
        // 80 slots: one full bitmap word and a partial one.
        let (base, capacity) = (1000u64, 80u64);
        let mut swap = GuestSwap::new(base, capacity);
        let mut model: Vec<Option<GuestSlotInfo>> = vec![None; capacity as usize];
        let mut cursor = 0u64;
        for op in ops {
            match op {
                GuestSwapOp::Alloc(info) => {
                    // First free slot at or after the cursor, else the
                    // lowest free slot overall.
                    let want = (cursor..capacity)
                        .chain(0..cursor)
                        .find(|&s| model[s as usize].is_none());
                    prop_assert_eq!(swap.alloc(info), want, "cursor scan diverged from model");
                    if let Some(slot) = want {
                        model[slot as usize] = Some(info);
                        cursor = slot + 1;
                        prop_assert_eq!(swap.image_page(slot), base + slot);
                    }
                }
                GuestSwapOp::FreeNth(n) => {
                    let occupied: Vec<u64> =
                        (0..capacity).filter(|&s| model[s as usize].is_some()).collect();
                    if !occupied.is_empty() {
                        let slot = occupied[n % occupied.len()];
                        swap.free(slot);
                        model[slot as usize] = None;
                    }
                }
                GuestSwapOp::Window(start, len) => {
                    let expected: Vec<(u64, GuestSlotInfo)> = (start..(start + len).min(capacity))
                        .filter_map(|s| model[s as usize].map(|info| (s, info)))
                        .collect();
                    let mut into = Vec::new();
                    swap.window_into(start, len, &mut into);
                    prop_assert_eq!(into, expected);
                }
            }
            prop_assert_eq!(swap.used(), model.iter().flatten().count() as u64);
        }
        for (s, &want) in model.iter().enumerate() {
            prop_assert_eq!(swap.get(s as u64), want);
        }
    }
}

// ----------------------------------------------------------------------
// Guest kernel: arbitrary op sequences keep the audit green
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
enum GuestOp {
    ReadFile { offset: u64, count: u64 },
    WriteFile { offset: u64, count: u64 },
    TouchAnon { vpn: u64, write: bool },
    OverwriteAnon { vpn: u64 },
    FreeAnon { vpn: u64, count: u64 },
    Balloon { target: u64 },
    Sync,
    DropCaches,
}

fn guest_op() -> impl Strategy<Value = GuestOp> {
    prop_oneof![
        ((0..192u64), (1..16u64)).prop_map(|(offset, count)| GuestOp::ReadFile { offset, count }),
        ((0..192u64), (1..16u64)).prop_map(|(offset, count)| GuestOp::WriteFile { offset, count }),
        ((0..256u64), any::<bool>()).prop_map(|(vpn, write)| GuestOp::TouchAnon { vpn, write }),
        (0..256u64).prop_map(|vpn| GuestOp::OverwriteAnon { vpn }),
        ((0..256u64), (1..16u64)).prop_map(|(vpn, count)| GuestOp::FreeAnon { vpn, count }),
        (0..96u64).prop_map(|target| GuestOp::Balloon { target }),
        Just(GuestOp::Sync),
        Just(GuestOp::DropCaches),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn guest_kernel_invariants_hold(ops in prop::collection::vec(guest_op(), 1..120), seed in 0..u64::MAX) {
        let spec = GuestSpec {
            memory: MemBytes::from_bytes(256 * 4096),
            disk: MemBytes::from_bytes(4096 * 4096),
            swap: MemBytes::from_bytes(512 * 4096),
            kernel_pages: 16,
            boot_file_pages: 0,
            boot_anon_pages: 0,
            ..GuestSpec::small_test()
        };
        let mut guest = GuestKernel::new(spec, seed);
        let mut hw = MockHardware::new(4096);
        let file = guest.create_file(208).unwrap();
        let proc = guest.spawn_process();
        let base = guest.alloc_anon(proc, 272).unwrap();
        for op in ops {
            // Ops may legitimately fail (OOM-killed process); what must
            // never break is the audit below.
            let _ = match op {
                GuestOp::ReadFile { offset, count } => {
                    guest.read_file(&mut hw, file, offset, count.min(208 - offset)).map(|_| ())
                }
                GuestOp::WriteFile { offset, count } => {
                    guest.write_file(&mut hw, file, offset, count.min(208 - offset)).map(|_| ())
                }
                GuestOp::TouchAnon { vpn, write } => {
                    guest.touch_anon(&mut hw, proc, base.offset(vpn), write).map(|_| ())
                }
                GuestOp::OverwriteAnon { vpn } => {
                    guest.overwrite_anon(&mut hw, proc, base.offset(vpn)).map(|_| ())
                }
                GuestOp::FreeAnon { vpn, count } => {
                    guest.free_anon(proc, base.offset(vpn), count.min(272 - vpn))
                }
                GuestOp::Balloon { target } => {
                    guest.balloon_set_target(&mut hw, target).map(|_| ())
                }
                GuestOp::Sync => {
                    guest.sync(&mut hw);
                    Ok(())
                }
                GuestOp::DropCaches => {
                    guest.drop_caches(&mut hw);
                    Ok(())
                }
            };
            guest.audit().map_err(TestCaseError::fail)?;
        }
    }
}

// ----------------------------------------------------------------------
// Host kernel: arbitrary access sequences keep the audit green and
// content intact
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
enum HostOp {
    Access { gfn: u64, write: bool },
    Overwrite { gfn: u64 },
    DiskRead { page: u64, gfn: u64 },
    DiskWrite { gfn: u64, page: u64 },
    BalloonRelease { gfn: u64 },
}

fn host_op() -> impl Strategy<Value = HostOp> {
    prop_oneof![
        ((0..192u64), any::<bool>()).prop_map(|(gfn, write)| HostOp::Access { gfn, write }),
        (0..192u64).prop_map(|gfn| HostOp::Overwrite { gfn }),
        ((0..512u64), (0..192u64)).prop_map(|(page, gfn)| HostOp::DiskRead { page, gfn }),
        ((0..192u64), (0..512u64)).prop_map(|(gfn, page)| HostOp::DiskWrite { gfn, page }),
        (0..192u64).prop_map(|gfn| HostOp::BalloonRelease { gfn }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn host_kernel_invariants_hold(
        ops in prop::collection::vec(host_op(), 1..150),
        mapper in any::<bool>(),
    ) {
        let spec = HostSpec {
            dram: MemBytes::from_bytes(256 * 4096),
            disk_pages: 4096,
            swap_pages: 1024,
            hypervisor_code_pages: 4,
            ..HostSpec::paper_testbed()
        };
        let mut host = HostKernel::new(spec).unwrap();
        let vm = host
            .create_vm(VmMmConfig {
                gfn_count: 192,
                image_pages: 512,
                mem_limit_pages: 64,
                mapper_enabled: mapper,
            })
            .unwrap();
        // Shadow content model: what the guest must observe per gfn.
        let mut expected: Vec<Option<ContentLabel>> = vec![None; 192];
        let t = SimTime::ZERO;
        for op in ops {
            match op {
                HostOp::Access { gfn, write } => {
                    let out = host.guest_access(t, vm, Gfn::new(gfn), write);
                    match (write, expected[gfn as usize]) {
                        (true, _) => expected[gfn as usize] = Some(out.label),
                        (false, Some(label)) => prop_assert_eq!(out.label, label, "gfn {} content", gfn),
                        (false, None) => expected[gfn as usize] = Some(out.label),
                    }
                }
                HostOp::Overwrite { gfn } => {
                    let label = host.fresh_label();
                    let out = host.overwrite_page(t, vm, Gfn::new(gfn), label);
                    prop_assert_eq!(out.label, label);
                    expected[gfn as usize] = Some(label);
                }
                HostOp::DiskRead { page, gfn } => {
                    if mapper {
                        host.virt_disk_read_mapped(t, vm, page, &[Gfn::new(gfn)]);
                        // A re-read of the same block into a new page
                        // dissolves the old page's discarded mapping; its
                        // content degrades to the zero page (the guest
                        // would never read a frame it dropped without
                        // overwriting it first). Stop expecting it.
                        let label = host.image_label(vm, page);
                        for (other, slot) in expected.iter_mut().enumerate() {
                            if other as u64 != gfn && *slot == Some(label) {
                                *slot = None;
                            }
                        }
                    } else {
                        host.virt_disk_read(t, vm, page, &[Gfn::new(gfn)]);
                    }
                    expected[gfn as usize] = Some(host.image_label(vm, page));
                }
                HostOp::DiskWrite { gfn, page } => {
                    host.virt_disk_write(t, vm, &[Gfn::new(gfn)], page, true);
                    let label = host.resident_label(vm, Gfn::new(gfn)).unwrap();
                    prop_assert_eq!(host.image_label(vm, page), label);
                    expected[gfn as usize] = Some(label);
                }
                HostOp::BalloonRelease { gfn } => {
                    host.balloon_release(vm, Gfn::new(gfn));
                    expected[gfn as usize] = None; // pinned away; zero on reuse
                }
            }
            host.audit().map_err(TestCaseError::fail)?;
        }
        // Every expectation must still hold after the dust settles.
        for (gfn, label) in expected.iter().enumerate() {
            if let Some(label) = label {
                let out = host.guest_access(t, vm, Gfn::new(gfn as u64), false);
                prop_assert_eq!(out.label, *label, "final content of gfn {}", gfn);
            }
        }
        host.audit().map_err(TestCaseError::fail)?;
    }
}

// ----------------------------------------------------------------------
// Disk model: latency sanity under arbitrary request streams
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
enum DiskOp {
    Read { sector: u64, pages: u64 },
    Write { sector: u64, pages: u64 },
    Writeback { sector: u64, pages: u64 },
}

fn disk_op() -> impl Strategy<Value = DiskOp> {
    let addr = 0..(1u64 << 22);
    let len = 1..64u64;
    prop_oneof![
        (addr.clone(), len.clone()).prop_map(|(sector, pages)| DiskOp::Read { sector, pages }),
        (addr.clone(), len.clone()).prop_map(|(sector, pages)| DiskOp::Write { sector, pages }),
        (addr, len).prop_map(|(sector, pages)| DiskOp::Writeback { sector, pages }),
    ]
}

proptest! {
    #[test]
    fn disk_model_is_monotonic_and_consistent(ops in prop::collection::vec(disk_op(), 1..200)) {
        use vswap_disk::{DiskModel, DiskSpec, IoKind, IoTag, SectorRange};
        let mut disk = DiskModel::new(DiskSpec::hdd_7200());
        let mut now = SimTime::ZERO;
        let mut last_busy = SimTime::ZERO;
        for op in ops {
            let io = match op {
                DiskOp::Read { sector, pages } => disk.submit(
                    now,
                    IoKind::Read,
                    SectorRange::new(sector, pages * 8),
                    IoTag::GuestImage,
                ),
                DiskOp::Write { sector, pages } => disk.submit(
                    now,
                    IoKind::Write,
                    SectorRange::new(sector, pages * 8),
                    IoTag::HostSwap,
                ),
                DiskOp::Writeback { sector, pages } => disk.submit_writeback(
                    now,
                    SectorRange::new(sector, pages * 8),
                    IoTag::HostSwap,
                ),
            };
            let io = io.expect("no fault plan installed");
            // Completions are causal and the device only moves forward.
            prop_assert!(io.started >= now);
            prop_assert!(io.finished > io.started);
            prop_assert!(disk.busy_until() >= last_busy);
            prop_assert_eq!(disk.busy_until(), io.finished);
            last_busy = disk.busy_until();
            // Time flows: next submission happens at or after this one.
            now = now.max(io.started);
        }
        let s = disk.stats();
        prop_assert_eq!(s.ops, s.sequential_ops + s.seeks);
        prop_assert_eq!(s.ops, s.read_ops + s.write_ops);
        prop_assert!(s.swap_sectors_read <= s.sectors_read);
        prop_assert!(s.swap_sectors_written <= s.sectors_written);
        prop_assert!(s.swap_read_seeks <= s.swap_read_ops);
    }
}

// ----------------------------------------------------------------------
// Fault plans: failures are a pure per-sector function of the seed
// ----------------------------------------------------------------------

// Splitting or merging a request stream must never change which sectors
// fail — otherwise request coalescing would perturb fault injection and
// break `--jobs` determinism.
proptest! {
    #[test]
    fn merging_never_changes_which_sectors_fail(
        seed in any::<u64>(),
        write in any::<bool>(),
        attempt in 0..3u32,
        start in 0..5_000u64,
        len in 2..256u64,
        cut in any::<u64>(),
    ) {
        use vswap_disk::{FaultConfig, FaultPlan};
        let plan = FaultPlan::new(
            FaultConfig {
                latent_rate: 0.02,
                transient_rate: 0.10,
                timeout_rate: 0.05,
                torn_rate: 0.10,
                ..FaultConfig::default()
            },
            seed,
        );
        // Split [start, start + len) into two non-empty pieces at `at`.
        let at = 1 + cut % (len - 1);
        let mut pieces = plan.faulty_sectors(write, start, at, attempt);
        pieces.extend(plan.faulty_sectors(write, start + at, len - at, attempt));
        prop_assert_eq!(pieces, plan.faulty_sectors(write, start, len, attempt));
    }

    // `decide` fails a request on exactly the first faulty sector that
    // `faulty_sectors` reports — the two views of a plan always agree.
    #[test]
    fn decide_agrees_with_the_faulty_sector_set(
        seed in any::<u64>(),
        write in any::<bool>(),
        attempt in 0..3u32,
        start in 0..5_000u64,
        len in 1..256u64,
    ) {
        use vswap_disk::{FaultConfig, FaultPlan};
        let plan = FaultPlan::new(
            FaultConfig {
                latent_rate: 0.02,
                transient_rate: 0.10,
                timeout_rate: 0.05,
                torn_rate: 0.10,
                ..FaultConfig::default()
            },
            seed,
        );
        let sectors = plan.faulty_sectors(write, start, len, attempt);
        match plan.decide(write, start, len, attempt) {
            Some(fault) => prop_assert_eq!(sectors.first().copied(), Some(fault.sector)),
            None => prop_assert!(sectors.is_empty()),
        }
        // Latent errors are permanent: past the retry burst only they
        // remain, so every sector still failing must be latent-bad.
        for s in plan.faulty_sectors(write, start, len, u32::MAX) {
            prop_assert!(plan.latent_bad(s));
        }
    }
}

// ----------------------------------------------------------------------
// False Reads Preventer: arbitrary interleavings never corrupt content
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
enum PreventOp {
    PartialWrite(u64),
    FullOverwrite(u64),
    GuestRead(u64),
    HostFlush(u64),
    Expire(u64),
    Cancel(u64),
}

fn prevent_op() -> impl Strategy<Value = PreventOp> {
    prop_oneof![
        (0..96u64).prop_map(PreventOp::PartialWrite),
        (0..96u64).prop_map(PreventOp::FullOverwrite),
        (0..96u64).prop_map(PreventOp::GuestRead),
        (0..96u64).prop_map(PreventOp::HostFlush),
        (0..4_000_000u64).prop_map(PreventOp::Expire),
        (0..96u64).prop_map(PreventOp::Cancel),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn preventer_preserves_content_under_any_interleaving(
        ops in prop::collection::vec(prevent_op(), 1..120),
    ) {
        use vswap_core::{FalseReadsPreventer, PreventerConfig};
        let spec = HostSpec {
            dram: MemBytes::from_bytes(256 * 4096),
            disk_pages: 4096,
            swap_pages: 1024,
            hypervisor_code_pages: 4,
            ..HostSpec::paper_testbed()
        };
        let mut host = HostKernel::new(spec).unwrap();
        let vm = host
            .create_vm(VmMmConfig {
                gfn_count: 96,
                image_pages: 512,
                mem_limit_pages: 48,
                mapper_enabled: false,
            })
            .unwrap();
        // Swap half the pages out so interception has targets.
        for g in 0..96 {
            host.guest_access(SimTime::ZERO, vm, Gfn::new(g), true);
        }
        let mut preventer = FalseReadsPreventer::new(PreventerConfig {
            max_pages: 8,
            ..PreventerConfig::default()
        });
        // Shadow: the content each gfn must finally show.
        let mut expected: Vec<ContentLabel> = (0..96)
            .map(|g| host.page_signature(vm, Gfn::new(g)).expect("written above"))
            .collect();
        let mut now = SimTime::ZERO;
        for op in ops {
            now += sim_core::SimDuration::from_micros(50);
            match op {
                PreventOp::PartialWrite(g) => {
                    let gfn = Gfn::new(g);
                    if preventer.is_emulating(vm, gfn) || preventer.should_intercept(&host, vm, gfn) {
                        let (label, _) = preventer.on_partial_write(&mut host, now, vm, gfn);
                        expected[g as usize] = label;
                    } else {
                        let out = host.guest_access(now, vm, gfn, true);
                        expected[g as usize] = out.label;
                    }
                }
                PreventOp::FullOverwrite(g) => {
                    let gfn = Gfn::new(g);
                    let label = host.fresh_label();
                    if preventer.is_emulating(vm, gfn) || preventer.should_intercept(&host, vm, gfn) {
                        preventer.on_full_overwrite(&mut host, now, vm, gfn, label);
                    } else {
                        host.overwrite_page(now, vm, gfn, label);
                    }
                    expected[g as usize] = label;
                }
                PreventOp::GuestRead(g) => {
                    let gfn = Gfn::new(g);
                    preventer.on_guest_read(&mut host, now, vm, gfn);
                    let out = host.guest_access(now, vm, gfn, false);
                    prop_assert_eq!(out.label, expected[g as usize], "read of gfn {}", g);
                }
                PreventOp::HostFlush(g) => {
                    preventer.flush_for_host_access(&mut host, now, vm, Gfn::new(g));
                }
                PreventOp::Expire(advance) => {
                    now += sim_core::SimDuration::from_micros(advance);
                    preventer.expire(&mut host, now);
                }
                PreventOp::Cancel(g) => {
                    let gfn = Gfn::new(g);
                    if preventer.is_emulating(vm, gfn) {
                        preventer.cancel(&mut host, now, vm, gfn);
                        // The page reverts to its pre-emulation backing
                        // content; re-read the truth.
                        expected[g as usize] = host
                            .page_signature(vm, gfn)
                            .unwrap_or(ContentLabel::ZERO);
                    }
                }
            }
            prop_assert!(preventer.active() <= 8, "capacity cap respected");
            host.audit().map_err(TestCaseError::fail)?;
        }
        // Drain the table and verify every page's final content.
        preventer.flush_all(&mut host, now);
        for g in 0..96u64 {
            let out = host.guest_access(now, vm, Gfn::new(g), false);
            prop_assert_eq!(out.label, expected[g as usize], "final content of gfn {}", g);
        }
        host.audit().map_err(TestCaseError::fail)?;
    }
}

// ----------------------------------------------------------------------
// Balloon manager: bounded steps and caps under arbitrary telemetry
// ----------------------------------------------------------------------

proptest! {
    #[test]
    fn balloon_targets_are_bounded_and_capped(
        rounds in prop::collection::vec(
            ((0u64..200_000), (0u64..70_000), (0u64..500), (0u32..100)),
            1..60,
        ),
    ) {
        use vswap_hypervisor::{BalloonManager, BalloonPolicy, VmTelemetry};
        let policy = BalloonPolicy::default();
        let step = (100_000.0 * policy.step_fraction) as u64;
        let cap = (100_000.0 * policy.max_fraction) as u64;
        let mut mom = BalloonManager::new(policy);
        let mut t = SimTime::ZERO;
        for (free, balloon, swaps, free_pct) in rounds {
            t += sim_core::SimDuration::from_secs(2);
            let balloon = balloon.min(cap); // a real machine never exceeds it
            let telemetry = [VmTelemetry {
                vm: VmId::new(0),
                guest_total_pages: 100_000,
                guest_free_pages: free.min(100_000),
                balloon_pages: balloon,
                recent_guest_swap_outs: swaps,
            }];
            for target in mom.poll(t, f64::from(free_pct) / 100.0, &telemetry) {
                prop_assert!(target.target_pages <= cap, "cap respected");
                let moved = target.target_pages.abs_diff(balloon);
                prop_assert!(moved <= step, "step bound respected: moved {}", moved);
                prop_assert_ne!(target.target_pages, balloon, "no no-op targets emitted");
            }
        }
    }
}

// ----------------------------------------------------------------------
// ListArena: shared-links lists vs reference deques
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
enum ArenaOp {
    Push { list: bool, idx: usize },
    Pop { list: bool },
    Remove { idx: usize },
    MoveBack { idx: usize },
}

fn arena_op() -> impl Strategy<Value = ArenaOp> {
    prop_oneof![
        (any::<bool>(), 0..48usize).prop_map(|(list, idx)| ArenaOp::Push { list, idx }),
        any::<bool>().prop_map(|list| ArenaOp::Pop { list }),
        (0..48usize).prop_map(|idx| ArenaOp::Remove { idx }),
        (0..48usize).prop_map(|idx| ArenaOp::MoveBack { idx }),
    ]
}

proptest! {
    #[test]
    fn arena_lists_match_reference_deques(ops in prop::collection::vec(arena_op(), 1..250)) {
        use vswap_mem::{ListArena, ListHead};
        let mut arena = ListArena::with_capacity(48);
        let mut heads = [ListHead::new(), ListHead::new()];
        let mut refs: [VecDeque<usize>; 2] = [VecDeque::new(), VecDeque::new()];
        // Which list each element is on, if any.
        let mut on: Vec<Option<usize>> = vec![None; 48];
        for op in ops {
            match op {
                ArenaOp::Push { list, idx } => {
                    let l = usize::from(list);
                    if on[idx].is_none() {
                        arena.push_back(&mut heads[l], idx);
                        refs[l].push_back(idx);
                        on[idx] = Some(l);
                    }
                }
                ArenaOp::Pop { list } => {
                    let l = usize::from(list);
                    let got = arena.pop_front(&mut heads[l]);
                    let expect = refs[l].pop_front();
                    prop_assert_eq!(got, expect);
                    if let Some(idx) = got {
                        on[idx] = None;
                    }
                }
                ArenaOp::Remove { idx } => {
                    if let Some(l) = on[idx] {
                        prop_assert!(arena.remove(&mut heads[l], idx));
                        refs[l].retain(|&x| x != idx);
                        on[idx] = None;
                    }
                }
                ArenaOp::MoveBack { idx } => {
                    if let Some(l) = on[idx] {
                        arena.move_to_back(&mut heads[l], idx);
                        refs[l].retain(|&x| x != idx);
                        refs[l].push_back(idx);
                    }
                }
            }
            for l in 0..2 {
                prop_assert_eq!(heads[l].len(), refs[l].len());
                prop_assert_eq!(heads[l].front(), refs[l].front().copied());
                let got: Vec<usize> = arena.iter(&heads[l]).collect();
                let expect: Vec<usize> = refs[l].iter().copied().collect();
                prop_assert_eq!(got, expect);
            }
        }
    }
}

// ----------------------------------------------------------------------
// Latency histograms: merging is a commutative monoid and quantiles do
// not depend on how samples were sharded across workers
// ----------------------------------------------------------------------

fn hist_of(samples: &[u64]) -> sim_obs::LatencyHist {
    let mut h = sim_obs::LatencyHist::new();
    for &ns in samples {
        h.record(sim_core::SimDuration::from_nanos(ns));
    }
    h
}

proptest! {
    #[test]
    fn latency_hist_merge_is_associative_and_commutative(
        a in prop::collection::vec(any::<u64>(), 0..80),
        b in prop::collection::vec(any::<u64>(), 0..80),
        c in prop::collection::vec(any::<u64>(), 0..80),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        // Commutativity: a+b == b+a.
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);
        // Associativity: (a+b)+c == a+(b+c).
        let mut left = ab.clone();
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        // The empty histogram is the identity.
        let mut with_empty = ha.clone();
        with_empty.merge(&sim_obs::LatencyHist::new());
        prop_assert_eq!(&with_empty, &ha);
    }

    // The suite merges per-task books in task order; workers shard the
    // samples arbitrarily. Quantiles must come out as if one worker had
    // seen every sample — otherwise `--jobs` would perturb the latency
    // golden table.
    #[test]
    fn quantiles_are_invariant_under_sharding_and_merge_order(
        samples in prop::collection::vec((any::<u64>(), 0..4usize), 1..200),
    ) {
        let all: Vec<u64> = samples.iter().map(|&(ns, _)| ns).collect();
        let whole = hist_of(&all);
        let mut shards = vec![sim_obs::LatencyHist::new(); 4];
        for &(ns, shard) in &samples {
            shards[shard].record(sim_core::SimDuration::from_nanos(ns));
        }
        let mut forward = sim_obs::LatencyHist::new();
        for shard in &shards {
            forward.merge(shard);
        }
        let mut backward = sim_obs::LatencyHist::new();
        for shard in shards.iter().rev() {
            backward.merge(shard);
        }
        prop_assert_eq!(&forward, &whole);
        prop_assert_eq!(&backward, &whole);
        for permille in [0, 1, 250, 500, 900, 990, 999, 1000] {
            prop_assert_eq!(
                forward.quantile_permille(permille),
                whole.quantile_permille(permille),
                "p{} drifted under sharding", permille
            );
        }
        prop_assert_eq!(forward.count(), all.len() as u64);
        prop_assert_eq!(forward.max(), whole.max());
        prop_assert_eq!(forward.mean(), whole.mean());
    }
}

// ----------------------------------------------------------------------
// Span trees: any properly nested open/close/emit interleaving yields a
// well-formed forest whose child durations sum within the root's
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
enum SpanOp {
    /// Open a new span (pushed on the log's LIFO stack).
    Open,
    /// Close the innermost open span.
    Close,
    /// Emit a leaf event parented to the innermost open span.
    Leaf,
    /// Advance simulated time by this many nanoseconds.
    Advance(u64),
}

fn span_op() -> impl Strategy<Value = SpanOp> {
    prop_oneof![
        Just(SpanOp::Open),
        Just(SpanOp::Close),
        Just(SpanOp::Leaf),
        (1..1_000_000u64).prop_map(SpanOp::Advance),
    ]
}

proptest! {
    #[test]
    fn span_forests_from_nested_logs_are_well_formed(
        ops in prop::collection::vec(span_op(), 1..250),
    ) {
        use sim_obs::{Event, EventLog, SpanForest};
        let log = EventLog::bounded(1 << 12);
        let mut now = SimTime::ZERO;
        let mut stack = Vec::new();
        for op in ops {
            match op {
                SpanOp::Open => stack.push(log.open_span(now)),
                SpanOp::Close => {
                    if let Some(id) = stack.pop() {
                        log.close_span_with(id, Some(0), || Event::SwapIn {
                            gfn: 0,
                            readahead: 0,
                        });
                    }
                }
                SpanOp::Leaf => log.emit(
                    now,
                    Some(0),
                    Event::ReclaimScan { scanned: 1, reclaimed: 0 },
                ),
                SpanOp::Advance(ns) => now += sim_core::SimDuration::from_nanos(ns),
            }
        }
        while let Some(id) = stack.pop() {
            log.close_span_with(id, Some(0), || Event::PageFault {
                gfn: 0,
                write: false,
                major: true,
            });
        }
        prop_assert_eq!(log.open_spans(), 0, "every span closed");
        let records = log.records();
        let forest = SpanForest::from_records(&records);
        forest.validate().map_err(TestCaseError::fail)?;
        prop_assert_eq!(forest.orphan_events(), 0);
        prop_assert_eq!(forest.orphan_spans(), 0);
        // Proper nesting means siblings cannot overlap, so the children
        // of any span account for no more time than the span itself.
        for node in forest.nodes() {
            let children: sim_core::SimDuration = node
                .children
                .iter()
                .map(|&c| forest.nodes()[c].duration())
                .sum();
            prop_assert!(
                children <= node.duration(),
                "span {}: children sum {:?} exceeds own {:?}",
                node.id, children, node.duration()
            );
            for &c in &node.children {
                let child = &forest.nodes()[c];
                prop_assert!(child.start >= node.start, "children start within the parent");
                prop_assert!(child.id > node.id, "parents are opened before children");
            }
        }
    }
}

// ----------------------------------------------------------------------
// Multi-queue DiskModel at one queue / depth one vs a naive FIFO model
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
enum MqOp {
    /// Foreground read/write of `sectors` at `sector`, after advancing
    /// the clock by `advance_us`.
    Submit { write: bool, sector: u64, sectors: u64, advance_us: u64 },
    /// Write-behind of `sectors` at `sector` (no head disturbance).
    Writeback { sector: u64, sectors: u64, advance_us: u64 },
}

fn mq_op() -> impl Strategy<Value = MqOp> {
    prop_oneof![
        (any::<bool>(), 0..100_000u64, 1..64u64, 0..20_000u64).prop_map(
            |(write, sector, sectors, advance_us)| MqOp::Submit {
                write,
                sector,
                sectors,
                advance_us
            }
        ),
        (0..100_000u64, 1..64u64, 0..20_000u64).prop_map(|(sector, sectors, advance_us)| {
            MqOp::Writeback { sector, sectors, advance_us }
        }),
    ]
}

/// The pre-multi-queue model: one head, one outstanding command, service
/// starts at `now.max(busy_until)`.
struct NaiveDisk {
    spec: vswap_disk::DiskSpec,
    head: Option<u64>,
    busy_until: SimTime,
}

impl NaiveDisk {
    fn submit(
        &mut self,
        now: SimTime,
        range: vswap_disk::SectorRange,
        writeback: bool,
    ) -> (SimTime, SimTime, bool) {
        let started = now.max(self.busy_until);
        let gap = if writeback {
            None
        } else {
            match self.head {
                None => Some(u64::MAX),
                Some(end) if end == range.start() => None,
                Some(end) => Some(end.abs_diff(range.start())),
            }
        };
        let finished = started + self.spec.request_latency(gap, range.len());
        if !writeback {
            self.head = Some(range.end());
        }
        self.busy_until = self.busy_until.max(finished);
        (started, finished, gap.is_none())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn single_queue_depth_one_matches_the_naive_fifo_model(
        ops in prop::collection::vec(mq_op(), 1..120),
    ) {
        use vswap_disk::{DiskModel, DiskSpec, IoKind, IoTag, SectorRange};
        // hdd/ssd declare one hardware queue; either works here.
        let spec = DiskSpec::hdd_7200();
        let mut disk = DiskModel::with_queue_depth(spec, 1);
        let mut naive = NaiveDisk { spec, head: None, busy_until: SimTime::ZERO };
        let mut now = SimTime::ZERO;
        for op in ops {
            match op {
                MqOp::Submit { write, sector, sectors, advance_us } => {
                    now += sim_core::SimDuration::from_micros(advance_us);
                    let range = SectorRange::new(sector, sectors);
                    let kind = if write { IoKind::Write } else { IoKind::Read };
                    let io = disk.submit(now, kind, range, IoTag::HostSwap).expect("no faults");
                    let (started, finished, sequential) = naive.submit(now, range, false);
                    prop_assert_eq!(io.started, started);
                    prop_assert_eq!(io.finished, finished);
                    prop_assert_eq!(io.sequential, sequential);
                }
                MqOp::Writeback { sector, sectors, advance_us } => {
                    now += sim_core::SimDuration::from_micros(advance_us);
                    let range = SectorRange::new(sector, sectors);
                    let io = disk
                        .submit_writeback(now, range, IoTag::HostSwap)
                        .expect("no faults");
                    let (started, finished, _) = naive.submit(now, range, true);
                    prop_assert_eq!(io.started, started);
                    prop_assert_eq!(io.finished, finished);
                    prop_assert!(io.sequential, "write-behind rides the elevator");
                }
            }
            prop_assert_eq!(disk.busy_until(), naive.busy_until);
        }
        // One queue at depth one can never overlap or reorder.
        prop_assert_eq!(disk.stats().ooo_completions, 0);
        prop_assert!(disk.stats().max_inflight <= 1);
        prop_assert_eq!(disk.stats().doorbells, disk.stats().ops);
    }
}

// ----------------------------------------------------------------------
// detach_vm / admit_vm round-trip under injected disk faults
// ----------------------------------------------------------------------

/// One round-trip: run a squeezed guest on a faulting source machine,
/// detach it in `mode`, admit it onto an (independently faulting)
/// destination, and require every page the guest still counts as live
/// to read back with its pre-detach content signature. An orderly
/// detach keeps every live page; a crash may only shed pages it counts
/// as refaulted. Returns the label of the first violated expectation,
/// or `None` on success.
fn fault_round_trip(
    seed: u64,
    scan_mb: u64,
    passes: u32,
    profile: vswap_core::FaultProfile,
    mode: Detach,
) -> Option<String> {
    use vswap_core::workload_api::FileScan;
    use vswap_core::{Machine, MachineConfig, SwapPolicy};
    use vswap_hypervisor::VmSpec;

    let host = HostSpec {
        dram: MemBytes::from_mb(48),
        disk_pages: MemBytes::from_mb(512).pages(),
        swap_pages: MemBytes::from_mb(64).pages(),
        hypervisor_code_pages: 16,
        ..HostSpec::paper_testbed()
    };
    let cfg = MachineConfig::preset(SwapPolicy::Vswapper)
        .with_host(host)
        .with_seed(seed)
        .with_faults(profile);
    let mut src = Machine::new(cfg.clone()).expect("valid source");
    // The destination forks its seed so its fault schedule is
    // independent — both sides inject while the hand-off runs.
    let mut dst = Machine::new(cfg.with_seed(seed.wrapping_add(1))).expect("valid destination");

    let spec = VmSpec::linux("mover", MemBytes::from_mb(32), MemBytes::from_mb(16)).with_guest(
        GuestSpec {
            memory: MemBytes::from_mb(32),
            disk: MemBytes::from_mb(64),
            swap: MemBytes::from_mb(16),
            kernel_pages: 64,
            boot_file_pages: 128,
            boot_anon_pages: 64,
            ..GuestSpec::linux_default()
        },
    );
    let vm = src.add_vm(spec).expect("fits");
    // Scan more than the 16 MB grant: the squeeze pushes pages through
    // host swap and the Mapper under live fault traffic.
    src.launch(vm, Box::new(FileScan::new(MemBytes::from_mb(scan_mb).pages(), passes)));
    src.run();
    src.host().audit().expect("source invariants hold before extraction");

    let before = src.guest(vm).expected_resident_content();
    if before.is_empty() {
        return Some("the guest must end holding live pages".to_owned());
    }

    let grant = src.detach_vm(vm, mode);
    let refaulted = grant.refaulted_pages();
    if mode == Detach::Orderly
        && (refaulted, grant.recovered_pages(), grant.dropped_buffers()) != (0, 0, 0)
    {
        return Some(format!("{}: an orderly detach reported crash losses", profile.label()));
    }
    let arrival = src.now().max(dst.now());
    let vm = dst.admit_vm(grant, arrival).expect("destination fits the VM");
    dst.host().audit().expect("destination invariants hold after admission");

    // Both lists are in gfn order, so a binary search tests membership.
    let after = dst.guest(vm).expected_resident_content();
    if after.iter().any(|page| before.binary_search(page).is_err()) {
        return Some(format!(
            "{} {mode:?}: the guest's view of its live pages changed in transit",
            profile.label()
        ));
    }
    let left = (before.len() - after.len()) as u64;
    if left != refaulted {
        return Some(format!(
            "{} {mode:?}: {left} pages left the live set but {refaulted} were refaulted",
            profile.label()
        ));
    }
    for &(gfn, label) in &after {
        if dst.host().page_signature(vm.vm_id(), gfn) != Some(label) {
            return Some(format!(
                "{} {mode:?}: {gfn:?} lost its content crossing hosts",
                profile.label()
            ));
        }
    }
    None
}

// The hand-off must conserve guest content even when the source disk
// is actively misbehaving — under `torn` (corrupted multi-sector writes
// repaired by the journal) and `transient` (retried read/write
// failures) profiles alike, and whether the VM leaves in an orderly
// migration or off a crashed host.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn extract_admit_round_trips_content_under_disk_faults(
        seed in any::<u64>(),
        scan_mb in 18u64..26,
        passes in 1u32..3,
    ) {
        use vswap_core::FaultProfile;
        for profile in [FaultProfile::Torn, FaultProfile::Transient] {
            for mode in [Detach::Orderly, Detach::Crashed] {
                let violation = fault_round_trip(seed, scan_mb, passes, profile, mode);
                prop_assert_eq!(violation, None);
            }
        }
    }
}
