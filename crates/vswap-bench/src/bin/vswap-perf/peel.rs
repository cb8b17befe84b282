//! The guest peel: the same guest programs, replayed on a `GuestKernel`
//! over a dense in-memory `VirtualHardware` with no host beneath it.
//!
//! Its wall-clock is the guest's own cost (workload plus guest kernel);
//! subtracting it from the machine's summed step time leaves everything
//! beneath the virtual-hardware bus. The split is only exact while the
//! guest behaves identically on both platforms, so the peel counts its
//! steps and virtual-disk requests for comparison with the machine run.

use sim_core::SimDuration;
use std::cell::Cell;
use vswap_guestos::{
    AccessResult, GuestCtx, GuestKernel, GuestProgram, GuestSpec, StepOutcome, VirtualHardware,
};
use vswap_mem::{ContentLabel, Gfn, LabelGen};

/// Flat-array hardware: guest memory and the disk image as label
/// vectors indexed by page, with no latency.
struct DenseHardware {
    mem: Vec<u64>,
    /// Label + 1 of each rewritten image page; 0 keeps the page's
    /// original content, `image_base + page`. The vector is zeroed
    /// lazily by the allocator, so a 20 GB image costs only the pages
    /// the guest writes.
    image: Vec<u64>,
    image_base: u64,
    labels: LabelGen,
    calls: Cell<u64>,
    disk_requests: u64,
}

impl DenseHardware {
    fn new(spec: &GuestSpec) -> Self {
        let mut labels = LabelGen::new();
        let image_pages = spec.disk.pages();
        let image_base = labels.fresh_block(image_pages).get();
        DenseHardware {
            mem: vec![0; spec.memory.pages() as usize],
            image: vec![0; image_pages as usize],
            image_base,
            labels,
            calls: Cell::new(0),
            disk_requests: 0,
        }
    }

    fn count(&self) {
        self.calls.set(self.calls.get() + 1);
    }

    fn image_at(&self, page: u64) -> ContentLabel {
        match self.image[page as usize] {
            0 => ContentLabel::from_raw(self.image_base + page),
            stored => ContentLabel::from_raw(stored - 1),
        }
    }

    fn store(&mut self, gfn: Gfn, label: ContentLabel) -> AccessResult {
        self.mem[gfn.index()] = label.get();
        AccessResult { latency: SimDuration::ZERO, label }
    }
}

impl VirtualHardware for DenseHardware {
    fn mem_read(&mut self, gfn: Gfn) -> AccessResult {
        self.count();
        let label = ContentLabel::from_raw(self.mem[gfn.index()]);
        AccessResult { latency: SimDuration::ZERO, label }
    }

    fn mem_write(&mut self, gfn: Gfn) -> AccessResult {
        self.count();
        let label = self.labels.fresh();
        self.store(gfn, label)
    }

    fn mem_overwrite(&mut self, gfn: Gfn, label: ContentLabel) -> AccessResult {
        self.count();
        self.store(gfn, label)
    }

    fn disk_read(&mut self, image_page: u64, gfns: &[Gfn], _aligned: bool) -> SimDuration {
        self.count();
        self.disk_requests += 1;
        for (page, &gfn) in (image_page..).zip(gfns) {
            self.mem[gfn.index()] = self.image_at(page).get();
        }
        SimDuration::ZERO
    }

    fn disk_write(&mut self, gfns: &[Gfn], image_page: u64, _aligned: bool) -> SimDuration {
        self.count();
        self.disk_requests += 1;
        for (page, &gfn) in (image_page..).zip(gfns) {
            self.image[page as usize] = self.mem[gfn.index()] + 1;
        }
        SimDuration::ZERO
    }

    fn balloon_release(&mut self, _gfn: Gfn) {
        self.count();
    }

    fn image_label(&self, image_page: u64) -> ContentLabel {
        self.count();
        self.image_at(image_page)
    }

    fn fresh_label(&mut self) -> ContentLabel {
        self.count();
        self.labels.fresh()
    }

    fn observe(&mut self, _event: sim_obs::Event) {
        self.count();
    }
}

/// What one guest's replay did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Peel {
    /// Program steps.
    pub steps: u64,
    /// Virtual-disk read and write requests, boot included (the host
    /// counts the boot's requests too).
    pub disk_requests: u64,
    /// Calls into the hardware made by the program's steps.
    pub hw_calls: u64,
}

/// A booted guest on dense hardware, ready to replay a program.
pub struct Replay {
    hw: DenseHardware,
    guest: GuestKernel,
    boot_calls: u64,
}

impl Replay {
    /// Boots a guest of `spec` seeded with `seed`, the seed the machine
    /// hands the same VM.
    pub fn boot(spec: &GuestSpec, seed: u64) -> Result<Replay, String> {
        let mut hw = DenseHardware::new(spec);
        let mut guest = GuestKernel::new(spec.clone(), seed);
        guest.boot(&mut hw).map_err(|e| format!("peel boot: {e}"))?;
        let boot_calls = hw.calls.get();
        Ok(Replay { hw, guest, boot_calls })
    }

    /// Runs `program` to completion.
    pub fn run(&mut self, program: &mut dyn GuestProgram) -> Result<Peel, String> {
        let mut steps = 0;
        loop {
            steps += 1;
            let mut ctx = GuestCtx::new(&mut self.guest, &mut self.hw);
            match program.step(&mut ctx) {
                Ok(StepOutcome::Running) => {}
                Ok(StepOutcome::Done) => break,
                Err(e) => return Err(format!("peel step {steps}: {e}")),
            }
        }
        Ok(Peel {
            steps,
            disk_requests: self.hw.disk_requests,
            hw_calls: self.hw.calls.get() - self.boot_calls,
        })
    }

    /// Checks the guest kernel's internal invariants.
    pub fn audit(&self) -> Result<(), String> {
        self.guest.audit().map_err(|e| format!("peel guest audit: {e}"))
    }
}
