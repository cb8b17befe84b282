//! The host kernel memory-management model.
//!
//! This crate is the "Linux host" of the reproduction: the component that
//! performs **uncooperative swapping** — reclaiming guest frames behind the
//! guest's back, writing them to the host swap area, and faulting them back
//! in on EPT violations. All five pathologies the paper characterizes
//! (§3) are *emergent behaviours of this crate's algorithms*:
//!
//! * **silent swap writes** — reclaim treats every guest frame as dirty
//!   (no hardware dirty bit for guest pages) and writes it to swap even
//!   when the bytes are identical to the guest disk image;
//! * **stale swap reads** — servicing a virtual-disk read whose destination
//!   page was swapped out faults the old content in first;
//! * **false swap reads** — a guest overwrite of a swapped-out page faults
//!   old content in that is never read (countered by the Preventer, which
//!   lives in `vswap-core` and drives this crate's buffer primitives);
//! * **decayed swap sequentiality** — the swap-slot allocator scatters
//!   file-sequential pages across slots as slots churn, degrading
//!   fault-time readahead;
//! * **false page anonymity** — all guest frames are classified anonymous,
//!   so the only named pages in a VM's footprint are the hosted
//!   hypervisor's code pages, which reclaim then preferentially evicts.
//!
//! The Swap Mapper (in `vswap-core`) flips the behaviour of these paths by
//! *associating* guest pages with disk-image blocks ([`OriginMap`]) — the
//! moral equivalent of the paper's mmap-based named mappings.
//!
//! # Examples
//!
//! ```
//! use sim_core::SimTime;
//! use vswap_mem::Gfn;
//! use vswap_hostos::{HostKernel, HostSpec, VmMmConfig};
//!
//! let mut host = HostKernel::new(HostSpec::small_test())?;
//! let vm = host.create_vm(VmMmConfig {
//!     gfn_count: 256,
//!     image_pages: 512,
//!     mem_limit_pages: 128,
//!     mapper_enabled: false,
//! })?;
//! // First guest touch of a page zero-fills it.
//! let outcome = host.guest_access(SimTime::ZERO, vm, Gfn::new(0), false);
//! assert!(outcome.faulted);
//! # Ok::<(), vswap_hostos::HostError>(())
//! ```

#![warn(missing_docs)]

mod frameflags;
pub mod image;
pub mod kernel;
pub mod origin;
pub mod spec;
pub mod stats;
pub mod swaparea;

pub use image::ImageStore;
pub use kernel::{
    AccessOutcome, Detach, HostError, HostKernel, PageResidency, PageState, VmExport, VmMmConfig,
};
pub use origin::OriginMap;
pub use spec::HostSpec;
pub use stats::HostStats;
pub use swaparea::{SlotInfo, SwapArea};
