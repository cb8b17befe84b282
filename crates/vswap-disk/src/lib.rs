//! A sector-addressed block device model.
//!
//! The VSwapper paper's findings are, at bottom, about *where bytes land on a
//! disk* and *in what order they are read back*: silent swap writes burn
//! write bandwidth, decayed swap sequentiality turns sequential reads into
//! random ones, and the Swap Mapper wins by re-reading evicted pages from the
//! sequential guest disk image instead of a scattered host swap area. This
//! crate models exactly that level of detail:
//!
//! * [`geometry`] — sectors, pages, and sector ranges,
//! * [`spec`] — mechanical timing parameters ([`DiskSpec::hdd_7200`] matches
//!   the paper's Seagate Constellation testbed disk),
//! * [`model`] — the device itself: head position, queueing, per-request
//!   latency, and sequential-access detection; a request's direction
//!   ([`IoKind`]) and issuer ([`IoTag`]) are the event taxonomy's own
//!   enums, from [`sim_obs`], re-exported here,
//! * [`layout`] — carves one physical device into regions (guest disk
//!   images, the host swap area).
//!
//! # Examples
//!
//! ```
//! use sim_core::SimTime;
//! use vswap_disk::{DiskModel, DiskSpec, IoKind, IoTag, SectorRange};
//!
//! let mut disk = DiskModel::new(DiskSpec::hdd_7200());
//! let io = disk
//!     .submit(
//!         SimTime::ZERO,
//!         IoKind::Read,
//!         SectorRange::new(0, 8), // one 4 KiB page
//!         IoTag::GuestImage,
//!     )
//!     .expect("no fault plan installed");
//! assert!(io.latency.as_nanos() > 0);
//! ```
//!
//! # Fault injection
//!
//! Install a deterministic [`FaultPlan`] (from the [`sim_fault`] crate,
//! re-exported here) with [`DiskModel::set_fault_plan`] and every submit
//! path becomes fallible with a typed [`IoError`]. With no plan installed
//! — the default — no request ever fails and nothing is paid for the
//! machinery.

#![warn(missing_docs)]

pub mod error;
pub mod geometry;
pub mod layout;
pub mod model;
pub mod spec;

pub use error::{IoError, IoErrorKind};
pub use geometry::{SectorAddr, SectorRange, PAGE_SECTORS, PAGE_SIZE, SECTOR_SIZE};
pub use layout::{DiskLayout, DiskRegion, LayoutError};
pub use model::{CompletedIo, DiskModel, DiskStats};
pub use sim_fault::{
    entity_key, ClusterFaultConfig, ClusterFaultPlan, ClusterFaultProfile, FaultConfig, FaultKind,
    FaultPlan, FaultProfile, InjectedFault, LinkFault,
};
pub use sim_obs::{IoKind, IoTag};
pub use spec::DiskSpec;
