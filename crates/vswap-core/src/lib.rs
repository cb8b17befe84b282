//! **VSwapper** — a guest-agnostic memory swapper for virtualized
//! environments (Amit, Tsafrir, Schuster — ASPLOS 2014), reproduced as a
//! deterministic simulation.
//!
//! This crate implements the paper's contribution and wires it to the
//! substrate crates:
//!
//! * [`mapper`] — the **Swap Mapper**: interposes on guest virtual-disk
//!   I/O, keeps guest pages associated with the disk-image blocks they
//!   mirror, and thereby eliminates silent swap writes, stale swap reads,
//!   decayed swap sequentiality, and false page anonymity (§4.1);
//! * [`preventer`] — the **False Reads Preventer**: emulates guest writes
//!   to swapped-out pages into page-sized buffers so pages that are wholly
//!   overwritten are never read back from disk (§4.2);
//! * [`machine`] — the full machine: host kernel + VMs + policies +
//!   scheduler, the reproduction's equivalent of the paper's testbed;
//! * [`config`] — the five evaluated configurations (`baseline`,
//!   `balloon`, `mapper`, `vswapper`, `balloon + vswapper`);
//! * [`report`] — per-run measurement reports;
//! * [`pathology`] — the paper's five-pathology taxonomy, extracted from
//!   raw counters;
//! * [`cluster`] — many hosts under one pressure-driven overcommit
//!   scheduler with live migration between them (the datacenter-scale
//!   extension of §7's future work).
//!
//! # Quick start
//!
//! Reproduce the shape of the paper's Figure 3 (sequential file read in a
//! memory-squeezed guest) in a few lines:
//!
//! ```
//! use vswap_core::{Machine, MachineConfig, SwapPolicy};
//! use vswap_core::workload_api::FileScan;
//! use vswap_hypervisor::VmSpec;
//! use vswap_mem::MemBytes;
//!
//! let mut machine = Machine::new(MachineConfig::preset(SwapPolicy::Vswapper))?;
//! let vm = machine.add_vm(VmSpec::linux(
//!     "guest",
//!     MemBytes::from_mb(96),
//!     MemBytes::from_mb(48),
//! ))?;
//! machine.launch(vm, Box::new(FileScan::new(MemBytes::from_mb(16).pages(), 1)));
//! let report = machine.run();
//! assert!(report.vm(vm).completed());
//! # Ok::<(), vswap_core::MachineError>(())
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod config;
pub mod machine;
pub mod mapper;
pub mod migration;
pub mod pathology;
pub mod preventer;
pub mod report;
pub mod workload_api;

pub use cluster::{
    AbortRecord, Cluster, ClusterConfig, ClusterReport, CrashRecord, HostReport, MigrationRecord,
    SchedulerConfig, TenantId,
};
pub use config::{Ballooning, MachineConfig, SwapPolicy};
pub use machine::{Machine, MachineError, MigratedVm, VmHandle};
pub use mapper::SwapMapper;
pub use migration::{LiveMigration, MigrationAborted, MigrationConfig, MigrationReport, NetSpec};
pub use pathology::{Pathology, PathologyBreakdown};
pub use preventer::{FalseReadsPreventer, PreventerConfig, PreventerStats};
pub use report::{CacheSample, RunReport, VmReport};
pub use vswap_disk::{
    ClusterFaultConfig, ClusterFaultPlan, ClusterFaultProfile, FaultConfig, FaultPlan,
    FaultProfile, LinkFault,
};
