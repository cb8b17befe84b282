//! Hypervisor-level components of the VSwapper reproduction.
//!
//! * [`vm`] — per-VM specifications: how much memory the guest believes it
//!   has vs. what the host actually grants it, VCPU count, and the
//!   asynchronous-page-fault capability that lets multi-VCPU Linux guests
//!   overlap host swap-ins with computation (§5.1, pbzip2),
//! * [`balloon`] — a [MOM]-style dynamic balloon manager: a host daemon
//!   that samples host and guest memory statistics every interval and
//!   inflates/deflates balloons at a bounded rate. Its *reaction lag* is
//!   the phenomenon behind Figure 4 and Figure 14: "ballooning is
//!   insufficiently responsive" under changing load,
//! * [`retry`] — the bounded retry/backoff policy the storage emulation
//!   applies to failed disk requests (fault injection support),
//! * [`pressure`] — host memory-pressure signals ([`HostPressure`]) and the
//!   consecutive-poll [`Debounce`] the cluster scheduler uses to decide when
//!   to migrate a guest off a thrashing host and when to quarantine a
//!   faulty one.
//!
//! [MOM]: https://www.ibm.com/developerworks/library/l-overcommit-kvm-resources/
//!
//! # Examples
//!
//! ```
//! use vswap_hypervisor::VmSpec;
//! use vswap_mem::MemBytes;
//!
//! let spec = VmSpec::linux("guest0", MemBytes::from_mb(512), MemBytes::from_mb(100));
//! assert_eq!(spec.balloon_target_pages(), (512 - 100) * 256);
//! ```

#![warn(missing_docs)]

pub mod balloon;
pub mod pressure;
pub mod retry;
pub mod vm;

pub use balloon::{BalloonManager, BalloonPolicy, VmTelemetry};
pub use pressure::{Debounce, HostPressure};
pub use retry::RetryPolicy;
pub use vm::VmSpec;
