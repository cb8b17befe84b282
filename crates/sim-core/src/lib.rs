//! Discrete-time simulation substrate shared by every `vswap` crate.
//!
//! The VSwapper reproduction models a virtualized memory/storage stack as a
//! *synchronous cost-accounting* simulation: components perform operations
//! immediately and report how much simulated time the operation consumed.
//! This crate supplies the shared vocabulary for that style of simulation:
//!
//! * [`SimTime`] / [`SimDuration`] — a nanosecond-resolution simulated clock,
//! * [`Clock`] — a monotonically advancing time source,
//! * [`DeterministicRng`] — a seeded random source so every experiment is
//!   exactly reproducible,
//! * [`stats`] — [`counters!`], which declares each component's counter
//!   record, and [`StatSet`], the end-of-run snapshot reports carry.
//!
//! # Examples
//!
//! ```
//! use sim_core::{Clock, SimDuration};
//!
//! let mut clock = Clock::new();
//! clock.advance(SimDuration::from_millis(3));
//! assert_eq!(clock.now().as_nanos(), 3_000_000);
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod rng;
pub mod stats;
pub mod time;

pub use clock::Clock;
pub use rng::DeterministicRng;
pub use stats::StatSet;
pub use time::{SimDuration, SimTime};
