//! # `sim-obs` — the observability layer of the VSwapper reproduction
//!
//! The paper's analysis lives or dies on *attribution*: knowing which
//! mechanism (uncooperative swap, the Mapper, the Preventer, ballooning)
//! caused which disk traffic and which stall. This crate provides the
//! instruments for that attribution, shared by every layer of the stack:
//!
//! * [`event`] / [`log`] — a **structured event log**: a typed [`Event`]
//!   taxonomy (page faults, swap-in/out, Mapper name/unname, Preventer
//!   buffer open/flush/discard, balloon inflate/deflate, disk request
//!   issue/complete/fault, reclaim scans, migrations, ...), each record
//!   stamped with [`sim_core::SimTime`], the VM involved, and a causal
//!   sequence number, held in a bounded ring buffer behind the cheaply
//!   cloneable [`EventLog`] handle. A *disabled* log (the default)
//!   reduces every emission site to a single branch and never constructs
//!   the event, so instrumentation is free when no sink is attached.
//!   Each kind is declared once, with its fields, export name and
//!   component; events carry the stack's own enums ([`IoKind`],
//!   [`IoTag`], [`FlushCause`] and `sim_fault`'s `FaultKind`, which is
//!   why this crate depends on `sim-fault`).
//! * [`registry`] — a **hierarchical counter registry**
//!   ([`MetricsRegistry`]): named, component-scoped counters with a
//!   `scope/name` flattening, which the experiment suite keeps per unit
//!   and merges in task order.
//! * [`profile`] — a **simulated-time profiler** ([`Profiler`]): each
//!   VM's runtime attributed to CPU execution, disk wait, fault handling,
//!   or migration stall; the categories always sum to the VM's reported
//!   runtime and render as a breakdown table.
//! * [`export`] — **sinks**: JSON-Lines ([`export::to_jsonl`]) and Chrome
//!   `trace_event` JSON ([`export::to_chrome_trace`], loadable in
//!   Perfetto or `chrome://tracing`), both built on the shared
//!   dependency-free [`json`] writer.
//! * [`span`] — **causal spans**: every record carries a [`SpanId`] and a
//!   parent edge, so one guest fault's whole lifecycle (swap-in, disk
//!   requests, retries, Preventer work) reassembles into a single tree
//!   ([`SpanForest`]) and a critical-path report
//!   ([`span::render_critical_path`]).
//! * [`hist`] — **log-bucketed latency histograms** ([`LatencyHist`]):
//!   mergeable with an element-wise sum, so percentile queries (p50,
//!   p99, p999) are bitwise deterministic no matter how a parallel suite
//!   partitions its work; [`LatencyBook`]/[`LatencyHub`] key them per
//!   `(vm, class)`.
//!
//! # Examples
//!
//! ```
//! use sim_core::SimTime;
//! use sim_obs::{export, Event, EventLog};
//!
//! let log = EventLog::bounded(1024);
//! log.emit(SimTime::from_nanos(3_000), Some(0), Event::SwapOut { gfn: 17 });
//! let jsonl = export::to_jsonl(&log);
//! assert!(jsonl.contains(r#""kind":"swap_out""#));
//! ```

#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod hist;
pub mod json;
pub mod log;
pub mod profile;
pub mod registry;
pub mod span;

pub use event::{Event, EventKind, EventRecord, FlushCause, IoKind, IoTag};
pub use export::TraceFormat;
pub use hist::{LatencyBook, LatencyClass, LatencyHist, LatencyHub};
pub use log::EventLog;
pub use profile::{Profiler, TimeCategory};
pub use registry::MetricsRegistry;
pub use span::{SpanEvent, SpanForest, SpanId, SpanNode};
