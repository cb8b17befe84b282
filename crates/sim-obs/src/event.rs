//! The structured event taxonomy: every observable action in the
//! simulation stack, stamped with simulated time, the VM involved, and a
//! causal sequence number.
//!
//! Each kind is declared once, in the `events!` invocation below: its
//! docs, its [`Event`] variant and fields, its export name and its
//! component. The macro derives [`EventKind`], [`EventKind::ALL`], the
//! name and component lookups, and the field writer both export formats
//! share. Events carry the stack's own enums: the disk model's
//! [`IoKind`] and [`IoTag`], the fault plan's [`FaultKind`] and the
//! Preventer's [`FlushCause`].

use crate::json::JsonWriter;
use sim_core::{SimDuration, SimTime};
use sim_fault::FaultKind;

/// Whether a disk request reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// Data moves from disk to memory.
    Read,
    /// Data moves from memory to disk.
    Write,
}

impl IoKind {
    /// Lower-case label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            IoKind::Read => "read",
            IoKind::Write => "write",
        }
    }
}

/// What part of the storage stack issued a disk request; used to
/// attribute sectors to the counters the paper reports (e.g. Figure 9d
/// counts sectors written *to the host swap area* only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoTag {
    /// A guest virtual-disk image access (explicit guest I/O, guest swap,
    /// or Mapper re-reads of named pages).
    GuestImage,
    /// A host swap-area access (uncooperative swapping traffic).
    HostSwap,
}

impl IoTag {
    /// Lower-case label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            IoTag::GuestImage => "image",
            IoTag::HostSwap => "swap",
        }
    }
}

/// Why a Preventer write-emulation buffer was merged back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushCause {
    /// The buffer aged out.
    Timeout,
    /// The table was full and the oldest buffer was evicted.
    Capacity,
    /// The guest read the emulated page.
    GuestRead,
    /// The host needed the page (swap-out, migration, ...).
    HostAccess,
}

impl FlushCause {
    /// Lower-case label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            FlushCause::Timeout => "timeout",
            FlushCause::Capacity => "capacity",
            FlushCause::GuestRead => "guest_read",
            FlushCause::HostAccess => "host_access",
        }
    }
}

/// Declares the event taxonomy. Each entry is one kind:
///
/// ```text
/// /// docs
/// Variant = "export_name" in "component" { field: Type, ... }
/// ```
///
/// and the macro generates [`Event`], [`EventKind`], [`Event::kind`],
/// [`EventKind::ALL`] (in declaration order, which is also `EventKind`'s
/// `Ord`), [`EventKind::name`], [`EventKind::component`] and
/// `Event::write_fields`. Field types are single identifiers, and the
/// `@write` rules export a field by its type: integers as numbers, a
/// `SimDuration` as whole nanoseconds under `<field>_ns`, and any other
/// type (the enums) by its `label()`.
macro_rules! events {
    (@write $w:ident, $field:ident: u64) => {
        $w.field_u64(stringify!($field), *$field)
    };
    (@write $w:ident, $field:ident: u32) => {
        $w.field_u64(stringify!($field), u64::from(*$field))
    };
    (@write $w:ident, $field:ident: bool) => {
        $w.field_bool(stringify!($field), *$field)
    };
    (@write $w:ident, $field:ident: String) => {
        $w.field_str(stringify!($field), $field)
    };
    (@write $w:ident, $field:ident: SimDuration) => {
        $w.field_u64(concat!(stringify!($field), "_ns"), $field.as_nanos())
    };
    (@write $w:ident, $field:ident: $label:ident) => {
        $w.field_str(stringify!($field), $field.label())
    };
    ($(
        $(#[$doc:meta])*
        $variant:ident = $name:literal in $component:literal {
            $( $(#[$field_doc:meta])* $field:ident: $ty:ident, )*
        }
    )*) => {
        /// One observable action somewhere in the stack.
        ///
        /// Page numbers are raw `u64` guest frame numbers and VM identities
        /// are raw `u32`s so this crate sits below the memory substrate and
        /// every layer can emit events without dependency cycles.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum Event {
            $( $(#[$doc])* $variant { $( $(#[$field_doc])* $field: $ty, )* }, )*
        }

        /// The fieldless discriminant of an [`Event`], for histograms and
        /// export routing.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        pub enum EventKind {
            $( #[doc = concat!("See [`Event::", stringify!($variant), "`].")] $variant, )*
        }

        impl Event {
            /// Returns the event's fieldless discriminant.
            pub fn kind(&self) -> EventKind {
                match self {
                    $( Event::$variant { .. } => EventKind::$variant, )*
                }
            }

            /// Writes the event's own fields, in declaration order, into
            /// the current object of an export.
            pub(crate) fn write_fields(&self, w: &mut JsonWriter) {
                match self {
                    $( Event::$variant { $($field),* } => {
                        $( events!(@write w, $field: $ty); )*
                    } )*
                }
            }
        }

        impl EventKind {
            /// Every kind, in export order.
            pub const ALL: [EventKind; [$($name),*].len()] = [$(EventKind::$variant),*];

            /// Stable snake_case name used in exports.
            pub fn name(self) -> &'static str {
                match self {
                    $( EventKind::$variant => $name, )*
                }
            }

            /// The component (Chrome trace "thread") the kind belongs to.
            pub fn component(self) -> &'static str {
                match self {
                    $( EventKind::$variant => $component, )*
                }
            }
        }
    };
}

events! {
    /// A guest access faulted in the host (EPT violation).
    PageFault = "page_fault" in "host-mm" {
        /// Faulting guest frame.
        gfn: u64,
        /// True for write accesses.
        write: bool,
        /// True if servicing required disk I/O (major fault).
        major: bool,
    }
    /// The host swapped a page out to its swap area.
    SwapOut = "swap_out" in "host-mm" {
        /// Evicted guest frame.
        gfn: u64,
    }
    /// The host read a page back from its swap area.
    SwapIn = "swap_in" in "host-mm" {
        /// Faulting guest frame.
        gfn: u64,
        /// Additional pages brought in by swap readahead.
        readahead: u64,
    }
    /// A Mapper-named page was discarded instead of swapped out.
    NamedDiscard = "named_discard" in "mapper" {
        /// Discarded guest frame.
        gfn: u64,
    }
    /// A Mapper-named page was refetched from the guest image.
    NamedRefault = "named_refault" in "mapper" {
        /// Refaulting guest frame.
        gfn: u64,
        /// Additional pages brought in by image readahead.
        readahead: u64,
    }
    /// The Mapper associated a guest page with a disk-image block.
    MapperName = "mapper_name" in "mapper" {
        /// Named guest frame.
        gfn: u64,
        /// Backing image page.
        image_page: u64,
    }
    /// The Mapper broke a page↔block association.
    MapperUnname = "mapper_unname" in "mapper" {
        /// Unnamed guest frame.
        gfn: u64,
    }
    /// The Preventer opened a write-emulation buffer for a page.
    PreventerOpen = "preventer_open" in "preventer" {
        /// Emulated guest frame.
        gfn: u64,
    }
    /// The Preventer merged a buffer back (after a swap-in or remap).
    PreventerFlush = "preventer_flush" in "preventer" {
        /// Emulated guest frame.
        gfn: u64,
        /// Why the merge happened.
        cause: FlushCause,
    }
    /// The Preventer dropped a buffer without any disk read — a false
    /// read prevented outright.
    PreventerDiscard = "preventer_discard" in "preventer" {
        /// Emulated guest frame.
        gfn: u64,
    }
    /// A guest balloon grew by `pages`.
    BalloonInflate = "balloon_inflate" in "balloon" {
        /// Pages newly pinned.
        pages: u64,
    }
    /// A guest balloon shrank by `pages`.
    BalloonDeflate = "balloon_deflate" in "balloon" {
        /// Pages released back to the guest.
        pages: u64,
    }
    /// The balloon manager posted a new target for a VM.
    BalloonTarget = "balloon_target" in "balloon" {
        /// Requested balloon size in pages.
        target_pages: u64,
    }
    /// A disk request was issued.
    DiskIssue = "disk_issue" in "disk" {
        /// Transfer direction.
        dir: IoKind,
        /// Targeted region.
        class: IoTag,
        /// First sector.
        sector: u64,
        /// Transfer length in sectors.
        sectors: u64,
        /// Hardware queue the command landed on (0 on single-queue
        /// devices).
        queue: u32,
    }
    /// A disk request completed. The `[at - latency, at]` window is the
    /// command's residency on its queue; the Chrome export renders it as
    /// a slice on a per-queue lane.
    DiskComplete = "disk_complete" in "disk" {
        /// Transfer direction.
        dir: IoKind,
        /// Targeted region.
        class: IoTag,
        /// First sector.
        sector: u64,
        /// Transfer length in sectors.
        sectors: u64,
        /// Queueing plus service time.
        latency: SimDuration,
        /// True if the request continued the previous one sequentially.
        sequential: bool,
        /// Hardware queue the command was serviced on.
        queue: u32,
    }
    /// The fault plan failed a disk request.
    DiskFault = "disk_fault" in "disk" {
        /// Transfer direction.
        dir: IoKind,
        /// Targeted region.
        class: IoTag,
        /// First faulting sector.
        sector: u64,
        /// How the fault manifested.
        fault: FaultKind,
        /// Hardware queue the command occupied while it failed.
        queue: u32,
    }
    /// The virtual-disk frontend is retrying a failed request after a
    /// backoff in simulated time.
    IoRetry = "io_retry" in "disk" {
        /// Retry number (1 = first retry).
        attempt: u32,
        /// Backoff charged before the retry.
        backoff: SimDuration,
    }
    /// A Mapper association was invalidated because its backing block
    /// errored out; the page degrades to anonymous host swap.
    MapperDegraded = "mapper_degraded" in "mapper" {
        /// Affected guest frame.
        gfn: u64,
        /// The no-longer-trusted backing image page.
        image_page: u64,
    }
    /// A host reclaim pass scanned page lists.
    ReclaimScan = "reclaim_scan" in "host-mm" {
        /// Frames examined.
        scanned: u64,
        /// Frames freed.
        reclaimed: u64,
    }
    /// The guest swapped anonymous pages to its own swap partition.
    GuestSwapOut = "guest_swap_out" in "guest" {
        /// Pages written out.
        pages: u64,
    }
    /// The guest swapped anonymous pages back in.
    GuestSwapIn = "guest_swap_in" in "guest" {
        /// Pages read back.
        pages: u64,
    }
    /// A workload began executing on a VM.
    WorkloadStarted = "workload_started" in "machine" {
        /// Workload name.
        name: String,
    }
    /// A workload finished (or was killed).
    WorkloadFinished = "workload_finished" in "machine" {
        /// Total simulated runtime.
        runtime: SimDuration,
        /// True if the guest OOM killer terminated it.
        killed: bool,
    }
    /// One pre-copy round of a live migration completed.
    MigrationRound = "migration_round" in "machine" {
        /// Round number (0-based).
        round: u32,
        /// Pages copied this round.
        copied: u64,
    }
    /// An in-flight live migration lost its link and rolled back to the
    /// source host.
    MigrationAbort = "migration_abort" in "machine" {
        /// The pre-copy round the link dropped in (0-based).
        round: u32,
        /// Pre-copy bytes wasted by the aborted attempt.
        wasted_bytes: u64,
    }
    /// A host fail-stopped; its guests are being evacuated.
    HostCrash = "host_crash" in "machine" {
        /// Guests resident on the host at crash time.
        guests: u64,
    }
    /// One guest was evacuated off a crashed host.
    Evacuation = "evacuation" in "machine" {
        /// Pages recovered as Mapper block references or swap-slot
        /// records (nothing was lost).
        recovered_pages: u64,
        /// Resident pages whose only copy was the crashed host's DRAM;
        /// the guest re-faults them.
        refaulted_pages: u64,
    }
}

/// An [`Event`] plus its stamps: causal sequence number, simulated time,
/// the VM it concerns (if any), and its place in the causal span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Monotone per-log sequence number (causal order).
    pub seq: u64,
    /// When the event happened on the simulated timeline.
    pub at: SimTime,
    /// The VM involved, or `None` for host-global events.
    pub vm: Option<u32>,
    /// The span this record opens ([`SpanId::NONE`] for plain events).
    ///
    /// [`SpanId::NONE`]: crate::SpanId::NONE
    pub span: crate::span::SpanId,
    /// The enclosing span at emission time ([`SpanId::NONE`] at top
    /// level).
    ///
    /// [`SpanId::NONE`]: crate::SpanId::NONE
    pub parent: crate::span::SpanId,
    /// The event itself.
    pub event: Event,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_unique() {
        let names: std::collections::BTreeSet<&str> =
            EventKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), EventKind::ALL.len());
    }

    #[test]
    fn kind_roundtrip() {
        assert_eq!(Event::SwapOut { gfn: 3 }.kind(), EventKind::SwapOut);
        assert_eq!(
            Event::PreventerFlush { gfn: 1, cause: FlushCause::Timeout }.kind().component(),
            "preventer"
        );
    }
}
