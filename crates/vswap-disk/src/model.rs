//! The block device model: multi-queue asynchronous submission,
//! per-queue head tracking, and I/O accounting.
//!
//! Every device exposes one or more hardware queue pairs (submission +
//! completion ring). A submitted command claims a slot on the
//! least-loaded queue; up to `queue_depth` commands per queue are
//! serviced concurrently, so completions can land out of order in
//! simulated time. A single-queue device at depth 1 degenerates to the
//! classic one-head FIFO the rotational model was built on — byte-
//! identical timing, which the golden corpus relies on.

use crate::error::{IoError, IoErrorKind};
use crate::geometry::SectorRange;
use crate::spec::DiskSpec;
use sim_core::{SimDuration, SimTime};
use sim_fault::{FaultKind, FaultPlan, InjectedFault};
use sim_obs::{Event, EventLog, IoKind, IoTag};

/// The outcome of a submitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedIo {
    /// When the device started servicing the request (after queueing).
    pub started: SimTime,
    /// When the last sector transferred.
    pub finished: SimTime,
    /// Latency perceived by the issuer (`finished - submitted`).
    pub latency: SimDuration,
    /// True if the request streamed from the previous head position.
    pub sequential: bool,
}

/// One hardware queue pair: a submission/completion ring plus the last
/// position serviced from it (sequentiality is per-queue — commands on
/// different queues do not share a stream).
#[derive(Debug, Clone, Default)]
struct IoQueue {
    /// One past the last sector serviced from this queue, `None` before
    /// the first command.
    head: Option<u64>,
    /// Completion instants of commands still occupying ring slots.
    /// Bounded by the configured queue depth; entries at or before the
    /// current submission instant are pruned lazily.
    inflight: Vec<SimTime>,
}

impl IoQueue {
    /// The instant the next command slot frees up, with `depth` slots:
    /// `now` if a slot is open, else the earliest in-flight completion.
    fn slot_at(&self, now: SimTime, depth: usize) -> SimTime {
        let mut outstanding = 0usize;
        let mut earliest = SimTime::ZERO;
        let mut have = false;
        for &c in &self.inflight {
            if c > now {
                outstanding += 1;
                if !have || c < earliest {
                    earliest = c;
                    have = true;
                }
            }
        }
        if outstanding < depth {
            now
        } else {
            earliest
        }
    }

    /// Claims a slot: prunes drained commands and returns the service
    /// start instant (removing the completion we wait on, if any).
    fn claim(&mut self, now: SimTime, depth: usize) -> SimTime {
        self.inflight.retain(|&c| c > now);
        if self.inflight.len() < depth {
            now
        } else {
            let mut idx = 0;
            for (i, &c) in self.inflight.iter().enumerate() {
                if c < self.inflight[idx] {
                    idx = i;
                }
            }
            self.inflight.swap_remove(idx)
        }
    }
}

sim_core::counters! {
    /// Cumulative request accounting, overall and per [`IoTag`], reported
    /// as `disk_<field>`.
    pub struct DiskStats prefix "disk_" {
        /// Total requests serviced.
        ops,
        /// Read requests serviced.
        read_ops,
        /// Write requests serviced.
        write_ops,
        /// Sectors read.
        sectors_read,
        /// Sectors written.
        sectors_written,
        /// Requests that streamed without repositioning.
        sequential_ops,
        /// Requests that paid a seek.
        seeks,
        /// Sectors read from the host swap area.
        swap_sectors_read,
        /// Sectors written to the host swap area.
        swap_sectors_written,
        /// Read requests against the host swap area.
        swap_read_ops,
        /// Swap-area read requests that paid a seek — scattered slot
        /// content, the decayed-sequentiality signal.
        swap_read_seeks,
        /// Write requests against the host swap area.
        swap_write_ops,
        /// Total time the device spent busy, in simulated nanoseconds.
        busy_ns,
        /// Requests failed by the fault plan (all kinds).
        injected_faults,
        /// Requests resubmitted after a failure (`attempt > 0`).
        io_retries,
        /// Requests aborted for exceeding their service deadline.
        timed_out_requests,
        /// Multi-sector writes that tore partway.
        torn_writes,
        /// Doorbell rings: one per submission.
        doorbells,
        /// Completions that landed before an earlier-submitted command
        /// still in flight finished — out-of-order completion, only
        /// possible with multiple queues or depth > 1.
        ooo_completions,
        /// High-water mark of commands concurrently in service across all
        /// queues (1 on a single-queue depth-1 device).
        max_inflight,
    }
}

/// A single shared block device with a multi-queue asynchronous
/// submission backend.
///
/// Commands are submitted to per-queue rings (the least-loaded queue
/// wins, ties broken by index, so placement is deterministic); each
/// queue services up to the configured depth concurrently, and
/// completions on different queues land out of order in simulated time.
/// The defaults — [`DiskSpec::hdd_7200`]'s single queue at depth 1 —
/// degenerate to one-head FIFO servicing, because the phenomena under
/// study need only the *ratio* between streaming and seeking, plus
/// queueing delay when several VMs compete for the device (the
/// cascading effect of Figure 14). [`DiskSpec::nvme`] exposes 8 queues
/// and rewards deeper rings.
///
/// # Examples
///
/// ```
/// use sim_core::SimTime;
/// use vswap_disk::{DiskModel, DiskSpec, IoKind, IoTag, SectorRange};
///
/// let mut disk = DiskModel::new(DiskSpec::hdd_7200());
/// let a = disk
///     .submit(SimTime::ZERO, IoKind::Read, SectorRange::new(0, 8), IoTag::GuestImage)
///     .expect("no fault plan installed");
/// let b = disk
///     .submit(a.finished, IoKind::Read, SectorRange::new(8, 8), IoTag::GuestImage)
///     .expect("no fault plan installed");
/// assert!(b.sequential);
/// assert!(b.latency < a.latency);
/// ```
#[derive(Debug, Clone)]
pub struct DiskModel {
    spec: DiskSpec,
    /// Commands serviced concurrently per queue (>= 1).
    depth: u32,
    /// The hardware queue pairs ([`DiskSpec::queues`] of them).
    queues: Vec<IoQueue>,
    /// The instant the device fully drains (monotone: max completion
    /// instant ever issued).
    busy_until: SimTime,
    stats: DiskStats,
    /// Structured event sink; disabled (free) unless attached.
    events: EventLog,
    /// Deterministic fault schedule; `None` (the default) injects nothing
    /// and costs nothing.
    fault_plan: Option<FaultPlan>,
}

impl DiskModel {
    /// Creates an idle device with the given timing parameters at queue
    /// depth 1 (synchronous servicing per queue).
    pub fn new(spec: DiskSpec) -> Self {
        DiskModel::with_queue_depth(spec, 1)
    }

    /// Creates an idle device servicing up to `depth` commands per queue
    /// concurrently.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero (a ring with no slots) or the spec
    /// declares zero queues.
    pub fn with_queue_depth(spec: DiskSpec, depth: u32) -> Self {
        assert!(depth >= 1, "queue depth must be at least 1");
        assert!(spec.queues >= 1, "a device needs at least one queue");
        DiskModel {
            spec,
            depth,
            queues: vec![IoQueue::default(); spec.queues as usize],
            busy_until: SimTime::ZERO,
            stats: DiskStats::default(),
            events: EventLog::disabled(),
            fault_plan: None,
        }
    }

    /// Commands serviced concurrently per queue.
    pub fn queue_depth(&self) -> u32 {
        self.depth
    }

    /// Number of hardware queue pairs.
    pub fn queue_count(&self) -> u32 {
        self.queues.len() as u32
    }

    /// The queue the next command submitted at `now` would land on:
    /// the least-loaded one (earliest free slot), ties to the lowest
    /// index. Deterministic, and pinned to queue 0 on single-queue
    /// devices.
    fn pick_queue(&self, now: SimTime) -> usize {
        let depth = self.depth as usize;
        let mut best = 0usize;
        let mut best_at = self.queues[0].slot_at(now, depth);
        for (i, q) in self.queues.iter().enumerate().skip(1) {
            let at = q.slot_at(now, depth);
            if at < best_at {
                best = i;
                best_at = at;
            }
        }
        best
    }

    /// Registers a completion on queue `qi`: updates the out-of-order
    /// counter, the in-flight high-water mark, and the drain instant.
    fn complete(&mut self, qi: usize, started: SimTime, finished: SimTime) {
        if self.queues.iter().any(|q| q.inflight.iter().any(|&c| c > finished)) {
            self.stats.ooo_completions += 1;
        }
        self.queues[qi].inflight.push(finished);
        let in_service: u64 = self
            .queues
            .iter()
            .map(|q| q.inflight.iter().filter(|&&c| c > started).count() as u64)
            .sum();
        self.stats.max_inflight = self.stats.max_inflight.max(in_service);
        self.busy_until = self.busy_until.max(finished);
    }

    /// Installs (or clears) the deterministic fault schedule.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan;
    }

    /// The installed fault schedule, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Attaches a structured event log; every request then emits
    /// issue/complete events.
    pub fn set_event_log(&mut self, events: EventLog) {
        self.events = events;
    }

    /// Returns the timing parameters.
    pub fn spec(&self) -> &DiskSpec {
        &self.spec
    }

    /// Returns cumulative statistics.
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// Resets statistics (head position and queue state are kept).
    pub fn reset_stats(&mut self) {
        self.stats = DiskStats::default();
    }

    /// Returns the instant the device fully drains (the max completion
    /// instant issued so far).
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Submits a request at simulated instant `now` and returns its
    /// completion. The command claims a slot on the least-loaded queue;
    /// when every slot is busy the request waits for the earliest one.
    ///
    /// # Errors
    ///
    /// Fails if the installed fault plan fails the request (never, when no
    /// plan is installed). The failed attempt still occupies its slot.
    pub fn submit(
        &mut self,
        now: SimTime,
        kind: IoKind,
        range: SectorRange,
        tag: IoTag,
    ) -> Result<CompletedIo, IoError> {
        self.submit_attempt(now, kind, range, tag, 0)
    }

    /// Like [`DiskModel::submit`], with an explicit attempt number: retry
    /// loops pass 1, 2, ... so the fault plan can bound failure bursts
    /// and the stats can count retries.
    ///
    /// # Errors
    ///
    /// Fails if the installed fault plan fails this attempt.
    pub fn submit_attempt(
        &mut self,
        now: SimTime,
        kind: IoKind,
        range: SectorRange,
        tag: IoTag,
        attempt: u32,
    ) -> Result<CompletedIo, IoError> {
        if attempt > 0 {
            self.stats.io_retries += 1;
        }
        self.stats.doorbells += 1;
        let qi = self.pick_queue(now);
        self.events.emit_with(now, None, || Event::DiskIssue {
            dir: kind,
            class: tag,
            sector: range.start(),
            sectors: range.len(),
            queue: qi as u32,
        });
        let started = self.queues[qi].claim(now, self.depth as usize);
        let gap = match self.queues[qi].head {
            None => Some(u64::MAX),
            Some(end) if end == range.start() => None,
            Some(end) => Some(end.abs_diff(range.start())),
        };
        let service = self.spec.request_latency(gap, range.len());
        if let Some(fault) = self.decide_fault(kind, range, attempt) {
            return Err(self.fail(qi, now, started, service, kind, range, tag, fault, true));
        }
        let finished = started + service;

        self.queues[qi].head = Some(range.end());
        self.complete(qi, started, finished);

        let sequential = gap.is_none();
        self.stats.ops += 1;
        self.stats.busy_ns += service.as_nanos();
        if sequential {
            self.stats.sequential_ops += 1;
        } else {
            self.stats.seeks += 1;
        }
        match kind {
            IoKind::Read => {
                self.stats.read_ops += 1;
                self.stats.sectors_read += range.len();
                if tag == IoTag::HostSwap {
                    self.stats.swap_read_ops += 1;
                    self.stats.swap_sectors_read += range.len();
                    if !sequential {
                        self.stats.swap_read_seeks += 1;
                    }
                }
            }
            IoKind::Write => {
                self.stats.write_ops += 1;
                self.stats.sectors_written += range.len();
                if tag == IoTag::HostSwap {
                    self.stats.swap_write_ops += 1;
                    self.stats.swap_sectors_written += range.len();
                }
            }
        }

        self.events.emit_with(finished, None, || Event::DiskComplete {
            dir: kind,
            class: tag,
            sector: range.start(),
            sectors: range.len(),
            latency: finished - now,
            sequential,
            queue: qi as u32,
        });
        Ok(CompletedIo { started, finished, latency: finished - now, sequential })
    }

    /// Asks the fault plan (if any) whether this attempt fails.
    fn decide_fault(
        &self,
        kind: IoKind,
        range: SectorRange,
        attempt: u32,
    ) -> Option<InjectedFault> {
        self.fault_plan
            .as_ref()
            .and_then(|p| p.decide(kind == IoKind::Write, range.start(), range.len(), attempt))
    }

    /// Records a failed attempt: the command's queue slot is occupied for
    /// the (possibly inflated) service time, fault counters are bumped, a
    /// `DiskFault` event fires, and the typed error is built.
    /// Successful-request counters (`ops`, `sectors_*`, seek accounting)
    /// are untouched so the model's invariants — and every fault-free
    /// golden — are preserved.
    #[allow(clippy::too_many_arguments)]
    fn fail(
        &mut self,
        qi: usize,
        now: SimTime,
        started: SimTime,
        service: SimDuration,
        kind: IoKind,
        range: SectorRange,
        tag: IoTag,
        fault: InjectedFault,
        move_head: bool,
    ) -> IoError {
        // A timed-out request holds its slot well past its nominal
        // service time before the deadline aborts it.
        let service = if fault.kind == FaultKind::Timeout { service * 4 } else { service };
        let finished = started + service;
        self.queues[qi].inflight.push(finished);
        self.busy_until = self.busy_until.max(finished);
        self.stats.busy_ns += service.as_nanos();
        self.stats.injected_faults += 1;
        let error_kind = match fault.kind {
            FaultKind::Latent => IoErrorKind::Latent,
            FaultKind::Transient => IoErrorKind::Transient,
            FaultKind::Timeout => {
                self.stats.timed_out_requests += 1;
                IoErrorKind::Timeout
            }
            FaultKind::Torn => {
                self.stats.torn_writes += 1;
                IoErrorKind::Torn { written: fault.sector - range.start() }
            }
        };
        if move_head {
            // The head stopped where the transfer broke down.
            self.queues[qi].head = Some(fault.sector);
        }
        self.events.emit_with(finished, None, || Event::DiskFault {
            dir: kind,
            class: tag,
            sector: fault.sector,
            fault: fault.kind,
            queue: qi as u32,
        });
        IoError { kind: error_kind, sector: fault.sector, wasted: finished - now }
    }

    /// Submits a *write-behind* request: the write is queued behind the
    /// elevator, costs only its transfer time on the device, and does not
    /// disturb the head position the foreground read stream depends on.
    /// The returned completion reflects device occupancy, not a latency
    /// any caller should wait for.
    ///
    /// # Errors
    ///
    /// Fails if the installed fault plan fails the request.
    pub fn submit_writeback(
        &mut self,
        now: SimTime,
        range: SectorRange,
        tag: IoTag,
    ) -> Result<CompletedIo, IoError> {
        self.submit_writeback_attempt(now, range, tag, 0)
    }

    /// Like [`DiskModel::submit_writeback`], with an explicit attempt
    /// number for retry loops.
    ///
    /// # Errors
    ///
    /// Fails if the installed fault plan fails this attempt.
    pub fn submit_writeback_attempt(
        &mut self,
        now: SimTime,
        range: SectorRange,
        tag: IoTag,
        attempt: u32,
    ) -> Result<CompletedIo, IoError> {
        if attempt > 0 {
            self.stats.io_retries += 1;
        }
        self.stats.doorbells += 1;
        let qi = self.pick_queue(now);
        self.events.emit_with(now, None, || Event::DiskIssue {
            dir: IoKind::Write,
            class: tag,
            sector: range.start(),
            sectors: range.len(),
            queue: qi as u32,
        });
        let started = self.queues[qi].claim(now, self.depth as usize);
        let service = self.spec.request_latency(None, range.len());
        if let Some(fault) = self.decide_fault(IoKind::Write, range, attempt) {
            // Write-behind never disturbs the foreground head position,
            // even when it fails.
            return Err(self.fail(
                qi,
                now,
                started,
                service,
                IoKind::Write,
                range,
                tag,
                fault,
                false,
            ));
        }
        let finished = started + service;
        self.complete(qi, started, finished);
        self.stats.ops += 1;
        self.stats.busy_ns += service.as_nanos();
        self.stats.sequential_ops += 1;
        self.stats.write_ops += 1;
        self.stats.sectors_written += range.len();
        if tag == IoTag::HostSwap {
            self.stats.swap_write_ops += 1;
            self.stats.swap_sectors_written += range.len();
        }
        self.events.emit_with(finished, None, || Event::DiskComplete {
            dir: IoKind::Write,
            class: tag,
            sector: range.start(),
            sectors: range.len(),
            latency: finished - now,
            sequential: true,
            queue: qi as u32,
        });
        Ok(CompletedIo { started, finished, latency: finished - now, sequential: true })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_fault::FaultConfig;

    fn disk() -> DiskModel {
        DiskModel::new(DiskSpec::hdd_7200())
    }

    fn ok(io: Result<CompletedIo, IoError>) -> CompletedIo {
        io.expect("no faults expected")
    }

    #[test]
    fn first_access_pays_full_seek() {
        let mut d = disk();
        let io =
            ok(d.submit(SimTime::ZERO, IoKind::Read, SectorRange::new(0, 8), IoTag::GuestImage));
        assert!(!io.sequential);
        assert_eq!(d.stats().seeks, 1);
    }

    #[test]
    fn contiguous_requests_stream() {
        let mut d = disk();
        let a =
            ok(d.submit(SimTime::ZERO, IoKind::Read, SectorRange::new(0, 8), IoTag::GuestImage));
        let b = ok(d.submit(a.finished, IoKind::Read, SectorRange::new(8, 8), IoTag::GuestImage));
        assert!(b.sequential);
        assert!(b.latency < a.latency / 10);
    }

    #[test]
    fn queueing_delays_later_requests() {
        let mut d = disk();
        let a =
            ok(d.submit(SimTime::ZERO, IoKind::Read, SectorRange::new(0, 8), IoTag::GuestImage));
        // Submitted at t=0 but device busy until `a.finished`.
        let b =
            ok(d.submit(SimTime::ZERO, IoKind::Read, SectorRange::new(8, 8), IoTag::GuestImage));
        assert_eq!(b.started, a.finished);
        assert!(b.latency >= a.latency);
    }

    #[test]
    fn swap_tag_attributes_sectors() {
        let mut d = disk();
        ok(d.submit(SimTime::ZERO, IoKind::Write, SectorRange::new(0, 8), IoTag::HostSwap));
        ok(d.submit(SimTime::ZERO, IoKind::Write, SectorRange::new(100, 8), IoTag::GuestImage));
        ok(d.submit(SimTime::ZERO, IoKind::Read, SectorRange::new(0, 8), IoTag::HostSwap));
        let s = d.stats();
        assert_eq!(s.swap_sectors_written, 8);
        assert_eq!(s.swap_sectors_read, 8);
        assert_eq!(s.sectors_written, 16);
        assert_eq!(s.swap_write_ops, 1);
        assert_eq!(s.swap_read_ops, 1);
    }

    #[test]
    fn reset_stats_keeps_head() {
        let mut d = disk();
        let a =
            ok(d.submit(SimTime::ZERO, IoKind::Read, SectorRange::new(0, 8), IoTag::GuestImage));
        d.reset_stats();
        assert_eq!(d.stats().ops, 0);
        let b = ok(d.submit(a.finished, IoKind::Read, SectorRange::new(8, 8), IoTag::GuestImage));
        assert!(b.sequential, "head position survives stats reset");
    }

    /// Every sector in [0, n) permanently bad.
    fn all_latent() -> FaultPlan {
        FaultPlan::new(FaultConfig { latent_rate: 1.0, ..FaultConfig::default() }, 7)
    }

    #[test]
    fn latent_fault_fails_every_attempt_deterministically() {
        let mut d = disk();
        d.set_fault_plan(Some(all_latent()));
        for attempt in 0..8 {
            let err = d
                .submit_attempt(
                    SimTime::ZERO,
                    IoKind::Read,
                    SectorRange::new(64, 8),
                    IoTag::GuestImage,
                    attempt,
                )
                .expect_err("latent sector must fail");
            assert_eq!(err.kind, IoErrorKind::Latent);
            assert_eq!(err.sector, 64, "first faulting sector is stable");
        }
        assert_eq!(d.stats().injected_faults, 8);
        assert_eq!(d.stats().io_retries, 7);
        // Failed attempts never count as serviced requests.
        assert_eq!(d.stats().ops, 0);
        assert_eq!(d.stats().sectors_read, 0);
    }

    #[test]
    fn transient_bursts_are_bounded_by_max_burst() {
        let cfg = FaultConfig { transient_rate: 1.0, max_burst: 2, ..FaultConfig::default() };
        let mut d = disk();
        d.set_fault_plan(Some(FaultPlan::new(cfg, 11)));
        let range = SectorRange::new(0, 8);
        let mut t = SimTime::ZERO;
        for attempt in 0..2 {
            let err = d
                .submit_attempt(t, IoKind::Read, range, IoTag::GuestImage, attempt)
                .expect_err("attempts below max_burst fail");
            assert!(err.is_retryable());
            t = d.busy_until();
        }
        let io = d
            .submit_attempt(t, IoKind::Read, range, IoTag::GuestImage, 2)
            .expect("attempt at max_burst succeeds");
        assert!(io.finished > io.started);
        assert_eq!(d.stats().injected_faults, 2);
    }

    #[test]
    fn torn_write_reports_persisted_prefix() {
        let cfg = FaultConfig { torn_rate: 1.0, ..FaultConfig::default() };
        let mut d = disk();
        d.set_fault_plan(Some(FaultPlan::new(cfg, 3)));
        let err = d
            .submit(SimTime::ZERO, IoKind::Write, SectorRange::new(32, 16), IoTag::HostSwap)
            .expect_err("torn write must fail");
        match err.kind {
            IoErrorKind::Torn { written } => {
                assert_eq!(written, err.sector - 32);
                assert!(written < 16);
            }
            other => panic!("expected torn write, got {other:?}"),
        }
        assert_eq!(d.stats().torn_writes, 1);
        // Reads never tear.
        let plan = FaultPlan::new(*d.fault_plan().unwrap().config(), 3);
        assert!(plan.decide(false, 32, 16, 0).is_none());
    }

    #[test]
    fn timeouts_inflate_device_occupancy() {
        let cfg = FaultConfig { timeout_rate: 1.0, ..FaultConfig::default() };
        let mut clean = disk();
        let io =
            ok(clean.submit(SimTime::ZERO, IoKind::Read, SectorRange::new(0, 8), IoTag::HostSwap));
        let nominal = io.finished - io.started;

        let mut d = disk();
        d.set_fault_plan(Some(FaultPlan::new(cfg, 5)));
        let err = d
            .submit(SimTime::ZERO, IoKind::Read, SectorRange::new(0, 8), IoTag::HostSwap)
            .expect_err("timeout must fail");
        assert_eq!(err.kind, IoErrorKind::Timeout);
        assert_eq!(err.wasted, nominal * 4);
        assert_eq!(d.stats().timed_out_requests, 1);
        assert_eq!(d.busy_until(), SimTime::ZERO + nominal * 4);
    }

    #[test]
    fn reset_stats_clears_fault_counters() {
        let mut d = disk();
        d.set_fault_plan(Some(all_latent()));
        let _ = d.submit_attempt(
            SimTime::ZERO,
            IoKind::Read,
            SectorRange::new(0, 8),
            IoTag::GuestImage,
            1,
        );
        assert_eq!(d.stats().injected_faults, 1);
        assert_eq!(d.stats().io_retries, 1);
        d.reset_stats();
        assert_eq!(d.stats().injected_faults, 0);
        assert_eq!(d.stats().io_retries, 0);
        assert_eq!(d.stats().timed_out_requests, 0);
        assert_eq!(d.stats().torn_writes, 0);
    }

    #[test]
    fn multi_queue_services_concurrently() {
        // 8 NVMe queues at depth 1: 8 scattered requests submitted at the
        // same instant all start immediately on distinct queues.
        let mut d = DiskModel::new(DiskSpec::nvme());
        assert_eq!(d.queue_count(), 8);
        let mut finishes = Vec::new();
        for i in 0..8u64 {
            let io = ok(d.submit(
                SimTime::ZERO,
                IoKind::Read,
                SectorRange::new(i << 20, 8),
                IoTag::HostSwap,
            ));
            assert_eq!(io.started, SimTime::ZERO, "request {i} must not queue");
            finishes.push(io.finished);
        }
        // The 9th waits for a slot.
        let io = ok(d.submit(
            SimTime::ZERO,
            IoKind::Read,
            SectorRange::new(1 << 30, 8),
            IoTag::HostSwap,
        ));
        assert!(io.started > SimTime::ZERO);
        assert_eq!(d.stats().max_inflight, 8, "all eight queues were saturated at once");
    }

    #[test]
    fn queue_depth_overlaps_commands_on_one_queue() {
        let spec = DiskSpec::hdd_7200();
        let mut d = DiskModel::with_queue_depth(spec, 2);
        assert_eq!(d.queue_depth(), 2);
        let a =
            ok(d.submit(SimTime::ZERO, IoKind::Read, SectorRange::new(0, 8), IoTag::GuestImage));
        let b = ok(d.submit(
            SimTime::ZERO,
            IoKind::Read,
            SectorRange::new(1 << 20, 8),
            IoTag::GuestImage,
        ));
        assert_eq!(b.started, SimTime::ZERO, "second slot services concurrently");
        let c = ok(d.submit(
            SimTime::ZERO,
            IoKind::Read,
            SectorRange::new(1 << 24, 8),
            IoTag::GuestImage,
        ));
        assert_eq!(
            c.started,
            a.finished.min(b.finished),
            "third command waits for the earliest slot"
        );
    }

    #[test]
    fn out_of_order_completion_is_counted() {
        // Queue 0 gets a huge transfer, queue 1 a tiny one submitted
        // later: the tiny one completes first.
        let mut d = DiskModel::new(DiskSpec::nvme());
        let big = ok(d.submit(
            SimTime::ZERO,
            IoKind::Read,
            SectorRange::new(0, 64 * 1024),
            IoTag::GuestImage,
        ));
        let small = ok(d.submit(
            SimTime::ZERO,
            IoKind::Read,
            SectorRange::new(1 << 30, 8),
            IoTag::HostSwap,
        ));
        assert!(small.finished < big.finished, "completions land out of order");
        assert_eq!(d.stats().ooo_completions, 1);
    }

    #[test]
    fn single_queue_depth_one_never_reorders() {
        let mut d = disk();
        for i in 0..32u64 {
            ok(d.submit(
                SimTime::ZERO,
                IoKind::Read,
                SectorRange::new(i * (1 << 16), 8),
                IoTag::HostSwap,
            ));
        }
        assert_eq!(d.stats().ooo_completions, 0);
        assert_eq!(d.stats().max_inflight, 1);
    }

    #[test]
    fn each_submission_rings_one_doorbell() {
        let mut d = disk();
        ok(d.submit(d.busy_until(), IoKind::Read, SectorRange::new(1 << 20, 8), IoTag::HostSwap));
        ok(d.submit_writeback(d.busy_until(), SectorRange::new(1 << 21, 8), IoTag::HostSwap));
        assert_eq!(d.stats().doorbells, 2);
    }

    #[test]
    fn faulted_attempt_still_occupies_its_slot() {
        let mut d = DiskModel::with_queue_depth(DiskSpec::hdd_7200(), 1);
        d.set_fault_plan(Some(all_latent()));
        let err = d
            .submit(SimTime::ZERO, IoKind::Read, SectorRange::new(64, 8), IoTag::GuestImage)
            .expect_err("latent sector must fail");
        d.set_fault_plan(None);
        let io =
            ok(d.submit(SimTime::ZERO, IoKind::Read, SectorRange::new(128, 8), IoTag::GuestImage));
        assert_eq!(
            io.started,
            SimTime::ZERO + err.wasted,
            "the failed attempt held the queue slot for its service time"
        );
    }

    #[test]
    fn no_plan_means_no_faults() {
        let mut d = disk();
        assert!(d.fault_plan().is_none());
        for page in 0..512 {
            ok(d.submit(
                d.busy_until(),
                IoKind::Write,
                SectorRange::for_page(0, page),
                IoTag::HostSwap,
            ));
        }
        assert_eq!(d.stats().injected_faults, 0);
        assert_eq!(d.stats().ops, 512);
    }
}
