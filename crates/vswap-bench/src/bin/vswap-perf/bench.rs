//! The shape every workload shares: closed batch reps of one fixed
//! input, each checked and timed against the contention probe, plus one
//! traced rep for the per-layer split.

use crate::metrics::Metric;
use crate::probe::Probe;
use std::time::{Duration, Instant};

/// The measurements of one rep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rep {
    /// Host wall-clock of the timed work.
    pub wall: Duration,
    /// `wall` in host seconds at the probe's quiet speed (see [`Clock`]).
    pub scaled_s: f64,
    /// Simulated page-granularity work (the suite's pages-simulated sum).
    pub page_work: u64,
    pub sim_runtime_s: f64,
    pub sim_disk_sectors: u64,
}

/// Output checks, counted against the number attempted.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one check; a failure is described on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Shortest segment [`Clock::stepped`] cuts a stepped run into: long
/// enough that the probe reading after it (about 40 ms) costs under a
/// tenth of the run, short enough to follow contention that changes
/// within a multi-second rep.
const SEGMENT: Duration = Duration::from_millis(500);

/// Times work in segments, each divided by the mean of the probe
/// readings taken just before and just after it, raised to the
/// workload's sensitivity. A reading follows every segment, so the
/// segments of one rep can be as short as the contention's spells.
pub struct Clock<'a> {
    probe: &'a Probe,
    previous: f64,
    sensitivity: f64,
}

impl<'a> Clock<'a> {
    pub fn new(probe: &'a Probe, sensitivity: f64) -> Self {
        Clock { probe, previous: probe.slowdown(), sensitivity }
    }

    /// Takes a reading and returns its mean with the previous one.
    pub fn bracket(&mut self) -> f64 {
        let next = self.probe.slowdown();
        let slowdown = (self.previous + next) / 2.0;
        self.previous = next;
        slowdown
    }

    /// Runs `f` as one segment; returns its result, its wall-clock and
    /// its scaled seconds.
    pub fn segment<T>(&mut self, f: impl FnOnce() -> T) -> (T, Duration, f64) {
        let start = Instant::now();
        let out = f();
        let wall = start.elapsed();
        let scaled = wall.as_secs_f64() / self.bracket().powf(self.sensitivity);
        (out, wall, scaled)
    }

    /// Calls `step` until it returns false, timing the calls as segments
    /// that each end at the first call to return after [`SEGMENT`];
    /// returns the summed wall-clock and scaled seconds.
    pub fn stepped(&mut self, mut step: impl FnMut() -> bool) -> (Duration, f64) {
        let (mut wall, mut scaled, mut more) = (Duration::ZERO, 0.0, true);
        while more {
            let ((), w, s) = self.segment(|| {
                let start = Instant::now();
                while more && start.elapsed() < SEGMENT {
                    more = step();
                }
            });
            wall += w;
            scaled += s;
        }
        (wall, scaled)
    }
}

/// One workload.
pub trait Bench {
    /// The untimed first rep. It also sets the reference later reps'
    /// outputs must reproduce.
    fn warm_up(&mut self, checks: &mut Checks) -> Result<(), String>;

    /// One timed rep: set up, run to completion (timed), check.
    fn rep(&mut self, clock: &mut Clock<'_>, checks: &mut Checks) -> Result<Rep, String>;

    /// Set-up alone, for the set-up rounds.
    fn setup_only(&mut self) -> Result<Duration, String>;

    /// One extra rep that records spans into `tracer` and returns the
    /// per-layer metrics, with overheads measured as scaled time over
    /// `median_s`, the untraced reps' median scaled time.
    fn traced(
        &mut self,
        tracer: &crate::trace::Tracer,
        clock: &mut Clock<'_>,
        median_s: f64,
        checks: &mut Checks,
    ) -> Result<Traced, String>;
}

/// What the traced rep measured.
pub struct Traced {
    pub metrics: Vec<Metric>,
    /// Remarks recorded with the result, such as the peel's fidelity.
    pub notes: Vec<(&'static str, String)>,
}
