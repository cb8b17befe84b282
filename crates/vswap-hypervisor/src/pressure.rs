//! Host memory-pressure signals for the cluster scheduler.
//!
//! A cluster scheduler needs two things from each host: a *placement
//! score* ("how much room is really left here?") and a *migration
//! trigger* ("has this host been thrashing long enough that moving a
//! guest is worth a stop-and-copy?"). Both are derived from the same
//! [`HostPressure`] sample — free frames plus the recent host swap
//! rate — and the trigger is a [`Debounce`] so a single readahead burst
//! never causes a migration. The same [`Debounce`] gates host
//! quarantine on a sustained injected-fault rate.

use sim_core::SimDuration;

/// One poll's snapshot of a host's memory pressure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostPressure {
    /// Frames currently free on the host.
    pub free_frames: u64,
    /// Total host DRAM in frames.
    pub dram_frames: u64,
    /// Host swap operations (in + out) since the previous poll.
    pub recent_swap_ops: u64,
    /// Simulated time covered by `recent_swap_ops`.
    pub interval: SimDuration,
}

impl HostPressure {
    /// Fraction of host DRAM currently free, in `[0, 1]`.
    pub fn free_frac(&self) -> f64 {
        self.free_frames as f64 / self.dram_frames.max(1) as f64
    }

    /// Host swap operations per simulated second over the poll interval.
    pub fn swap_ops_per_sec(&self) -> f64 {
        let secs = self.interval.as_nanos() as f64 / 1e9;
        if secs <= 0.0 {
            0.0
        } else {
            self.recent_swap_ops as f64 / secs
        }
    }

    /// True if this poll counts as pressured: the swap rate is above
    /// `swap_ops_threshold` (ops/sec) while the free-DRAM fraction is
    /// below `free_frac_watermark`. High swap churn with plenty of free
    /// memory (readahead) is not pressure.
    ///
    /// # Examples
    ///
    /// The cluster's migration trigger is this predicate fed to a
    /// [`Debounce`]:
    ///
    /// ```
    /// use sim_core::SimDuration;
    /// use vswap_hypervisor::{Debounce, HostPressure};
    ///
    /// let mut trigger = Debounce::new(2, 1);
    /// let pressured = HostPressure {
    ///     free_frames: 10,
    ///     dram_frames: 1000,
    ///     recent_swap_ops: 5000,
    ///     interval: SimDuration::from_secs(1),
    /// };
    /// let p = pressured.is_pressured(100.0, 0.25);
    /// assert!(p);
    /// assert!(!trigger.observe(p), "one poll is not sustained");
    /// assert!(trigger.observe(p), "two consecutive polls are");
    /// ```
    pub fn is_pressured(&self, swap_ops_threshold: f64, free_frac_watermark: f64) -> bool {
        self.swap_ops_per_sec() > swap_ops_threshold && self.free_frac() < free_frac_watermark
    }

    /// The placement score: *effective* free frames after subtracting
    /// memory already committed (promised to VMs but not yet touched).
    /// Higher is a better placement target. Deterministic: pure integer
    /// arithmetic on the sample.
    pub fn placement_score(&self, committed_frames: u64) -> u64 {
        self.free_frames.saturating_sub(committed_frames)
    }
}

/// A consecutive-poll debounce: a two-state signal that turns on after
/// `on_after` consecutive polls report `true`, and off again after
/// `off_after` consecutive polls report `false`. Any poll that agrees
/// with the current state restarts the count, so a single outlier poll
/// never flips it. A threshold of zero acts as one.
#[derive(Debug, Clone, Copy)]
pub struct Debounce {
    on_after: u32,
    off_after: u32,
    /// Consecutive polls disagreeing with the current state.
    streak: u32,
    on: bool,
}

impl Debounce {
    /// A debounce in the off state with the given thresholds.
    pub fn new(on_after: u32, off_after: u32) -> Self {
        Debounce { on_after, off_after, streak: 0, on: false }
    }

    /// Feeds one poll and returns the state *after* it.
    ///
    /// # Examples
    ///
    /// ```
    /// use vswap_hypervisor::Debounce;
    ///
    /// let mut d = Debounce::new(2, 2);
    /// assert!(!d.observe(true), "one poll is not sustained");
    /// assert!(d.observe(true), "two consecutive polls are");
    /// assert!(d.observe(false), "one contrary poll does not turn it off");
    /// assert!(!d.observe(false), "two consecutive contrary polls do");
    /// ```
    pub fn observe(&mut self, signal: bool) -> bool {
        if signal != self.on {
            self.streak += 1;
        } else {
            self.streak = 0;
        }
        let needed = if self.on { self.off_after } else { self.on_after };
        if self.streak >= needed.max(1) {
            self.on = !self.on;
            self.streak = 0;
        }
        self.on
    }

    /// The current state.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Returns to the off state with no streak (e.g. after the scheduler
    /// acted on the signal).
    pub fn reset(&mut self) {
        *self = Debounce::new(self.on_after, self.off_after);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(free: u64, ops: u64) -> HostPressure {
        HostPressure {
            free_frames: free,
            dram_frames: 1000,
            recent_swap_ops: ops,
            interval: SimDuration::from_secs(1),
        }
    }

    /// Drives `trigger` the way the cluster drives its migration
    /// trigger: fed the pressured predicate, reset as soon as it fires.
    fn fires(trigger: &mut Debounce, sample: HostPressure) -> bool {
        let fired = trigger.observe(sample.is_pressured(100.0, 0.25));
        if fired {
            trigger.reset();
        }
        fired
    }

    #[test]
    fn calm_hosts_never_trigger() {
        let mut t = Debounce::new(2, 1);
        for _ in 0..10 {
            assert!(!fires(&mut t, sample(900, 0)));
        }
    }

    #[test]
    fn a_blip_is_debounced() {
        let mut t = Debounce::new(3, 1);
        assert!(!fires(&mut t, sample(10, 5000)));
        assert!(!fires(&mut t, sample(900, 0)), "streak broken");
        assert!(!fires(&mut t, sample(10, 5000)));
        assert!(!fires(&mut t, sample(10, 5000)));
        assert!(fires(&mut t, sample(10, 5000)), "three in a row triggers");
    }

    #[test]
    fn trigger_consumes_the_streak() {
        let mut t = Debounce::new(1, 1);
        assert!(fires(&mut t, sample(10, 5000)));
        assert!(fires(&mut t, sample(10, 5000)), "sustain=1 re-triggers each poll");
        let mut t = Debounce::new(2, 1);
        assert!(!fires(&mut t, sample(10, 5000)));
        assert!(fires(&mut t, sample(10, 5000)));
        assert!(!fires(&mut t, sample(10, 5000)), "firing consumed the streak");
        t.reset();
        assert_eq!((t.streak, t.is_on()), (0, false));
    }

    #[test]
    fn high_swap_rate_with_free_memory_is_not_pressure() {
        // Readahead churn on a host with plenty of free frames must not
        // trigger migrations.
        let mut t = Debounce::new(1, 1);
        assert!(!fires(&mut t, sample(900, 5000)));
        assert!(sample(10, 5000).is_pressured(100.0, 0.25));
    }

    #[test]
    fn placement_score_subtracts_commitment() {
        let s = sample(500, 0);
        assert_eq!(s.placement_score(200), 300);
        assert_eq!(s.placement_score(900), 0, "saturates at zero");
    }

    #[test]
    fn degradation_is_hysteretic() {
        let mut t = Debounce::new(3, 2);
        assert!(!t.is_on());
        assert!(!t.observe(true));
        assert!(!t.observe(true));
        assert!(t.observe(true), "three sustained bad polls quarantine");
        assert!(t.is_on());
        assert!(t.observe(true), "staying bad keeps the quarantine");
        assert!(t.observe(false), "one clean poll is not parole");
        assert!(t.observe(true), "a relapse restarts the recovery count");
        assert!(t.observe(false));
        assert!(!t.observe(false), "two consecutive clean polls recover");
        assert!(!t.is_on());
    }

    #[test]
    fn degradation_blips_are_debounced() {
        let mut t = Debounce::new(2, 1);
        assert!(!t.observe(true));
        assert!(!t.observe(false), "streak broken by a clean poll");
        assert!(!t.observe(true));
        assert!(t.observe(true));
        assert!(!t.observe(false), "off_after=1 paroles immediately");
    }

    #[test]
    fn zero_thresholds_act_as_one() {
        let mut t = Debounce::new(0, 0);
        assert!(!t.observe(false), "an agreeing poll never flips the state");
        assert!(t.observe(true));
        assert!(!t.observe(false));
    }

    #[test]
    fn zero_interval_rate_is_zero() {
        let s = HostPressure {
            free_frames: 0,
            dram_frames: 1000,
            recent_swap_ops: 100,
            interval: SimDuration::ZERO,
        };
        assert_eq!(s.swap_ops_per_sec(), 0.0);
    }
}
