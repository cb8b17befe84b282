//! Deterministic, seed-driven fault plans for the simulated disk.
//!
//! A [`FaultPlan`] decides, for every `(sector, attempt)` pair, whether an
//! I/O touching that sector fails — and how. The decision is a *pure hash*
//! of the plan seed, so it has three properties the chaos harness depends
//! on:
//!
//! 1. **Bitwise reproducibility.** The schedule is a function of the plan
//!    seed alone, never of wall-clock time, scheduling order, or worker
//!    count. Plans are forked off a root seed with
//!    [`sim_core::DeterministicRng::fork_labeled`], so a parallel suite run
//!    injects exactly the same faults as a serial one.
//! 2. **Merge invariance.** Decisions are per *sector*, not per request:
//!    splitting or merging ranges never changes which sectors fail
//!    (property-tested by splitting a range at a random point).
//! 3. **Bounded bursts.** Transient failures, timeouts, and torn writes
//!    only fire while `attempt < max_burst`; a retry budget larger than
//!    `max_burst` is therefore guaranteed to make forward progress.
//!    Latent sector errors are permanent — recovering from them is the
//!    caller's job (slot remapping, mapping invalidation).

#![warn(missing_docs)]

use sim_core::DeterministicRng;

/// The ways an injected fault can manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A permanently unreadable/unwritable sector (media error). Fires on
    /// every attempt; retries never help.
    Latent,
    /// A transient read/write failure (bus reset, command abort). Clears
    /// after at most `max_burst` attempts.
    Transient,
    /// The request exceeds its service deadline and is aborted. Clears
    /// after at most `max_burst` attempts.
    Timeout,
    /// A multi-sector write tears: a prefix reaches the medium, the rest
    /// does not. Clears after at most `max_burst` attempts.
    Torn,
}

impl FaultKind {
    /// Short lowercase label for traces and tables.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Latent => "latent",
            FaultKind::Transient => "transient",
            FaultKind::Timeout => "timeout",
            FaultKind::Torn => "torn",
        }
    }
}

/// One concrete injected fault: what fired, and on which sector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// How the fault manifests.
    pub kind: FaultKind,
    /// The first faulting sector of the request.
    pub sector: u64,
}

/// Per-sector fault probabilities and burst bounds.
///
/// All rates are probabilities per sector (per attempt, for the
/// retryable kinds); a request fails if *any* of its sectors draws a
/// fault. The default is all-zero: a plan built from it injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability that a sector is permanently bad (media error).
    pub latent_rate: f64,
    /// Per-(sector, attempt) probability of a transient failure.
    pub transient_rate: f64,
    /// Per-(sector, attempt) probability of a request timeout.
    pub timeout_rate: f64,
    /// Per-(sector, attempt) probability that a write tears (writes only).
    pub torn_rate: f64,
    /// Transient/timeout/torn faults never fire once `attempt` reaches
    /// this bound, so a retry budget above it always converges.
    pub max_burst: u32,
    /// Restricts latent errors to `[start, end)` sectors; `None` makes the
    /// whole device eligible. Installers typically aim this at the region
    /// whose loss the stack can actually absorb.
    pub latent_window: Option<(u64, u64)>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            latent_rate: 0.0,
            transient_rate: 0.0,
            timeout_rate: 0.0,
            torn_rate: 0.0,
            max_burst: 3,
            latent_window: None,
        }
    }
}

impl FaultConfig {
    /// True if no fault kind can ever fire.
    pub fn is_noop(&self) -> bool {
        self.latent_rate <= 0.0
            && self.transient_rate <= 0.0
            && self.timeout_rate <= 0.0
            && self.torn_rate <= 0.0
    }
}

/// Named fault mixes — the `--fault-profile` vocabulary and the sweep
/// axis of the `chaos` experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultProfile {
    /// No faults (the reference run).
    None,
    /// Transient read/write failures only.
    Transient,
    /// Latent (permanent) sector errors only.
    Latent,
    /// Request timeouts only.
    Timeouts,
    /// Torn multi-sector writes only.
    Torn,
    /// Everything at once, at elevated rates.
    Storm,
}

impl FaultProfile {
    /// Every profile, in sweep order.
    pub const ALL: [FaultProfile; 6] = [
        FaultProfile::None,
        FaultProfile::Transient,
        FaultProfile::Latent,
        FaultProfile::Timeouts,
        FaultProfile::Torn,
        FaultProfile::Storm,
    ];

    /// Stable lowercase name (CLI value, table row, RNG label).
    pub fn label(self) -> &'static str {
        match self {
            FaultProfile::None => "none",
            FaultProfile::Transient => "transient",
            FaultProfile::Latent => "latent",
            FaultProfile::Timeouts => "timeouts",
            FaultProfile::Torn => "torn",
            FaultProfile::Storm => "storm",
        }
    }

    /// The concrete rates this profile stands for.
    pub fn config(self) -> FaultConfig {
        let base = FaultConfig::default();
        match self {
            FaultProfile::None => base,
            FaultProfile::Transient => FaultConfig { transient_rate: 1e-3, ..base },
            FaultProfile::Latent => FaultConfig { latent_rate: 1e-4, ..base },
            FaultProfile::Timeouts => FaultConfig { timeout_rate: 5e-4, ..base },
            FaultProfile::Torn => FaultConfig { torn_rate: 1e-3, ..base },
            FaultProfile::Storm => FaultConfig {
                latent_rate: 2e-4,
                transient_rate: 2e-3,
                timeout_rate: 1e-3,
                torn_rate: 2e-3,
                max_burst: 4,
                latent_window: None,
            },
        }
    }
}

impl std::str::FromStr for FaultProfile {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FaultProfile::ALL.into_iter().find(|p| p.label() == s).ok_or_else(|| {
            format!("unknown fault profile `{s}` (try: none transient latent timeouts torn storm)")
        })
    }
}

impl std::fmt::Display for FaultProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Domain-separation salts, one per fault kind (and per direction where
/// the kind is direction-sensitive).
const SALT_LATENT: u64 = 0x1a7e_47f0_0d5e_c70f;
const SALT_TRANSIENT_READ: u64 = 0x7a45_1e47_0000_4ead;
const SALT_TRANSIENT_WRITE: u64 = 0x7a45_1e47_0000_341e;
const SALT_TIMEOUT: u64 = 0x71e0_0750_dead_11e5;
const SALT_TORN: u64 = 0x7042_0000_5711_7e44;

/// A sealed fault schedule: configuration plus the seed every per-sector
/// decision hashes from.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    cfg: FaultConfig,
    seed: u64,
}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash step.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Seals a plan from explicit rates and a 64-bit seed.
    pub fn new(cfg: FaultConfig, seed: u64) -> Self {
        FaultPlan { cfg, seed }
    }

    /// Seals a plan whose seed is split off `root` by `label` — the
    /// parallel-determinism constructor: the same root state and label
    /// always yield the same schedule, and the root is not advanced.
    pub fn from_rng(cfg: FaultConfig, root: &DeterministicRng, label: &str) -> Self {
        FaultPlan::new(cfg, root.fork_labeled(label).next_u64())
    }

    /// The plan's configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// A uniform draw in `[0, 1)` that is a pure function of
    /// `(seed, salt, sector, attempt)`.
    fn draw(&self, salt: u64, sector: u64, attempt: u32) -> f64 {
        let mut h = self.seed ^ salt;
        h = mix(h ^ sector.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        h = mix(h ^ u64::from(attempt).wrapping_mul(0xd6e8_feb8_6659_fd93));
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// True if `sector` is permanently bad under this plan.
    pub fn latent_bad(&self, sector: u64) -> bool {
        if self.cfg.latent_rate <= 0.0 {
            return false;
        }
        if let Some((start, end)) = self.cfg.latent_window {
            if sector < start || sector >= end {
                return false;
            }
        }
        self.draw(SALT_LATENT, sector, 0) < self.cfg.latent_rate
    }

    /// The fault (if any) a single sector draws for the given direction
    /// and attempt, in priority order latent > transient > timeout > torn.
    fn sector_fault(&self, write: bool, sector: u64, attempt: u32) -> Option<FaultKind> {
        if self.latent_bad(sector) {
            return Some(FaultKind::Latent);
        }
        if attempt >= self.cfg.max_burst {
            return None;
        }
        let transient_salt = if write { SALT_TRANSIENT_WRITE } else { SALT_TRANSIENT_READ };
        if self.cfg.transient_rate > 0.0
            && self.draw(transient_salt, sector, attempt) < self.cfg.transient_rate
        {
            return Some(FaultKind::Transient);
        }
        if self.cfg.timeout_rate > 0.0
            && self.draw(SALT_TIMEOUT, sector, attempt) < self.cfg.timeout_rate
        {
            return Some(FaultKind::Timeout);
        }
        if write
            && self.cfg.torn_rate > 0.0
            && self.draw(SALT_TORN, sector, attempt) < self.cfg.torn_rate
        {
            return Some(FaultKind::Torn);
        }
        None
    }

    /// Decides the fate of one request over `[start, start + len)`:
    /// `None` means it succeeds, otherwise the first faulting sector (in
    /// ascending sector order) determines the failure.
    pub fn decide(&self, write: bool, start: u64, len: u64, attempt: u32) -> Option<InjectedFault> {
        if self.cfg.is_noop() {
            return None;
        }
        (start..start.saturating_add(len)).find_map(|sector| {
            self.sector_fault(write, sector, attempt).map(|kind| InjectedFault { kind, sector })
        })
    }

    /// Every faulting sector in `[start, start + len)` for the given
    /// direction and attempt — the merge-invariance primitive: this set is
    /// a pure per-sector function, so splitting or merging ranges can
    /// never change it.
    pub fn faulty_sectors(&self, write: bool, start: u64, len: u64, attempt: u32) -> Vec<u64> {
        if self.cfg.is_noop() {
            return Vec::new();
        }
        (start..start.saturating_add(len))
            .filter(|&s| self.sector_fault(write, s, attempt).is_some())
            .collect()
    }
}

/// How an injected migration-link fault manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkFault {
    /// The link drops mid-pre-copy: the migration aborts and the guest
    /// rolls back to (stays on) the source host.
    Transient,
    /// One pre-copy round's transfer tears and must be re-sent; the
    /// migration itself survives.
    Torn,
}

impl LinkFault {
    /// Short lowercase label for traces and tables.
    pub fn label(self) -> &'static str {
        match self {
            LinkFault::Transient => "link-transient",
            LinkFault::Torn => "link-torn",
        }
    }
}

/// Fleet-level fault probabilities: host crashes, brown-out windows, and
/// migration-link failures.
///
/// Crash and brown-out decisions are drawn per `(host, epoch)` — one
/// scheduler poll of the cluster — and link decisions per
/// `(tenant, round, attempt)`. The default is all-zero: a plan built
/// from it injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterFaultConfig {
    /// Per-(host, epoch) probability that the host fail-stops at that
    /// epoch barrier. The cluster additionally caps crashes so a fleet
    /// never loses its last surviving host.
    pub crash_rate: f64,
    /// Per-(host, window) probability that the host browns out (runs no
    /// guest work) for a whole window of `brownout_epochs` epochs.
    pub brownout_rate: f64,
    /// Length of one brown-out window in scheduler epochs.
    pub brownout_epochs: u64,
    /// Per-(tenant, round, attempt) probability that a migration's link
    /// drops mid-pre-copy, aborting the migration back to its source.
    pub link_transient_rate: f64,
    /// Per-(tenant, round, attempt) probability that one pre-copy
    /// round's transfer tears and is re-sent.
    pub link_torn_rate: f64,
    /// Link faults never fire once the migration `attempt` reaches this
    /// bound, so a retry budget above it always converges.
    pub max_link_burst: u32,
}

impl Default for ClusterFaultConfig {
    fn default() -> Self {
        ClusterFaultConfig {
            crash_rate: 0.0,
            brownout_rate: 0.0,
            brownout_epochs: 3,
            link_transient_rate: 0.0,
            link_torn_rate: 0.0,
            max_link_burst: 3,
        }
    }
}

impl ClusterFaultConfig {
    /// True if no fleet fault can ever fire.
    pub fn is_noop(&self) -> bool {
        self.crash_rate <= 0.0
            && self.brownout_rate <= 0.0
            && self.link_transient_rate <= 0.0
            && self.link_torn_rate <= 0.0
    }
}

/// Named fleet fault mixes — the `--cluster-fault-profile` vocabulary
/// and the sweep axis of the `cluster-chaos` experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusterFaultProfile {
    /// No fleet faults (the reference run).
    None,
    /// Host fail-stop crashes only.
    Crashes,
    /// Host brown-out (slow-down) windows only.
    BrownOuts,
    /// Migration-link transient drops and torn pre-copy rounds only.
    FlakyLinks,
    /// Everything at once, at elevated rates.
    FleetStorm,
}

impl ClusterFaultProfile {
    /// Every profile, in sweep order.
    pub const ALL: [ClusterFaultProfile; 5] = [
        ClusterFaultProfile::None,
        ClusterFaultProfile::Crashes,
        ClusterFaultProfile::BrownOuts,
        ClusterFaultProfile::FlakyLinks,
        ClusterFaultProfile::FleetStorm,
    ];

    /// Stable lowercase name (CLI value, table row, RNG label).
    pub fn label(self) -> &'static str {
        match self {
            ClusterFaultProfile::None => "none",
            ClusterFaultProfile::Crashes => "crashes",
            ClusterFaultProfile::BrownOuts => "brownouts",
            ClusterFaultProfile::FlakyLinks => "flaky-links",
            ClusterFaultProfile::FleetStorm => "fleet-storm",
        }
    }

    /// The concrete rates this profile stands for.
    pub fn config(self) -> ClusterFaultConfig {
        let base = ClusterFaultConfig::default();
        match self {
            ClusterFaultProfile::None => base,
            ClusterFaultProfile::Crashes => ClusterFaultConfig { crash_rate: 0.04, ..base },
            ClusterFaultProfile::BrownOuts => {
                ClusterFaultConfig { brownout_rate: 0.15, brownout_epochs: 3, ..base }
            }
            ClusterFaultProfile::FlakyLinks => {
                ClusterFaultConfig { link_transient_rate: 0.35, link_torn_rate: 0.25, ..base }
            }
            ClusterFaultProfile::FleetStorm => ClusterFaultConfig {
                crash_rate: 0.03,
                brownout_rate: 0.1,
                brownout_epochs: 3,
                link_transient_rate: 0.3,
                link_torn_rate: 0.2,
                max_link_burst: 3,
            },
        }
    }
}

impl std::str::FromStr for ClusterFaultProfile {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ClusterFaultProfile::ALL.into_iter().find(|p| p.label() == s).ok_or_else(|| {
            format!(
                "unknown cluster fault profile `{s}` \
                 (try: none crashes brownouts flaky-links fleet-storm)"
            )
        })
    }
}

impl std::fmt::Display for ClusterFaultProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Domain-separation salts for the fleet-level decisions.
const SALT_HOST_CRASH: u64 = 0xc4a5_4000_0575_dead;
const SALT_BROWNOUT: u64 = 0xb40f_f000_510f_ca1f;
const SALT_LINK_TRANSIENT: u64 = 0x11f7_a45e_47f0_0d0b;
const SALT_LINK_TORN: u64 = 0x11f7_0042_5711_7e44;

/// A sealed fleet fault schedule: configuration plus the seed every
/// per-(host, epoch) and per-(tenant, round, attempt) decision hashes
/// from. Decisions are pure hashes, so the schedule has the same three
/// properties as [`FaultPlan`]: bitwise reproducibility, merge
/// invariance, and (for link faults) bounded bursts.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterFaultPlan {
    cfg: ClusterFaultConfig,
    seed: u64,
}

/// Hashes an arbitrary identifier string (a host or tenant name) to a
/// stable 64-bit key for fleet fault decisions. Pure: independent of
/// enumeration order, worker count, and platform.
pub fn entity_key(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in name.as_bytes() {
        h = mix(h ^ u64::from(b).wrapping_mul(0x0100_0000_01b3));
    }
    h
}

impl ClusterFaultPlan {
    /// Seals a plan from explicit rates and a 64-bit seed.
    pub fn new(cfg: ClusterFaultConfig, seed: u64) -> Self {
        ClusterFaultPlan { cfg, seed }
    }

    /// Seals a plan whose seed is split off `root` by `label`, without
    /// advancing the root (mirrors [`FaultPlan::from_rng`]).
    pub fn from_rng(cfg: ClusterFaultConfig, root: &DeterministicRng, label: &str) -> Self {
        ClusterFaultPlan::new(cfg, root.fork_labeled(label).next_u64())
    }

    /// The plan's configuration.
    pub fn config(&self) -> &ClusterFaultConfig {
        &self.cfg
    }

    /// A uniform draw in `[0, 1)` that is a pure function of
    /// `(seed, salt, a, b)`.
    fn draw(&self, salt: u64, a: u64, b: u64) -> f64 {
        let mut h = self.seed ^ salt;
        h = mix(h ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        h = mix(h ^ b.wrapping_mul(0xd6e8_feb8_6659_fd93));
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// True if the plan asks `host` (an [`entity_key`]) to fail-stop at
    /// `epoch`. The cluster decides whether the crash is admissible (a
    /// fleet never loses its last alive host).
    pub fn crashes_at(&self, host: u64, epoch: u64) -> bool {
        self.cfg.crash_rate > 0.0 && self.draw(SALT_HOST_CRASH, host, epoch) < self.cfg.crash_rate
    }

    /// True if `host` is browned out (runs no guest work) during
    /// `epoch`. Decisions are per whole window of
    /// [`ClusterFaultConfig::brownout_epochs`] epochs, so a brown-out
    /// always lasts a full window.
    pub fn brownout_at(&self, host: u64, epoch: u64) -> bool {
        if self.cfg.brownout_rate <= 0.0 {
            return false;
        }
        let window = epoch / self.cfg.brownout_epochs.max(1);
        self.draw(SALT_BROWNOUT, host, window) < self.cfg.brownout_rate
    }

    /// The link fault (if any) migration `attempt` of `tenant` (an
    /// [`entity_key`]) draws during pre-copy `round`. Transient drops
    /// take priority over torn rounds; nothing fires once `attempt`
    /// reaches [`ClusterFaultConfig::max_link_burst`], so a retry budget
    /// above the burst bound always converges.
    pub fn link_fault(&self, tenant: u64, round: u32, attempt: u32) -> Option<LinkFault> {
        if attempt >= self.cfg.max_link_burst {
            return None;
        }
        let key = u64::from(round) | (u64::from(attempt) << 32);
        if self.cfg.link_transient_rate > 0.0
            && self.draw(SALT_LINK_TRANSIENT, tenant, key) < self.cfg.link_transient_rate
        {
            return Some(LinkFault::Transient);
        }
        if self.cfg.link_torn_rate > 0.0
            && self.draw(SALT_LINK_TORN, tenant, key) < self.cfg.link_torn_rate
        {
            return Some(LinkFault::Torn);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    fn storm_plan(seed: u64) -> FaultPlan {
        FaultPlan::new(
            FaultConfig {
                latent_rate: 0.01,
                transient_rate: 0.05,
                timeout_rate: 0.02,
                torn_rate: 0.05,
                max_burst: 3,
                latent_window: None,
            },
            seed,
        )
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = storm_plan(42);
        let b = storm_plan(42);
        for attempt in 0..4 {
            for start in (0..4096).step_by(57) {
                assert_eq!(
                    a.decide(false, start, 64, attempt),
                    b.decide(false, start, 64, attempt)
                );
                assert_eq!(a.decide(true, start, 64, attempt), b.decide(true, start, 64, attempt));
            }
        }
    }

    #[test]
    fn seeds_shift_the_schedule() {
        let a = storm_plan(1);
        let b = storm_plan(2);
        let differs = (0..64u64)
            .any(|i| a.decide(false, i * 512, 128, 0) != b.decide(false, i * 512, 128, 0));
        assert!(differs, "distinct seeds must give distinct schedules");
    }

    #[test]
    fn from_rng_matches_fork_labeled_and_leaves_root_intact() {
        let root = DeterministicRng::seed_from(7);
        let a = FaultPlan::from_rng(FaultConfig::default(), &root, "sim-fault/plan");
        let b = FaultPlan::from_rng(FaultConfig::default(), &root, "sim-fault/plan");
        assert_eq!(a, b, "labeled forks are stable");
        let mut r1 = DeterministicRng::seed_from(7);
        let mut r2 = DeterministicRng::seed_from(7);
        let _ = FaultPlan::from_rng(FaultConfig::default(), &r1, "sim-fault/plan");
        assert_eq!(r1.next_u64(), r2.next_u64(), "the root is not advanced");
    }

    #[test]
    fn bursts_are_attempt_bounded() {
        let plan = storm_plan(99);
        for start in (0..100_000).step_by(997) {
            // At or beyond max_burst only latent errors can remain.
            for attempt in 3..8 {
                if let Some(f) = plan.decide(true, start, 32, attempt) {
                    assert_eq!(f.kind, FaultKind::Latent, "attempt {attempt} sector {}", f.sector);
                }
            }
        }
    }

    #[test]
    fn latent_errors_are_permanent_direction_blind_and_windowed() {
        let plan = FaultPlan::new(
            FaultConfig { latent_rate: 1.0, latent_window: Some((100, 200)), ..Default::default() },
            5,
        );
        assert!(plan.latent_bad(100) && plan.latent_bad(199));
        assert!(!plan.latent_bad(99) && !plan.latent_bad(200));
        for attempt in 0..10 {
            let read = plan.decide(false, 150, 4, attempt).expect("latent fires on reads");
            let write = plan.decide(true, 150, 4, attempt).expect("latent fires on writes");
            assert_eq!(read.kind, FaultKind::Latent);
            assert_eq!((read.kind, read.sector), (write.kind, write.sector));
        }
        assert!(plan.decide(false, 0, 100, 0).is_none(), "outside the window nothing fires");
    }

    #[test]
    fn torn_faults_only_fire_on_writes() {
        let plan = FaultPlan::new(FaultConfig { torn_rate: 1.0, ..Default::default() }, 11);
        assert_eq!(plan.decide(true, 0, 8, 0).map(|f| f.kind), Some(FaultKind::Torn));
        assert!(plan.decide(false, 0, 8, 0).is_none());
    }

    #[test]
    fn first_faulting_sector_wins() {
        let plan = storm_plan(123);
        for start in (0..10_000).step_by(333) {
            if let Some(f) = plan.decide(false, start, 256, 0) {
                let all = plan.faulty_sectors(false, start, 256, 0);
                assert_eq!(all.first().copied(), Some(f.sector));
            }
        }
    }

    #[test]
    fn faulty_sector_sets_are_split_invariant() {
        let plan = storm_plan(77);
        let whole = plan.faulty_sectors(true, 0, 1024, 1);
        let mut pieces = Vec::new();
        for chunk in (0..1024).step_by(64) {
            pieces.extend(plan.faulty_sectors(true, chunk, 64, 1));
        }
        assert_eq!(whole, pieces, "per-sector decisions cannot depend on request framing");
    }

    #[test]
    fn noop_config_injects_nothing() {
        let plan = FaultPlan::new(FaultConfig::default(), 1);
        assert!(FaultConfig::default().is_noop());
        for start in (0..1_000_000).step_by(4096) {
            assert!(plan.decide(false, start, 256, 0).is_none());
            assert!(plan.decide(true, start, 256, 0).is_none());
        }
    }

    #[test]
    fn profiles_parse_round_trip() {
        for p in FaultProfile::ALL {
            assert_eq!(FaultProfile::from_str(p.label()).unwrap(), p);
            assert_eq!(p.to_string(), p.label());
        }
        assert!(FaultProfile::from_str("nope").is_err());
        assert!(FaultProfile::None.config().is_noop());
        assert!(!FaultProfile::Storm.config().is_noop());
        assert!(
            FaultProfile::Storm.config().max_burst < 6,
            "bursts must stay under the default retry budget"
        );
    }

    fn fleet_storm(seed: u64) -> ClusterFaultPlan {
        ClusterFaultPlan::new(ClusterFaultProfile::FleetStorm.config(), seed)
    }

    #[test]
    fn cluster_decisions_are_deterministic_and_seed_sensitive() {
        let a = fleet_storm(42);
        let b = fleet_storm(42);
        let c = fleet_storm(43);
        let hosts: Vec<u64> = (0..8).map(|i| entity_key(&format!("host{i:03}"))).collect();
        for &h in &hosts {
            for epoch in 0..64 {
                assert_eq!(a.crashes_at(h, epoch), b.crashes_at(h, epoch));
                assert_eq!(a.brownout_at(h, epoch), b.brownout_at(h, epoch));
            }
        }
        let differs =
            hosts.iter().any(|&h| (0..256).any(|e| a.crashes_at(h, e) != c.crashes_at(h, e)));
        assert!(differs, "distinct seeds must give distinct crash schedules");
    }

    #[test]
    fn entity_keys_depend_on_the_whole_name() {
        assert_ne!(entity_key("host000"), entity_key("host001"));
        assert_ne!(entity_key("ab"), entity_key("ba"));
        assert_eq!(entity_key("tenant/heavy"), entity_key("tenant/heavy"));
    }

    #[test]
    fn brownouts_cover_whole_windows() {
        let plan = ClusterFaultPlan::new(
            ClusterFaultConfig { brownout_rate: 0.3, brownout_epochs: 4, ..Default::default() },
            9,
        );
        let host = entity_key("host000");
        for window in 0..64u64 {
            let states: Vec<bool> =
                (window * 4..window * 4 + 4).map(|e| plan.brownout_at(host, e)).collect();
            assert!(
                states.iter().all(|&s| s == states[0]),
                "a brown-out decision applies to its entire window"
            );
        }
    }

    #[test]
    fn link_faults_are_attempt_bounded() {
        let plan = fleet_storm(7);
        let tenant = entity_key("tenant/heavy");
        let burst = plan.config().max_link_burst;
        for round in 0..16 {
            for attempt in burst..burst + 8 {
                assert_eq!(
                    plan.link_fault(tenant, round, attempt),
                    None,
                    "round {round} attempt {attempt}"
                );
            }
        }
        let fires = (0..64u64)
            .any(|t| (0..8).any(|r| plan.link_fault(entity_key(&t.to_string()), r, 0).is_some()));
        assert!(fires, "the fleet-storm link rates must actually fire");
    }

    #[test]
    fn cluster_noop_profile_injects_nothing() {
        let plan = ClusterFaultPlan::new(ClusterFaultProfile::None.config(), 1);
        assert!(ClusterFaultProfile::None.config().is_noop());
        let host = entity_key("host000");
        for epoch in 0..1024 {
            assert!(!plan.crashes_at(host, epoch));
            assert!(!plan.brownout_at(host, epoch));
        }
        assert!(plan.link_fault(host, 0, 0).is_none());
    }

    #[test]
    fn cluster_profiles_parse_round_trip() {
        for p in ClusterFaultProfile::ALL {
            assert_eq!(ClusterFaultProfile::from_str(p.label()).unwrap(), p);
            assert_eq!(p.to_string(), p.label());
        }
        assert!(ClusterFaultProfile::from_str("nope").is_err());
        assert!(ClusterFaultProfile::None.config().is_noop());
        assert!(!ClusterFaultProfile::FleetStorm.config().is_noop());
        assert!(
            ClusterFaultProfile::FleetStorm.config().max_link_burst < 6,
            "link bursts must stay under the default retry budget"
        );
    }

    #[test]
    fn cluster_from_rng_matches_fork_labeled_and_leaves_root_intact() {
        let root = DeterministicRng::seed_from(7);
        let cfg = ClusterFaultConfig::default();
        let a = ClusterFaultPlan::from_rng(cfg, &root, "sim-fault/cluster");
        let b = ClusterFaultPlan::from_rng(cfg, &root, "sim-fault/cluster");
        assert_eq!(a, b, "labeled forks are stable");
        let mut r1 = DeterministicRng::seed_from(7);
        let mut r2 = DeterministicRng::seed_from(7);
        let _ = ClusterFaultPlan::from_rng(cfg, &r1, "sim-fault/cluster");
        assert_eq!(r1.next_u64(), r2.next_u64(), "the root is not advanced");
    }
}
