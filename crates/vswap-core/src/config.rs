//! Machine configuration: the five evaluated policies and their knobs.

use crate::preventer::PreventerConfig;
use sim_core::SimDuration;
use vswap_disk::{DiskSpec, FaultProfile};
use vswap_hostos::HostSpec;
use vswap_hypervisor::BalloonPolicy;

/// The five configurations of the paper's evaluation (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwapPolicy {
    /// Uncooperative host swapping only.
    Baseline,
    /// Ballooning, falling back on baseline uncooperative swapping.
    BalloonBaseline,
    /// The Swap Mapper without the False Reads Preventer
    /// ("mapper" / "vswapper w/o preventer" in the figures).
    MapperOnly,
    /// The full VSwapper: Swap Mapper + False Reads Preventer.
    Vswapper,
    /// Ballooning on top of the full VSwapper.
    BalloonVswapper,
}

impl SwapPolicy {
    /// All five policies, in the order the paper's figures list them.
    pub const ALL: [SwapPolicy; 5] = [
        SwapPolicy::Baseline,
        SwapPolicy::BalloonBaseline,
        SwapPolicy::MapperOnly,
        SwapPolicy::Vswapper,
        SwapPolicy::BalloonVswapper,
    ];

    /// True if the Swap Mapper is active.
    pub fn mapper_enabled(self) -> bool {
        matches!(self, SwapPolicy::MapperOnly | SwapPolicy::Vswapper | SwapPolicy::BalloonVswapper)
    }

    /// True if the False Reads Preventer is active.
    pub fn preventer_enabled(self) -> bool {
        matches!(self, SwapPolicy::Vswapper | SwapPolicy::BalloonVswapper)
    }

    /// True if guests run a balloon driver.
    pub fn ballooning(self) -> bool {
        matches!(self, SwapPolicy::BalloonBaseline | SwapPolicy::BalloonVswapper)
    }

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SwapPolicy::Baseline => "baseline",
            SwapPolicy::BalloonBaseline => "balloon+base",
            SwapPolicy::MapperOnly => "mapper",
            SwapPolicy::Vswapper => "vswapper",
            SwapPolicy::BalloonVswapper => "balloon+vswap",
        }
    }
}

impl std::fmt::Display for SwapPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How balloons are managed when a policy enables ballooning.
#[derive(Debug, Clone)]
pub enum Ballooning {
    /// No balloon driver installed.
    None,
    /// The balloon is inflated once, at VM setup, to exactly the gap
    /// between perceived and actual memory (the controlled experiments of
    /// §5.1).
    Static,
    /// A MOM-style manager adjusts balloons dynamically (§5.2).
    Auto(BalloonPolicy),
}

/// Full machine configuration.
///
/// # Examples
///
/// ```
/// use vswap_core::{MachineConfig, SwapPolicy};
///
/// let cfg = MachineConfig::preset(SwapPolicy::Vswapper);
/// assert!(cfg.mapper);
/// assert!(cfg.preventer.enabled);
/// ```
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Host hardware and kernel-policy parameters.
    pub host: HostSpec,
    /// Whether the Swap Mapper is active.
    pub mapper: bool,
    /// False Reads Preventer parameters (including its enable switch).
    pub preventer: PreventerConfig,
    /// Balloon management mode.
    pub ballooning: Ballooning,
    /// Root seed for all deterministic randomness.
    pub seed: u64,
    /// Interval at which each VM's guest page cache and Mapper-tracked
    /// pages are sampled into [`RunReport::samples`] (Figure 15); `None`
    /// disables sampling. Must not be zero.
    ///
    /// [`RunReport::samples`]: crate::RunReport::samples
    pub sample_interval: Option<SimDuration>,
    /// Page-type-aware paging (§7 future work, implemented): the host is
    /// hinted that each guest's kernel pages are vital and never evicts
    /// them. Off by default — the paper's evaluated system does not have
    /// it; the ablation benches switch it on.
    pub protect_guest_kernel: bool,
    /// Deterministic disk-fault injection profile. The default is
    /// [`FaultProfile::None`]: no plan is installed and every disk
    /// request succeeds, byte-identically to a build without the fault
    /// subsystem.
    pub faults: FaultProfile,
    /// Seed the fault schedule is forked from. `None` (the default)
    /// derives it from [`MachineConfig::seed`], so a fixed machine seed
    /// pins the fault schedule too; `Some` decouples the two, letting a
    /// fault-seed sweep hold the workload constant.
    pub fault_seed: Option<u64>,
    /// Content-label namespace this machine mints labels from (see
    /// [`vswap_mem::LabelGen::with_namespace`]). `0` — the default —
    /// is byte-identical to the pre-cluster behaviour. A cluster gives
    /// every host a distinct namespace so labels carried by a migrating
    /// VM can never collide with labels minted on the destination.
    pub label_namespace: u32,
}

impl MachineConfig {
    /// The configuration used by the paper's evaluation for the given
    /// policy: testbed host, static ballooning where applicable.
    pub fn preset(policy: SwapPolicy) -> Self {
        MachineConfig {
            host: HostSpec::paper_testbed(),
            mapper: policy.mapper_enabled(),
            preventer: PreventerConfig {
                enabled: policy.preventer_enabled(),
                ..PreventerConfig::default()
            },
            ballooning: if policy.ballooning() { Ballooning::Static } else { Ballooning::None },
            seed: 0x5eed_cafe,
            sample_interval: None,
            protect_guest_kernel: false,
            faults: FaultProfile::None,
            fault_seed: None,
            label_namespace: 0,
        }
    }

    /// Switches ballooning to a MOM-style dynamic manager (builder
    /// style). Only meaningful for balloon policies.
    #[must_use]
    pub fn with_auto_balloon(mut self, policy: BalloonPolicy) -> Self {
        self.ballooning = Ballooning::Auto(policy);
        self
    }

    /// Overrides the host spec (builder style).
    #[must_use]
    pub fn with_host(mut self, host: HostSpec) -> Self {
        self.host = host;
        self
    }

    /// Overrides the disk timing profile (builder style): swap the
    /// testbed's rotational drive for [`DiskSpec::ssd`] or
    /// [`DiskSpec::nvme`] without touching the rest of the host.
    #[must_use]
    pub fn with_disk(mut self, disk: DiskSpec) -> Self {
        self.host.disk = disk;
        self
    }

    /// Overrides the per-queue submission-ring depth (builder style).
    /// Depth 1 — the default — services one command per hardware queue
    /// at a time; deeper rings overlap commands and complete them out
    /// of order.
    #[must_use]
    pub fn with_disk_queue_depth(mut self, depth: u32) -> Self {
        self.host.disk_queue_depth = depth;
        self
    }

    /// Overrides the seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables Figure 15 sampling at the given interval (builder style).
    /// A zero interval makes [`Machine::new`] return
    /// [`MachineError::Config`].
    ///
    /// [`Machine::new`]: crate::Machine::new
    /// [`MachineError::Config`]: crate::MachineError::Config
    #[must_use]
    pub fn with_sampling(mut self, interval: SimDuration) -> Self {
        self.sample_interval = Some(interval);
        self
    }

    /// Enables the page-type-aware kernel-page protection hint (builder
    /// style).
    #[must_use]
    pub fn with_kernel_protection(mut self) -> Self {
        self.protect_guest_kernel = true;
        self
    }

    /// Selects a disk-fault injection profile (builder style).
    #[must_use]
    pub fn with_faults(mut self, profile: FaultProfile) -> Self {
        self.faults = profile;
        self
    }

    /// Pins the fault schedule to its own seed, independent of the
    /// machine seed (builder style).
    #[must_use]
    pub fn with_fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = Some(seed);
        self
    }

    /// Places this machine's content labels in a disjoint per-host
    /// namespace (builder style). Used by cluster mode; `0` keeps the
    /// single-host behaviour.
    #[must_use]
    pub fn with_label_namespace(mut self, namespace: u32) -> Self {
        self.label_namespace = namespace;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_feature_matrix_matches_paper() {
        use SwapPolicy::*;
        assert!(!Baseline.mapper_enabled() && !Baseline.preventer_enabled());
        assert!(!Baseline.ballooning());
        assert!(BalloonBaseline.ballooning() && !BalloonBaseline.mapper_enabled());
        assert!(MapperOnly.mapper_enabled() && !MapperOnly.preventer_enabled());
        assert!(Vswapper.mapper_enabled() && Vswapper.preventer_enabled());
        assert!(BalloonVswapper.mapper_enabled());
        assert!(BalloonVswapper.preventer_enabled());
        assert!(BalloonVswapper.ballooning());
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::BTreeSet<&str> =
            SwapPolicy::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn preset_injects_no_faults() {
        let cfg = MachineConfig::preset(SwapPolicy::Vswapper);
        assert_eq!(cfg.faults, FaultProfile::None);
        assert!(cfg.fault_seed.is_none());
        let chaotic = cfg.with_faults(FaultProfile::Storm).with_fault_seed(7);
        assert_eq!(chaotic.faults, FaultProfile::Storm);
        assert_eq!(chaotic.fault_seed, Some(7));
    }

    #[test]
    fn disk_builders_reach_the_host_spec() {
        let cfg = MachineConfig::preset(SwapPolicy::Vswapper)
            .with_disk(DiskSpec::nvme())
            .with_disk_queue_depth(32);
        assert_eq!(cfg.host.disk, DiskSpec::nvme());
        assert_eq!(cfg.host.disk_queue_depth, 32);
        // The preset itself stays on the paper's testbed drive.
        let stock = MachineConfig::preset(SwapPolicy::Vswapper);
        assert_eq!(stock.host.disk, DiskSpec::hdd_7200());
        assert_eq!(stock.host.disk_queue_depth, 1);
    }

    #[test]
    fn preset_wires_ballooning() {
        assert!(matches!(
            MachineConfig::preset(SwapPolicy::BalloonBaseline).ballooning,
            Ballooning::Static
        ));
        assert!(matches!(MachineConfig::preset(SwapPolicy::Baseline).ballooning, Ballooning::None));
        let auto = MachineConfig::preset(SwapPolicy::BalloonVswapper)
            .with_auto_balloon(BalloonPolicy::default());
        assert!(matches!(auto.ballooning, Ballooning::Auto(_)));
    }
}
