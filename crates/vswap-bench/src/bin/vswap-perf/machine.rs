//! Machine workloads: Linux guests perceiving 512 MB but granted 128 MB
//! on one simulated host, built the way `vswap run` builds them.

use crate::bench::{Bench, Checks, Clock, Rep, Traced};
use crate::metrics::{counter_metrics, Counters, Metric};
use crate::peel::{Peel, Replay};
use crate::stats::tail_percentile;
use crate::trace::{durations_us, layer_times, Timed, Tracer, STEP};
use sim_core::{DeterministicRng, SimTime};
use sim_obs::{MetricsRegistry, TimeCategory};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use vswap_bench::experiments::common;
use vswap_bench::Scale;
use vswap_core::{Machine, MachineConfig, RunReport, SwapPolicy};
use vswap_guestos::GuestProgram;
use vswap_hypervisor::VmSpec;
use vswap_mem::MemBytes;
use vswap_workloads::kernbench::{Kernbench, KernbenchConfig};
use vswap_workloads::mapreduce::{MapReduce, MapReduceConfig};

const NEW: &str = "vswap-core.machine.new";
const ADD_VM: &str = "vswap-core.machine.add_vm";
const RUN: &str = "vswap-core.machine.run";
const REPORT: &str = "vswap-core.machine.report";
const AUDIT: &str = "vswap-hostos.audit";
const PEEL: &str = "vswap-guestos.peel";

/// Ring capacity of the sink rep's event log: the one each suite unit
/// attaches, so the sink overhead measured here is the suite's.
const SINK_CAPACITY: usize = 1 << 14;

#[derive(Debug, Clone)]
pub enum Program {
    Kernbench(KernbenchConfig),
    MapReduce(MapReduceConfig),
}

impl Program {
    fn build(&self) -> Box<dyn GuestProgram> {
        match self {
            Program::Kernbench(cfg) => Box::new(Kernbench::new(cfg.clone())),
            Program::MapReduce(cfg) => Box::new(MapReduce::new(cfg.clone())),
        }
    }
}

#[derive(Debug, Clone)]
pub struct Guest {
    pub spec: VmSpec,
    pub program: Program,
    pub launch_at: SimTime,
}

/// Everything one machine rep is built from; a pure function of the
/// workload, its scale and the seed.
#[derive(Debug, Clone)]
pub struct MachinePlan {
    pub cfg: MachineConfig,
    pub guests: Vec<Guest>,
}

impl MachinePlan {
    /// One guest compiling a kernel: at [`Scale::Paper`], 3,000 jobs
    /// over a 128 MB source tree.
    pub fn kernbench(scale: Scale, policy: SwapPolicy, seed: u64) -> Self {
        let cfg = KernbenchConfig {
            jobs: scale.count(3000),
            source_pages: MemBytes::from_mb(scale.mb(128)).pages(),
            ..KernbenchConfig::default()
        };
        Self::new(scale, policy, seed, |_| Program::Kernbench(cfg.clone()), 1)
    }

    /// `guests` MapReduce word counts started a phase gap apart (10 s at
    /// [`Scale::Paper`]), each with its own insert-pattern seed.
    pub fn mapreduce(scale: Scale, policy: SwapPolicy, guests: u32, seed: u64) -> Self {
        let pages = |paper_mb| MemBytes::from_mb(scale.mb(paper_mb)).pages();
        let program = |rng: &mut DeterministicRng| {
            Program::MapReduce(MapReduceConfig {
                input_pages: pages(300),
                table_pages: pages(560),
                scratch_pages: pages(96),
                output_pages: pages(16),
                seed: rng.next_u64(),
                ..MapReduceConfig::default()
            })
        };
        Self::new(scale, policy, seed, program, guests)
    }

    fn new(
        scale: Scale,
        policy: SwapPolicy,
        seed: u64,
        mut program: impl FnMut(&mut DeterministicRng) -> Program,
        guests: u32,
    ) -> Self {
        let mut rng = DeterministicRng::seed_from(seed);
        let mut host = common::host(scale);
        // Every guest's private image must fit beside the swap area.
        host.disk_pages = host.swap_pages
            + u64::from(guests + 1) * MemBytes::from_mb(scale.mb(21 * 1024)).pages();
        let cfg = MachineConfig::preset(policy).with_host(host).with_seed(rng.next_u64());
        let guests = (0..guests)
            .map(|i| Guest {
                spec: common::linux_vm(scale, &format!("guest{i}"), 512, 128),
                program: program(&mut rng),
                launch_at: SimTime::ZERO + common::phase_gap(scale) * u64::from(i),
            })
            .collect();
        MachinePlan { cfg, guests }
    }

    /// Builds the machine, boots every guest and launches its program.
    /// With a tracer, each call is a span and each program is wrapped
    /// so its steps are spans too.
    pub fn setup(&self, tracer: Option<&Tracer>) -> Result<Machine, String> {
        fn span<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
            match tracer {
                Some(t) => t.span(name, f),
                None => f(),
            }
        }
        let mut m =
            span(tracer, NEW, || Machine::new(self.cfg.clone())).map_err(|e| e.to_string())?;
        for guest in &self.guests {
            let vm =
                span(tracer, ADD_VM, || m.add_vm(guest.spec.clone())).map_err(|e| e.to_string())?;
            let program = match tracer {
                Some(t) => Box::new(Timed { inner: guest.program.build(), tracer: t.clone() }),
                None => guest.program.build(),
            };
            m.launch_at(vm, program, guest.launch_at);
        }
        Ok(m)
    }

    /// The seed the machine hands each guest kernel, in boot order:
    /// `Machine::add_vm` draws one from a generator seeded with the
    /// machine seed.
    fn guest_seeds(&self) -> Vec<u64> {
        let mut rng = DeterministicRng::seed_from(self.cfg.seed);
        self.guests.iter().map(|_| rng.next_u64()).collect()
    }

    /// Replays every guest on dense hardware, one span per guest around
    /// its program's steps, and sums what the replays did.
    pub fn peel(&self, tracer: &Tracer) -> Result<Peel, String> {
        let mut total = Peel::default();
        for (guest, seed) in self.guests.iter().zip(self.guest_seeds()) {
            let mut replay = Replay::boot(&guest.spec.guest, seed)?;
            let mut program = guest.program.build();
            let peel = tracer.span(PEEL, || replay.run(program.as_mut()))?;
            replay.audit()?;
            total.steps += peel.steps;
            total.disk_requests += peel.disk_requests;
            total.hw_calls += peel.hw_calls;
        }
        Ok(total)
    }
}

/// The simulated outcome reps must reproduce: every counter of the run
/// report, the end time and each workload's record.
pub fn digest(report: &RunReport) -> String {
    let mut d = format!("ended_at {}", report.ended_at.as_nanos());
    for set in [&report.host, &report.disk, &report.mapper, &report.preventer] {
        for (name, value) in set.iter() {
            let _ = write!(d, " {name} {value}");
        }
    }
    for w in &report.workloads {
        let _ = write!(
            d,
            " | {} {} steps {} {:?}..{:?} killed {:?}",
            w.name, w.workload, w.steps, w.started, w.finished, w.killed
        );
    }
    d
}

/// The run report's counters as `group/name`.
pub fn counters(report: &RunReport) -> Counters {
    let mut c = Counters::new();
    for (group, set) in [
        ("host", &report.host),
        ("disk", &report.disk),
        ("mapper", &report.mapper),
        ("preventer", &report.preventer),
    ] {
        for (name, value) in set.iter() {
            c.insert(format!("{group}/{name}"), value);
        }
    }
    c
}

/// Simulated page-granularity work, counted as the suite counts it.
fn page_work(report: &RunReport) -> u64 {
    let mut host = MetricsRegistry::new();
    host.absorb_stat_set("machine/host", &report.host);
    vswap_bench::suite::pages_simulated(&host)
}

/// `Machine::run`, timed: its body, `step` until no workload is left and
/// then `report`, driven here so the clock can cut a multi-second run
/// into segments with a probe reading between them.
fn timed_run(m: &mut Machine, clock: &mut Clock<'_>) -> (RunReport, Duration, f64) {
    let mut report = None;
    let (wall, scaled) = clock.stepped(|| {
        m.step() || {
            report = Some(m.report());
            false
        }
    });
    (report.expect("the last step reports"), wall, scaled)
}

fn rep_of(wall: Duration, scaled_s: f64, report: &RunReport) -> Rep {
    Rep {
        wall,
        scaled_s,
        page_work: page_work(report),
        sim_runtime_s: report.mean_runtime_secs().unwrap_or(0.0),
        sim_disk_sectors: report.disk.get("disk_sectors_read")
            + report.disk.get("disk_sectors_written"),
    }
}

pub struct MachineBench {
    plan: MachinePlan,
    /// The warm-up rep's digest.
    reference: Option<String>,
}

impl MachineBench {
    pub fn new(plan: MachinePlan) -> Self {
        MachineBench { plan, reference: None }
    }

    /// The host invariants hold, no workload was killed, and the
    /// simulated outcome equals the warm-up rep's (the first call sets
    /// the reference).
    fn check(&mut self, audit: Result<(), String>, report: &RunReport, checks: &mut Checks) {
        checks.check(audit.is_ok(), || format!("host audit: {}", audit.unwrap_err()));
        checks.check(report.kill_count() == 0, || {
            format!("{} workload(s) killed", report.kill_count())
        });
        let digest = digest(report);
        match &self.reference {
            Some(reference) => checks.check(*reference == digest, || {
                "simulated outcome differs from the warm-up rep's".to_owned()
            }),
            None => self.reference = Some(digest),
        }
    }
}

impl Bench for MachineBench {
    fn warm_up(&mut self, checks: &mut Checks) -> Result<(), String> {
        let mut m = self.plan.setup(None)?;
        let report = m.run();
        self.check(m.host().audit(), &report, checks);
        Ok(())
    }

    fn rep(&mut self, clock: &mut Clock<'_>, checks: &mut Checks) -> Result<Rep, String> {
        let mut m = self.plan.setup(None)?;
        let (report, wall, scaled) = timed_run(&mut m, clock);
        self.check(m.host().audit(), &report, checks);
        Ok(rep_of(wall, scaled, &report))
    }

    fn setup_only(&mut self) -> Result<Duration, String> {
        let start = Instant::now();
        let m = self.plan.setup(None)?;
        let setup = start.elapsed();
        drop(m);
        Ok(setup)
    }

    fn traced(
        &mut self,
        tracer: &Tracer,
        clock: &mut Clock<'_>,
        median_s: f64,
        checks: &mut Checks,
    ) -> Result<Traced, String> {
        let mut m = self.plan.setup(Some(tracer))?;
        let (report, _, traced_s) = clock.segment(|| tracer.span(RUN, || m.run()));
        tracer.span(REPORT, || m.report());
        let audit = tracer.span(AUDIT, || m.host().audit());
        self.check(audit, &report, checks);
        drop(m);
        let peel = self.plan.peel(tracer);

        let mut sink = self.plan.setup(None)?;
        let log = sink.attach_event_log(SINK_CAPACITY);
        let (sink_report, _, sink_s) = timed_run(&mut sink, clock);
        self.check(sink.host().audit(), &sink_report, checks);

        let spans = tracer.spans();
        let times = layer_times(&spans);
        let time = |name| times.get(name).copied().unwrap_or_default();
        let secs = |name, d: Duration| Metric::exact(name, "s", d.as_secs_f64());
        let mut metrics = vec![
            secs("vswap-core.machine.new_s", time(NEW).total),
            secs("vswap-core.machine.add_vm_s", time(ADD_VM).total),
            secs("vswap-core.machine.run_s", time(RUN).total),
            secs("vswap-core.machine.run_self_s", time(RUN).self_time),
            secs("vswap-core.machine.report_s", time(REPORT).total),
            secs("vswap-hostos.audit_s", time(AUDIT).total),
        ];

        let mut steps_us = durations_us(&spans, STEP);
        steps_us.sort_by(f64::total_cmp);
        metrics.push(Metric::exact("vswap-workloads.steps", "count", steps_us.len() as f64));
        for (name, q) in
            [("vswap-workloads.step_p50_us", 0.5), ("vswap-workloads.step_p99_us", 0.99)]
        {
            if let Some(v) = tail_percentile(&steps_us, q) {
                metrics.push(Metric::exact(name, "us", v));
            }
        }

        let mut notes = Vec::new();
        match peel {
            Ok(peel) => {
                let guest = time(PEEL).total;
                let bus = time(STEP).total.saturating_sub(guest);
                let per = |d: Duration, n: u64| d.as_secs_f64() * 1e9 / n.max(1) as f64;
                metrics.extend([
                    secs("vswap-guestos.self_s", guest),
                    Metric::exact("vswap-guestos.hw_calls", "count", peel.hw_calls as f64),
                    Metric::exact(
                        "vswap-guestos.ns_per_hw_call",
                        "ns/call",
                        per(guest, peel.hw_calls),
                    ),
                    secs("vswap-core.bus.self_s", bus),
                    Metric::exact(
                        "vswap-core.bus.ns_per_page",
                        "ns/page",
                        per(bus, page_work(&report)),
                    ),
                ]);
                let machine_steps: u64 = report.workloads.iter().map(|w| w.steps).sum();
                let machine_io = report.host.get("virtual_io_requests");
                let exact = peel.steps == machine_steps && peel.disk_requests == machine_io;
                notes.push((
                    "peel",
                    format!(
                        "{}: {} steps vs machine {machine_steps}, {} disk requests vs host \
                         virtual_io_requests {machine_io}",
                        if exact { "exact" } else { "approximate" },
                        peel.steps,
                        peel.disk_requests,
                    ),
                ));
            }
            Err(e) => notes.push(("peel", format!("failed: {e}"))),
        }

        let profile = &report.profile;
        for (name, category) in [
            ("vswap-core.profiler.cpu_sim_s", TimeCategory::Cpu),
            ("vswap-core.profiler.disk_wait_sim_s", TimeCategory::DiskWait),
            ("vswap-core.profiler.fault_sim_s", TimeCategory::FaultHandling),
        ] {
            let total: f64 =
                profile.vms().map(|vm| profile.category(vm, category).as_secs_f64()).sum();
            metrics.push(Metric::exact(name, "sim_s", total));
        }
        metrics.extend(counter_metrics(&counters(&report)));
        metrics.extend([
            Metric::exact("sim-obs.events_emitted", "count", log.emitted() as f64),
            Metric::exact("sim-obs.sink_overhead_s", "s", sink_s - median_s),
            Metric::exact("bench.trace_overhead_s", "s", traced_s - median_s),
        ]);
        Ok(Traced { metrics, notes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> MachinePlan {
        MachinePlan::kernbench(Scale::Smoke, SwapPolicy::Vswapper, 7)
    }

    #[test]
    fn same_seed_reps_give_identical_digests() {
        let run = |plan: &MachinePlan| digest(&plan.setup(None).unwrap().run());
        let plan = smoke();
        let first = run(&plan);
        assert_eq!(first, run(&plan));
        assert_eq!(first, run(&smoke()), "the plan is a pure function of the seed");
        let other = MachinePlan::mapreduce(Scale::Smoke, SwapPolicy::Vswapper, 1, 8);
        assert_ne!(first, run(&other));
    }

    #[test]
    fn a_forced_check_failure_raises_fail_ratio() {
        let mut bench = MachineBench::new(smoke());
        let mut checks = Checks::default();
        bench.warm_up(&mut checks).unwrap();
        assert_eq!((checks.attempted, checks.failed), (2, 0));
        bench.reference = Some("a different outcome".to_owned());
        let probe = crate::probe::Probe::new();
        bench.rep(&mut Clock::new(&probe, 1.0), &mut checks).unwrap();
        assert_eq!((checks.attempted, checks.failed), (5, 1));
        assert_eq!(checks.fail_ratio(), 0.2);
    }

    #[test]
    fn peel_replays_the_machine_run_exactly() {
        for plan in [smoke(), MachinePlan::mapreduce(Scale::Smoke, SwapPolicy::Baseline, 2, 3)] {
            let report = plan.setup(None).unwrap().run();
            assert_eq!(report.kill_count(), 0);
            let peel = plan.peel(&Tracer::new()).unwrap();
            let steps: u64 = report.workloads.iter().map(|w| w.steps).sum();
            assert_eq!(peel.steps, steps);
            assert_eq!(peel.disk_requests, report.host.get("virtual_io_requests"));
            assert!(peel.hw_calls > peel.disk_requests);
        }
    }
}
