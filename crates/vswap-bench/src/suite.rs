//! Deterministic parallel execution of the experiment suite.
//!
//! The experiments decompose into independent *units* — one simulation
//! apiece: a `(policy, memory)` sweep point, one multi-guest
//! consolidation run, one migration scenario. [`run_suite`] fans those
//! units across a worker pool and reassembles each experiment's tables
//! in declaration order, so the output is **bitwise identical** for
//! every worker count, including 1.
//!
//! Three properties make that guarantee hold:
//!
//! 1. **Seed splitting.** Every unit draws randomness from a stream
//!    forked off the root seed by the unit's stable label
//!    ([`sim_core::DeterministicRng::fork_labeled`]), never from a shared
//!    mutable generator — scheduling order cannot perturb any stream.
//! 2. **Per-task sinks.** Each unit gets a private
//!    [`MetricsRegistry`] and event-log sink ([`TaskCtx`]); nothing is
//!    written to shared observability state while workers run.
//! 3. **Ordered merge.** Unit outputs are placed into pre-assigned slots
//!    and merged (tables assembled, metrics folded) in unit order after
//!    all workers finish, never in completion order.

use crate::experiments::Scale;
use crate::table::{Cell, Table};
use sim_core::DeterministicRng;
use sim_obs::{EventLog, MetricsRegistry};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use vswap_core::{Machine, MachineConfig, RunReport, SwapPolicy};
use vswap_hostos::HostSpec;

/// The suite's default root seed (the same default the `vswap` CLI
/// uses); golden tables are generated under this seed.
pub const DEFAULT_SEED: u64 = 0x5eed_cafe;

/// Ring capacity of each unit's event-log sink: big enough to profile a
/// smoke-scale run, bounded so a hundred parallel tasks stay cheap.
const TASK_EVENT_CAPACITY: usize = 1 << 14;

/// Per-task execution context: a private RNG stream split off the root
/// seed by the task's label, plus private observability sinks.
///
/// Units must draw all their randomness from [`TaskCtx::rng`] (usually
/// via [`TaskCtx::seed`]) and report all their telemetry through
/// [`TaskCtx::metrics`] — that is what makes them schedulable in any
/// order on any number of workers without changing a single byte of
/// output.
pub struct TaskCtx {
    /// The task's private random stream (`root.fork_labeled(label)`).
    pub rng: DeterministicRng,
    /// The task's private metrics sink, merged suite-wide in task order.
    pub metrics: MetricsRegistry,
    logs: Vec<(String, EventLog)>,
}

impl TaskCtx {
    fn for_label(root: &DeterministicRng, label: &str) -> Self {
        TaskCtx { rng: root.fork_labeled(label), metrics: MetricsRegistry::new(), logs: Vec::new() }
    }

    /// A free-standing context (for tests, benches, and exploratory
    /// calls into experiment helpers): the stream is forked from `seed`
    /// by `label`, and the sinks are private throwaways.
    pub fn standalone(seed: u64, label: &str) -> Self {
        TaskCtx::for_label(&DeterministicRng::seed_from(seed), label)
    }

    /// Draws a machine seed from the task's stream.
    pub fn seed(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Builds a machine for `policy` over `host`, seeded from the task's
    /// stream and instrumented with a private event-log sink whose kind
    /// counts land in the task metrics under `events/<scope>`.
    ///
    /// # Panics
    ///
    /// Panics if the host spec is inconsistent (a bug in the experiment).
    pub fn machine(&mut self, scope: &str, policy: SwapPolicy, host: HostSpec) -> Machine {
        let cfg = MachineConfig::preset(policy).with_host(host).with_seed(self.seed());
        self.instrumented(scope, cfg)
    }

    /// Like [`TaskCtx::machine`] but from an explicit configuration
    /// (whose seed is still replaced by the task's stream).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent.
    pub fn instrumented(&mut self, scope: &str, cfg: MachineConfig) -> Machine {
        let mut m = Machine::new(cfg.with_seed(self.seed())).expect("valid experiment host");
        self.logs.push((scope.to_owned(), m.attach_event_log(TASK_EVENT_CAPACITY)));
        m
    }

    /// Records a finished run's counter snapshots into the task metrics
    /// under `scope` (`<scope>/host`, `<scope>/disk`, ...).
    pub fn absorb_report(&mut self, scope: &str, report: &RunReport) {
        for (group, stats) in report.counter_groups() {
            self.metrics.absorb_stat_set(&format!("{scope}/{group}"), stats);
        }
    }

    /// Folds the attached event logs into the metrics and returns the
    /// task's merged sink.
    fn finish(mut self) -> MetricsRegistry {
        for (scope, log) in self.logs.drain(..) {
            let events = format!("events/{scope}");
            self.metrics.counter_set(&events, "emitted", log.emitted());
            self.metrics.counter_set(&events, "dropped", log.dropped());
            for (kind, count) in log.kind_histogram() {
                self.metrics.counter_set(&events, kind, count);
            }
        }
        self.metrics
    }
}

/// What one unit produced for its experiment's `assemble` step.
#[derive(Debug, Clone)]
pub enum UnitOut {
    /// Complete tables (single-unit experiments).
    Tables(Vec<Table>),
    /// Cells for the experiment to place into its tables (sweep points).
    Cells(Vec<Cell>),
    /// A single scalar (per-configuration means).
    Value(f64),
}

impl UnitOut {
    /// Unwraps [`UnitOut::Tables`].
    ///
    /// # Panics
    ///
    /// Panics if the unit produced something else (an experiment bug).
    pub fn into_tables(self) -> Vec<Table> {
        match self {
            UnitOut::Tables(t) => t,
            other => panic!("expected Tables, unit produced {other:?}"),
        }
    }

    /// Unwraps [`UnitOut::Cells`].
    ///
    /// # Panics
    ///
    /// Panics if the unit produced something else (an experiment bug).
    pub fn into_cells(self) -> Vec<Cell> {
        match self {
            UnitOut::Cells(c) => c,
            other => panic!("expected Cells, unit produced {other:?}"),
        }
    }

    /// Unwraps [`UnitOut::Value`].
    ///
    /// # Panics
    ///
    /// Panics if the unit produced something else (an experiment bug).
    pub fn into_value(self) -> f64 {
        match self {
            UnitOut::Value(v) => v,
            other => panic!("expected Value, unit produced {other:?}"),
        }
    }
}

/// One independently schedulable simulation.
pub struct Unit {
    label: String,
    run: Box<dyn FnOnce(&mut TaskCtx) -> UnitOut + Send>,
}

impl Unit {
    /// Creates a unit. The label must be unique within its experiment —
    /// it names the unit's RNG stream and its metrics namespace.
    pub fn new(
        label: impl Into<String>,
        run: impl FnOnce(&mut TaskCtx) -> UnitOut + Send + 'static,
    ) -> Self {
        Unit { label: label.into(), run: Box::new(run) }
    }

    /// The unit's label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// An experiment decomposed into parallel units plus the ordered
/// reassembly of their outputs into the experiment's tables.
pub struct ExperimentPlan {
    units: Vec<Unit>,
    assemble: Box<dyn FnOnce(Vec<UnitOut>) -> Vec<Table> + Send>,
}

impl ExperimentPlan {
    /// Creates a plan from units and an assembly step that receives the
    /// unit outputs *in declaration order*, regardless of scheduling.
    ///
    /// # Panics
    ///
    /// Panics if two units share a label (their RNG streams would
    /// coincide).
    pub fn new(
        units: Vec<Unit>,
        assemble: impl FnOnce(Vec<UnitOut>) -> Vec<Table> + Send + 'static,
    ) -> Self {
        let mut seen = std::collections::BTreeSet::new();
        for u in &units {
            assert!(seen.insert(u.label.clone()), "duplicate unit label `{}`", u.label);
        }
        ExperimentPlan { units, assemble: Box::new(assemble) }
    }

    /// A single-unit plan for experiments that are one indivisible
    /// simulation (or that are cheap enough not to split).
    pub fn whole(
        label: impl Into<String>,
        run: impl FnOnce(&mut TaskCtx) -> Vec<Table> + Send + 'static,
    ) -> Self {
        ExperimentPlan::new(vec![Unit::new(label, |ctx| UnitOut::Tables(run(ctx)))], |mut outs| {
            outs.remove(0).into_tables()
        })
    }
}

/// Runs one unit with its own context and sinks.
fn execute_unit(
    root: &DeterministicRng,
    qualified_label: &str,
    unit: Unit,
) -> (UnitOut, MetricsRegistry, Duration) {
    let mut ctx = TaskCtx::for_label(root, qualified_label);
    let begin = Instant::now();
    let out = (unit.run)(&mut ctx);
    let wall = begin.elapsed();
    (out, ctx.finish(), wall)
}

/// What to run and how wide.
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// Experiment scale.
    pub scale: Scale,
    /// Worker count; `0` means the machine's available parallelism.
    pub jobs: usize,
    /// Root seed; unit streams are labeled forks of it.
    pub seed: u64,
    /// Restrict to these experiment ids (empty = all).
    pub only: Vec<String>,
}

impl SuiteOptions {
    /// The full suite at `scale` with default seed and auto-sized pool.
    pub fn new(scale: Scale) -> Self {
        SuiteOptions { scale, jobs: 0, seed: DEFAULT_SEED, only: Vec::new() }
    }

    /// Overrides the worker count (builder style).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Overrides the root seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Restricts the run to the given experiment ids (builder style).
    #[must_use]
    pub fn with_only(mut self, only: Vec<String>) -> Self {
        self.only = only;
        self
    }
}

/// Resolves `jobs == 0` to the machine's available parallelism.
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs > 0 {
        jobs
    } else {
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
    }
}

/// One experiment's reassembled output.
pub struct ExperimentResult {
    /// Experiment id (`fig03`, ..., `ablate`).
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// The tables, identical for every worker count.
    pub tables: Vec<Table>,
    /// Number of units the experiment split into.
    pub unit_count: usize,
    /// Sum of the units' wall-clock times (serial-equivalent cost).
    pub busy: Duration,
}

/// The whole suite's output.
pub struct SuiteResult {
    /// Per-experiment results in registry order.
    pub experiments: Vec<ExperimentResult>,
    /// Every task's metrics, merged in task order under
    /// `<experiment>/<unit>/...` scopes.
    pub metrics: MetricsRegistry,
    /// End-to-end wall-clock time of the suite run.
    pub wall: Duration,
    /// Worker count actually used.
    pub jobs: usize,
}

/// Host counters that each represent one page of simulated paging work.
/// Their sum is the suite's deterministic "pages simulated" figure: it
/// depends only on the seed and scale (the merged metrics are verified
/// byte-identical across worker counts), so pages/sec trajectories in
/// `BENCH_*.json` are comparable across PRs.
const PAGE_WORK_COUNTERS: &[&str] = &[
    "guest_major_faults",
    "guest_minor_faults",
    "host_context_faults",
    "swap_ins",
    "swap_outs",
    "named_refaults",
    "named_discards",
    "zero_fills",
    "pages_scanned",
];

/// Sums the page-granularity host work recorded in `metrics` — the
/// denominator-independent workload size behind pages-simulated/sec.
pub fn pages_simulated(metrics: &MetricsRegistry) -> u64 {
    let flat = metrics.flatten();
    let mut total = 0u64;
    for (key, value) in flat.iter() {
        if let Some((scope, name)) = key.rsplit_once('/') {
            if scope.ends_with("/host") && PAGE_WORK_COUNTERS.contains(&name) {
                total += value;
            }
        }
    }
    total
}

/// Total structured events emitted across every unit's sink (buffered +
/// evicted) — observability volume, tracked alongside pages/sec.
pub fn events_emitted(metrics: &MetricsRegistry) -> u64 {
    let flat = metrics.flatten();
    let mut total = 0u64;
    for (key, value) in flat.iter() {
        if let Some((scope, name)) = key.rsplit_once('/') {
            if name == "emitted" && scope.contains("/events/") {
                total += value;
            }
        }
    }
    total
}

impl SuiteResult {
    /// Renders every experiment the way `vswap figures` prints them and
    /// the golden corpus stores them.
    pub fn rendered(&self) -> String {
        let mut out = String::new();
        for exp in &self.experiments {
            out.push_str(&render_experiment(exp.id, exp.title, &exp.tables));
        }
        out
    }
}

/// Renders one experiment's header and tables — the canonical textual
/// form shared by `vswap figures` and the golden table corpus (so
/// golden diffs point at real output lines).
pub fn render_experiment(id: &str, title: &str, tables: &[Table]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# {title}  [{id}]");
    for t in tables {
        let _ = writeln!(out, "{t}");
    }
    out
}

struct Slot {
    experiment: usize,
    label: String,
    unit: Mutex<Option<Unit>>,
    result: Mutex<Option<(UnitOut, MetricsRegistry, Duration)>>,
}

/// Runs the selected experiments' units across `opts.jobs` workers.
///
/// Output is bitwise identical for every worker count — see the module
/// docs for why.
///
/// # Panics
///
/// Panics if `opts.only` names an unknown experiment id, or if an
/// experiment unit itself panics (simulation invariant violations
/// surface rather than being swallowed).
pub fn run_suite(opts: &SuiteOptions) -> SuiteResult {
    let jobs = effective_jobs(opts.jobs);
    let registry = crate::suite_experiments();
    for id in &opts.only {
        assert!(
            registry.iter().any(|e| e.id == id),
            "unknown experiment id `{id}`; `vswap list` lists them"
        );
    }
    let selected: Vec<_> = registry
        .into_iter()
        .filter(|e| opts.only.is_empty() || opts.only.iter().any(|w| w == e.id))
        .collect();

    let begin = Instant::now();
    let root = DeterministicRng::seed_from(opts.seed);

    // Build every plan up front; planning is cheap, simulating is not.
    let mut assembles = Vec::with_capacity(selected.len());
    let mut slots: Vec<Slot> = Vec::new();
    for (exp_index, exp) in selected.iter().enumerate() {
        let plan = (exp.plan)(opts.scale);
        for unit in plan.units {
            slots.push(Slot {
                experiment: exp_index,
                label: format!("{}/{}", exp.id, unit.label),
                unit: Mutex::new(Some(unit)),
                result: Mutex::new(None),
            });
        }
        assembles.push(plan.assemble);
    }

    // The pool: workers claim the next unclaimed unit until none remain.
    // Results land in the unit's pre-assigned slot, so merge order below
    // is declaration order no matter which worker finished when.
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(slots.len()).max(1) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else { break };
                let unit = slot.unit.lock().expect("unit lock").take().expect("unit claimed once");
                let outcome = execute_unit(&root, &slot.label, unit);
                *slot.result.lock().expect("result lock") = Some(outcome);
            });
        }
    });

    // Deterministic reassembly: unit outputs per experiment in order,
    // metrics folded in global unit order.
    let mut metrics = MetricsRegistry::new();
    let mut per_exp: Vec<(Vec<UnitOut>, Duration)> =
        selected.iter().map(|_| (Vec::new(), Duration::ZERO)).collect();
    for slot in slots {
        let (out, task_metrics, unit_wall) =
            slot.result.into_inner().expect("result lock").expect("every unit ran");
        metrics.absorb_namespaced(&slot.label, &task_metrics);
        let (outs, busy) = &mut per_exp[slot.experiment];
        outs.push(out);
        *busy += unit_wall;
    }

    let mut experiments = Vec::with_capacity(selected.len());
    for ((exp, assemble), (outs, busy)) in selected.iter().zip(assembles).zip(per_exp) {
        let unit_count = outs.len();
        experiments.push(ExperimentResult {
            id: exp.id,
            title: exp.title,
            tables: assemble(outs),
            unit_count,
            busy,
        });
    }

    SuiteResult { experiments, metrics, wall: begin.elapsed(), jobs }
}

/// One experiment's smoke-scale tables, run alone on one worker under
/// the default seed: the tables its golden file holds.
#[cfg(test)]
pub(crate) fn smoke_tables(id: &str) -> Vec<Table> {
    let opts = SuiteOptions::new(Scale::Smoke).with_jobs(1).with_only(vec![id.to_owned()]);
    run_suite(&opts).experiments.pop().expect("one experiment selected").tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_plan_is_deterministic() {
        // Most experiments' tables do not change with the root seed;
        // `latency`'s do.
        let rendered = |seed| {
            let opts = SuiteOptions::new(Scale::Smoke)
                .with_jobs(1)
                .with_seed(seed)
                .with_only(vec!["latency".to_owned()]);
            run_suite(&opts).rendered()
        };
        assert_eq!(rendered(7), rendered(7), "a root seed must repeat exactly");
        assert_ne!(rendered(7), rendered(8), "the root seed must matter");
    }

    #[test]
    #[should_panic(expected = "duplicate unit label")]
    fn duplicate_labels_are_rejected() {
        let mk = || Unit::new("same", |_ctx: &mut TaskCtx| UnitOut::Value(0.0));
        let _ = ExperimentPlan::new(vec![mk(), mk()], |_| Vec::new());
    }

    #[test]
    fn unit_out_unwrap_helpers() {
        assert_eq!(UnitOut::Value(2.0).into_value(), 2.0);
        assert_eq!(UnitOut::Cells(vec![Cell::Int(1)]).into_cells(), vec![Cell::Int(1)]);
        assert!(UnitOut::Tables(Vec::new()).into_tables().is_empty());
    }

    #[test]
    #[should_panic(expected = "expected Value")]
    fn unit_out_mismatch_panics() {
        let _ = UnitOut::Tables(Vec::new()).into_value();
    }

    #[test]
    fn effective_jobs_resolves_zero() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
    }

    #[test]
    #[should_panic(expected = "unknown experiment id")]
    fn unknown_filter_id_panics() {
        let opts = SuiteOptions::new(Scale::Smoke).with_only(vec!["not-an-experiment".to_owned()]);
        let _ = run_suite(&opts);
    }
}
