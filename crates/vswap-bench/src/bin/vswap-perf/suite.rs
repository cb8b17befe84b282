//! The smoke suite: all 21 experiments through `run_suite` on one
//! worker, the only workload where hundreds of machine builds, aging,
//! the cluster scheduler and fault plans carry real weight.

use crate::bench::{Bench, Checks, Clock, Rep, Traced};
use crate::metrics::{counter_metrics, Counters, Metric};
use crate::trace::{layer_times, Tracer};
use sim_obs::MetricsRegistry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use vswap_bench::suite::{events_emitted, pages_simulated, render_experiment, DEFAULT_SEED};
use vswap_bench::table::Cell;
use vswap_bench::{golden, run_suite, suite_experiments, ExperimentPlan, Scale, SuiteOptions};
use vswap_bench::{SuiteResult, Table};

const PLANS: &str = "vswap-bench.plans";
const RUN_SUITE: &str = "vswap-bench.run_suite";
const GOLDEN: &str = "vswap-bench.golden.verify";

/// What every pass at one seed must reproduce byte for byte.
struct Reference {
    renderings: Vec<String>,
    metrics: String,
}

impl Reference {
    fn of(result: &SuiteResult) -> Reference {
        Reference { renderings: renderings(result), metrics: result.metrics.to_string() }
    }

    fn check(&self, result: &SuiteResult, checks: &mut Checks) {
        for (exp, (want, got)) in
            result.experiments.iter().zip(self.renderings.iter().zip(renderings(result)))
        {
            checks.check(*want == got, || format!("{} rendering differs between passes", exp.id));
        }
        checks.check(self.metrics == result.metrics.to_string(), || {
            "merged suite metrics differ between passes".to_owned()
        });
    }
}

fn renderings(result: &SuiteResult) -> Vec<String> {
    result.experiments.iter().map(|e| render_experiment(e.id, e.title, &e.tables)).collect()
}

fn build_plans() -> Vec<ExperimentPlan> {
    suite_experiments().iter().map(|e| (e.plan)(Scale::Smoke)).collect()
}

/// Report counters summed over every run report the suite's units
/// absorbed into its merged metrics (`<unit scope>/host/<counter>`, ...).
pub fn counters(result: &SuiteResult) -> Counters {
    let mut c = Counters::new();
    for (key, value) in result.metrics.flatten().iter() {
        let Some((scope, name)) = key.rsplit_once('/') else { continue };
        let group = scope.rsplit('/').next().unwrap_or(scope);
        if ["host", "disk", "mapper", "preventer"].contains(&group) {
            *c.entry(format!("{group}/{name}")).or_default() += value;
        }
    }
    c
}

/// The suite's simulated runtime figure: the mean of Figure 4's
/// measured completion times (phased MapReduce guests under the four
/// configurations), the paper's headline runtime result.
fn figure4_mean_runtime(result: &SuiteResult) -> Option<f64> {
    let table: &Table = result.experiments.iter().find(|e| e.id == "fig04")?.tables.first()?;
    let col = table.columns().iter().position(|c| c == "measured [s]")?;
    let values: Vec<f64> = table
        .rows()
        .iter()
        .filter_map(|r| match r.get(col) {
            Some(Cell::Float(v)) => Some(*v),
            _ => None,
        })
        .collect();
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Serial-equivalent time the suite spent in one experiment's units.
pub fn busy_metric(id: &str, busy: Duration) -> Metric {
    Metric::exact(format!("vswap-bench.suite.busy_s.{id}"), "s", busy.as_secs_f64())
}

pub struct SuiteBench {
    seed: u64,
    reference: Option<Reference>,
}

impl SuiteBench {
    pub fn new(seed: u64) -> Self {
        SuiteBench { seed, reference: None }
    }

    fn options(seed: u64) -> SuiteOptions {
        SuiteOptions::new(Scale::Smoke).with_jobs(1).with_seed(seed)
    }

    /// Runs the whole suite, one `run_suite` call per experiment in
    /// registry order, and merges the calls' results. Unit seeds are
    /// forks of the seed by unit label, so the merge equals one call
    /// over all 21; but each call is its own timed segment, bracketed by
    /// probe readings, because a pass is longer than the spells of
    /// contention the probe must follow. With a tracer each call is a
    /// span too.
    fn pass(
        &self,
        seed: u64,
        mut clock: Option<&mut Clock<'_>>,
        tracer: Option<&Tracer>,
        checks: &mut Checks,
    ) -> Result<(Rep, SuiteResult), String> {
        let mut result = SuiteResult {
            experiments: Vec::new(),
            metrics: MetricsRegistry::new(),
            wall: Duration::ZERO,
            jobs: 1,
        };
        let mut scaled_s = 0.0;
        for exp in suite_experiments() {
            let options = Self::options(seed).with_only(vec![exp.id.to_owned()]);
            let call = || {
                catch_unwind(AssertUnwindSafe(|| match tracer {
                    Some(t) => t.span(RUN_SUITE, || run_suite(&options)),
                    None => run_suite(&options),
                }))
            };
            let (one, wall, scaled) = match clock.as_deref_mut() {
                Some(clock) => clock.segment(call),
                None => {
                    let start = Instant::now();
                    let one = call();
                    let wall = start.elapsed();
                    (one, wall, wall.as_secs_f64())
                }
            };
            let Ok(one) = one else {
                checks.check(false, || format!("a unit of {} panicked", exp.id));
                return Err("a suite unit panicked".to_owned());
            };
            result.wall += wall;
            scaled_s += scaled;
            result.metrics.merge_from(&one.metrics);
            result.experiments.extend(one.experiments);
        }
        checks.check(true, || "no unit panicked".to_owned());
        let c = counters(&result);
        let rep = Rep {
            wall: result.wall,
            scaled_s,
            page_work: pages_simulated(&result.metrics),
            sim_runtime_s: figure4_mean_runtime(&result).ok_or("no Figure 4 runtimes")?,
            sim_disk_sectors: c.get("disk/disk_sectors_read").copied().unwrap_or(0)
                + c.get("disk/disk_sectors_written").copied().unwrap_or(0),
        };
        Ok((rep, result))
    }

    /// Compares a pass with the reference, or makes it the reference.
    fn check(&mut self, result: &SuiteResult, checks: &mut Checks) {
        match &self.reference {
            Some(reference) => reference.check(result, checks),
            None => self.reference = Some(Reference::of(result)),
        }
    }
}

impl Bench for SuiteBench {
    /// Runs at the default seed, whatever the benchmark seed, so every
    /// run checks all 21 experiments against the golden corpus.
    fn warm_up(&mut self, checks: &mut Checks) -> Result<(), String> {
        let (_, result) = self.pass(DEFAULT_SEED, None, None, checks)?;
        let drifts = golden::verify(&result.experiments);
        for exp in &result.experiments {
            let drift = drifts.iter().find(|d| d.id == exp.id);
            checks.check(drift.is_none(), || format!("golden table drifted: {}", drift.unwrap()));
        }
        if self.seed == DEFAULT_SEED {
            self.reference = Some(Reference::of(&result));
        }
        Ok(())
    }

    fn rep(&mut self, clock: &mut Clock<'_>, checks: &mut Checks) -> Result<Rep, String> {
        let (rep, result) = self.pass(self.seed, Some(clock), None, checks)?;
        self.check(&result, checks);
        Ok(rep)
    }

    fn setup_only(&mut self) -> Result<Duration, String> {
        let start = Instant::now();
        drop(build_plans());
        Ok(start.elapsed())
    }

    fn traced(
        &mut self,
        tracer: &Tracer,
        clock: &mut Clock<'_>,
        median_s: f64,
        checks: &mut Checks,
    ) -> Result<Traced, String> {
        drop(tracer.span(PLANS, build_plans));
        let (rep, result) = self.pass(self.seed, Some(clock), Some(tracer), checks)?;
        // The drift list only matters at the default seed, where the
        // reference pass already holds the golden renderings.
        tracer.span(GOLDEN, || golden::verify(&result.experiments));
        self.check(&result, checks);

        let times = layer_times(&tracer.spans());
        let time = |name| times.get(name).copied().unwrap_or_default().total;
        let secs = |name: &str, d: Duration| Metric::exact(name, "s", d.as_secs_f64());
        let busy: Duration = result.experiments.iter().map(|e| e.busy).sum();
        let mut metrics: Vec<Metric> =
            result.experiments.iter().map(|e| busy_metric(e.id, e.busy)).collect();
        metrics.extend([
            secs("vswap-bench.suite.overhead_s", time(RUN_SUITE).saturating_sub(busy)),
            secs("vswap-bench.plans_s", time(PLANS)),
            secs("vswap-bench.golden.verify_s", time(GOLDEN)),
        ]);
        metrics.extend(counter_metrics(&counters(&result)));
        metrics.extend([
            Metric::exact(
                "sim-obs.events_emitted",
                "count",
                events_emitted(&result.metrics) as f64,
            ),
            Metric::exact("bench.trace_overhead_s", "s", rep.scaled_s - median_s),
        ]);
        Ok(Traced { metrics, notes: Vec::new() })
    }
}
