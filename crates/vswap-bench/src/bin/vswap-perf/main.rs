//! `vswap-perf` — the repository benchmark. Runs one named workload per
//! process: one untimed warm-up rep, set-up rounds, then timed reps
//! until a fixed wall-clock window (warm-up included) is spent, each
//! checked; prints every metric as
//! `name value unit` and writes a result file. With `--trace 1` it adds
//! one traced rep for the per-layer split. See README.md.

mod bench;
mod compare;
mod machine;
mod metrics;
mod peel;
mod probe;
mod result;
mod stats;
mod suite;
mod trace;

use bench::{Bench, Checks, Clock, Rep};
use metrics::Metric;
use probe::Probe;
use result::{write_file, Env, RunResult};
use stats::Summary;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use vswap_bench::Scale;
use vswap_core::SwapPolicy;

const USAGE: &str = "\
vswap-perf — the VSwapper simulator benchmark

USAGE:
  vswap-perf --workload <NAME> [--seed <N>] [--seconds <S>] [--trace <0|1>] [--out-dir <DIR>]
  vswap-perf compare <A> <B>

  --workload   suite-smoke | kernbench-vswapper | mapreduce4-vswapper | mapreduce4-baseline
  --seed       input seed (default 1592642302, the golden-table seed)
  --seconds    length of the run: warm-up, set-up rounds, timed reps (default 20)
  --trace 1    add a traced rep: per-layer table plus a Chrome trace
  --out-dir    where result and trace files go (default vswap-perf-out)

  compare      verdict per workload and end-to-end metric of result set B
               against A (each a result file or a directory of them);
               exits 1 if any metric is worse
";

/// Set-up is timed in rounds of set-up-only builds, each at least
/// `SETUP_ROUND` long and scaled by the probe readings around it; set-up
/// time is the median over the rounds.
const SETUP_ROUNDS: usize = 11;
const SETUP_ROUND: Duration = Duration::from_millis(10);
const WARM_UP: &str = "one untimed rep before timing, excluded from every statistic";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SuiteSmoke,
    KernbenchVswapper,
    Mapreduce4Vswapper,
    Mapreduce4Baseline,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::SuiteSmoke,
        Workload::KernbenchVswapper,
        Workload::Mapreduce4Vswapper,
        Workload::Mapreduce4Baseline,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::SuiteSmoke => "suite-smoke",
            Workload::KernbenchVswapper => "kernbench-vswapper",
            Workload::Mapreduce4Vswapper => "mapreduce4-vswapper",
            Workload::Mapreduce4Baseline => "mapreduce4-baseline",
        }
    }

    /// How a rep's time grows with the probe's slowdown: a rep is
    /// scaled by `slowdown^sensitivity`. Fitted on runs' median rep time
    /// against their median probe reading (README.md): about 1 for the
    /// MapReduce workloads, 1.8–2.0 for Kernbench, the smallest working
    /// set. The suite's fit was too loose to depart from 1.
    fn sensitivity(self) -> f64 {
        match self {
            Workload::KernbenchVswapper => 1.9,
            Workload::SuiteSmoke | Workload::Mapreduce4Vswapper | Workload::Mapreduce4Baseline => {
                1.0
            }
        }
    }

    fn bench(self, seed: u64) -> Box<dyn Bench> {
        use machine::{MachineBench, MachinePlan};
        let paper = Scale::Paper;
        match self {
            Workload::SuiteSmoke => Box::new(suite::SuiteBench::new(seed)),
            Workload::KernbenchVswapper => Box::new(MachineBench::new(MachinePlan::kernbench(
                paper,
                SwapPolicy::Vswapper,
                seed,
            ))),
            Workload::Mapreduce4Vswapper => Box::new(MachineBench::new(MachinePlan::mapreduce(
                paper,
                SwapPolicy::Vswapper,
                4,
                seed,
            ))),
            Workload::Mapreduce4Baseline => Box::new(MachineBench::new(MachinePlan::mapreduce(
                paper,
                SwapPolicy::Baseline,
                4,
                seed,
            ))),
        }
    }
}

#[derive(Debug, Clone)]
struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut parsed = RunArgs {
        workload: Workload::SuiteSmoke,
        seed: vswap_bench::suite::DEFAULT_SEED,
        seconds: 20,
        trace: false,
        out_dir: PathBuf::from("vswap-perf-out"),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                parsed.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds =
                    value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=3600).contains(&parsed.seconds) {
                    return Err("--seconds must be between 1 and 3600".to_owned());
                }
            }
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out-dir" => parsed.out_dir = PathBuf::from(value("--out-dir")?),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

fn summary(samples: impl IntoIterator<Item = f64>) -> Summary {
    let samples: Vec<f64> = samples.into_iter().collect();
    Summary::of(&samples).expect("at least one sample")
}

/// The context of the scaled timings: each rep's unscaled wall-clock,
/// and the factor it was divided by.
fn info_metrics(reps: &[Rep]) -> Vec<Metric> {
    let metric = |name: &str, unit, samples: Vec<f64>| Metric {
        name: name.into(),
        unit,
        summary: summary(samples),
    };
    let unscaled = |r: &Rep| r.wall.as_secs_f64();
    vec![
        metric("bench.slowdown", "ratio", reps.iter().map(|r| unscaled(r) / r.scaled_s).collect()),
        metric("bench.wall_unscaled_s", "s", reps.iter().map(unscaled).collect()),
    ]
}

fn run(args: &RunArgs) -> Result<RunResult, String> {
    let env = Env::capture();
    let mut bench = args.workload.bench(args.seed);
    let mut checks = Checks::default();

    // The window holds the whole run: warm-up, set-up rounds, timed reps.
    let start = Instant::now();
    bench.warm_up(&mut checks)?;
    let cold_rep_s = start.elapsed().as_secs_f64();
    // The footprint of one run, as a user running the workload once sees
    // it. Later reps reuse freed heap in allocation-order-dependent ways
    // that swing the process high-water mark by up to 2x between runs.
    let peak_rss_mb = result::peak_rss_mb()?;

    let probe = Probe::new();
    let mut clock = Clock::new(&probe, args.workload.sensitivity());
    let mut setups = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        let (round, mut total, mut n) = (Instant::now(), Duration::ZERO, 0u32);
        while n == 0 || round.elapsed() < SETUP_ROUND {
            total += bench.setup_only()?;
            n += 1;
        }
        setups.push(total.as_secs_f64() / f64::from(n) / clock.bracket());
    }

    // A rep starts only if one more of the typical length, probe
    // readings and check included, still ends inside the window. The
    // first always runs: on a busy host a MapReduce warm-up and rep take
    // 9 s each, so a forced second rep would run the whole past 28 s.
    let window = Duration::from_secs(args.seconds);
    let mut reps = Vec::new();
    let mut rep_lengths = Vec::new();
    loop {
        let rep_start = Instant::now();
        reps.push(bench.rep(&mut clock, &mut checks)?);
        rep_lengths.push(rep_start.elapsed().as_secs_f64());
        let typical = Duration::from_secs_f64(summary(rep_lengths.iter().copied()).median);
        if start.elapsed() + typical > window {
            break;
        }
    }

    let wall = summary(reps.iter().map(|r| r.scaled_s));
    let last = reps.last().expect("at least one rep");
    let mut end_to_end = vec![
        Metric::end_to_end("setup_s", summary(setups)),
        Metric::end_to_end("wall_s", wall),
        Metric::end_to_end(
            "pages_per_s",
            summary(reps.iter().map(|r| r.page_work as f64 / r.scaled_s)),
        ),
        Metric::end_to_end("peak_rss_mb", Summary::exact(peak_rss_mb)),
        Metric::end_to_end("sim_runtime_s", Summary::exact(last.sim_runtime_s)),
        Metric::end_to_end("sim_disk_sectors", Summary::exact(last.sim_disk_sectors as f64)),
    ];
    let info = info_metrics(&reps);

    let (mut layers, mut notes) = (Vec::new(), Vec::new());
    if args.trace {
        let tracer = trace::Tracer::new();
        let traced = bench.traced(&tracer, &mut clock, wall.median, &mut checks)?;
        write_file(
            &file_stem(args).with_extension("trace.json"),
            &trace::chrome_trace(&tracer.spans()),
        )?;
        layers = traced.metrics;
        notes = traced.notes;
    }
    end_to_end.push(Metric::end_to_end("pass_ratio", Summary::exact(1.0 - checks.fail_ratio())));

    Ok(RunResult {
        workload: args.workload.name(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        env,
        warm_up: WARM_UP,
        cold_rep_s,
        k: reps.len(),
        attempted: checks.attempted,
        failed: checks.failed,
        end_to_end,
        info,
        layers,
        notes,
    })
}

/// `<out-dir>/<workload>-seed<seed>[-traced]`, the result file's path
/// without its extension.
fn file_stem(args: &RunArgs) -> PathBuf {
    let traced = if args.trace { "-traced" } else { "" };
    args.out_dir.join(format!("{}-seed{}{traced}", args.workload.name(), args.seed))
}

fn print_result(r: &RunResult) {
    println!(
        "vswap-perf {} seed {} on {} CPU(s), {}; kernel {}; rev {}",
        r.workload,
        r.seed,
        r.env.available_parallelism,
        r.env.cpu_model,
        r.env.kernel,
        r.env.git_rev
    );
    println!("warm-up: {} (took {:.3} s)", r.warm_up, r.cold_rep_s);
    println!("timed reps: {} (window {} s); set-up rounds: {SETUP_ROUNDS}", r.k, r.seconds);
    println!("checks: {} attempted, {} failed", r.attempted, r.failed);
    for m in r.end_to_end.iter().chain(&r.info) {
        println!("{}", result::metric_line(m));
    }
    if r.traced {
        println!("per-layer metrics of the traced rep:");
        for m in &r.layers {
            println!("{}", result::metric_line(m));
        }
        for (key, note) in &r.notes {
            println!("{key}: {note}");
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [a, b] = &args[1..] else {
            eprint!("compare needs two result sets\n\n{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::compare(Path::new(a), Path::new(b)) {
            Ok((table, any_worse)) => {
                print!("{table}");
                ExitCode::from(u8::from(any_worse))
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let run_args = match parse_run_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprint!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&run_args).and_then(|r| {
        print_result(&r);
        write_file(&file_stem(&run_args).with_extension("jsonl"), &r.to_jsonl())?;
        println!("{}", r.summary_json()?);
        Ok(r.failed == 0)
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::{MachineBench, MachinePlan};
    use metrics::{Better, END_TO_END, PER_LAYER};

    #[test]
    fn every_metric_name_is_well_formed_and_has_a_unit() {
        let mut bench =
            MachineBench::new(MachinePlan::kernbench(Scale::Smoke, SwapPolicy::Vswapper, 1));
        let mut checks = Checks::default();
        bench.warm_up(&mut checks).unwrap();
        let probe = Probe::new();
        let mut clock = Clock::new(&probe, 1.0);
        let rep = bench.rep(&mut clock, &mut checks).unwrap();
        let traced = bench.traced(&trace::Tracer::new(), &mut clock, 0.0, &mut checks).unwrap();
        assert_eq!(checks.failed, 0);
        for (name, unit) in PER_LAYER {
            assert!(
                traced.metrics.iter().any(|m| m.name == name && m.unit == unit),
                "{name} [{unit}] not measured"
            );
        }
        let mut all = traced.metrics;
        all.extend(END_TO_END.iter().map(|m| Metric::exact(m.name, m.unit, 1.0)));
        all.extend(info_metrics(&[rep]));
        all.extend(
            vswap_bench::suite_experiments()
                .iter()
                .map(|e| suite::busy_metric(e.id, Duration::ZERO)),
        );
        for m in &all {
            let line = result::metric_line(m);
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(fields.len(), 3, "{line}");
            let name_ok = fields[0].chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            assert!(name_ok && fields[0] == m.name, "{line}");
            assert!(!m.unit.is_empty() && fields[2] == m.unit, "{line}");
        }
    }

    #[test]
    fn benchmark_json_declares_what_the_program_measures() {
        let json = include_str!("../../../../../BENCHMARK.json");
        for w in Workload::ALL {
            assert!(
                json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())),
                "{}",
                w.name()
            );
        }
        for m in &END_TO_END {
            let better = match m.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            let decl = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            );
            assert!(json.contains(&decl), "{decl}");
        }
        for (name, unit) in PER_LAYER {
            let decl = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(json.contains(&decl), "{decl}");
        }
        let declared = json.matches("{\"name\": ").count();
        assert_eq!(declared, Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn run_args_parse_and_reject_bad_input() {
        let parse =
            |a: &[&str]| parse_run_args(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let a =
            parse(&["--workload", "mapreduce4-baseline", "--seed", "3", "--trace", "1"]).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Mapreduce4Baseline, 3, 20, true)
        );
        assert!(parse(&[]).is_err(), "the workload is required");
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "suite-smoke", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "suite-smoke", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "suite-smoke", "--seed"]).is_err(), "missing value");
    }
}
