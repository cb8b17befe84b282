//! `vswap` — a scriptable driver for the VSwapper simulation.
//!
//! ```text
//! vswap run --workload sysbench --policy vswapper --mem 512 --actual 100
//! vswap run --workload mapreduce --policy baseline --guests 4 --gap-secs 10
//! vswap migrate --policy vswapper --mem 512 --actual 256
//! vswap pathology --mem 512 --actual 100
//! vswap list
//! ```
//!
//! Every command prints a human-readable report; add `--json` for a
//! machine-readable one.

use sim_core::{SimDuration, SimTime};
use sim_obs::{export, TraceFormat};
use std::fmt::Write as _;
use std::process::ExitCode;
use vswap_bench::{suite, Scale};
use vswap_core::{
    ClusterFaultProfile, FaultProfile, LiveMigration, Machine, MachineConfig, MigrationConfig,
    PathologyBreakdown, RunReport, SwapPolicy, VmHandle,
};
use vswap_disk::DiskSpec;
use vswap_guestos::{GuestProgram, GuestSpec};
use vswap_hypervisor::{BalloonPolicy, VmSpec};
use vswap_mem::MemBytes;
use vswap_workloads::alloctouch::{AccessMode, AllocStream};
use vswap_workloads::eclipse::Eclipse;
use vswap_workloads::kernbench::Kernbench;
use vswap_workloads::mapreduce::MapReduce;
use vswap_workloads::pbzip2::Pbzip2;
use vswap_workloads::{AgeGuest, SharedFile, SysbenchPrepare, SysbenchRead};

const USAGE: &str = "\
vswap — drive the VSwapper simulation

USAGE:
  vswap run [OPTIONS]            run a workload and report
  vswap trace [OPTIONS]          run a workload and summarize its event trace
  vswap analyze <TRACE> [--top K]  critical-path report from a JSONL trace file
  vswap migrate [OPTIONS]        live-migrate a warmed guest and report
  vswap cluster [OPTIONS]        run a multi-host fleet under the overcommit scheduler
  vswap pathology [OPTIONS]      run the five-pathology demonstration
  vswap figures [SUITE] [ID..]   regenerate the paper's tables (stdout; timings on stderr)
  vswap verify-tables [SUITE] [ID..]  re-run the smoke suite (or just the named
                                 experiments) and diff against the golden corpus
  vswap list                     list workloads, policies, and experiments

SUITE OPTIONS (figures / verify-tables; each rejects the other's):
  --jobs <N>          (both) worker threads (default 0 = all cores); output
                      is bitwise identical for every worker count
  --smoke             (`figures` only) reduced ~16x scale; `verify-tables`
                      is always smoke scale — that is what the corpus holds
  --seed <N>          (`figures` only) suite root seed; the corpus is
                      generated under the default seed
  --bless             (`verify-tables` only) rewrite crates/vswap-bench/golden/
                      from this run instead of diffing
  --bench-out <PATH>  (`verify-tables` only) write a serial-vs-parallel
                      timing report as JSON
  --dump-dir <DIR>    (`verify-tables` only) write each experiment's fresh
                      rendering to DIR/<id>.md and the checked-in
                      expected rendering to DIR/<id>.expected.md (CI
                      keeps the pair as a diffable artifact when the
                      golden diff fails)

OPTIONS (run / trace / migrate / pathology):
  --workload <NAME>   sysbench | pbzip2 | kernbench | eclipse | mapreduce | alloc
                      (default sysbench; `run`/`trace` only)
  --policy <NAME>     baseline | balloon | mapper | vswapper | balloon+vswapper
                      (default vswapper)
  --mem <MB>          guest-perceived memory (default 512)
  --actual <MB>       host-granted memory   (default mem/4, the paper's
                      pressured regime; pass --actual <mem> for no pressure)
  --guests <N>        number of phased guests (default 1; `run`/`trace` only)
  --gap-secs <S>      phase gap between guest starts (default 10)
  --auto-balloon      use the MOM dynamic manager instead of a static balloon
  --disk <D>          hdd | ssd | nvme — host swap-device timing profile
                      (default hdd, the paper's 7200 RPM testbed drive)
  --queue-depth <N>   commands the host submits concurrently per hardware
                      disk queue (default 1, the paper's synchronous path)
  --seed <N>          simulation seed (default 0x5eedcafe)
  --fault-profile <P> none | transient | latent | timeouts | torn | storm
                      (default none) — deterministic disk-fault injection
  --fault-seed <N>    fault-plan seed (default: derived from --seed, so the
                      same run always sees the same faults)
  --trace-out <PATH>  write the structured event trace to PATH
  --trace-format <F>  jsonl | chrome (default jsonl; chrome loads in Perfetto)
  --since <T>         drop trace records before T of simulated time
  --until <T>         drop trace records at/after T of simulated time
                      (T accepts 1.5s, 500ms, 250us, 80000ns; bare = seconds;
                      filters the --trace-out file and the `trace` histogram,
                      not the simulation itself)
  --json              machine-readable output

CLUSTER OPTIONS:
  --hosts <N>         hosts in the fleet (default 4)
  --guests <N>        tenant guests placed across the fleet (default 16)
  --policy <NAME>     as above (default vswapper)
  --smoke             reduced ~16x guest/host sizes (seconds, not minutes)
  --seed <N>          simulation seed (default 0x5eedcafe)
  --cluster-fault-profile <P>  fleet fault schedule: none crashes brownouts
                      flaky-links fleet-storm (default none; crashes
                      evacuate guests onto survivors, link failures abort
                      and retry the migration)
  --fault-seed <N>    decouple the fleet fault schedule from --seed
  --json              machine-readable report

ANALYZE OPTIONS:
  --top <K>           number of slowest fault lifecycles to print (default 5)
";

#[derive(Debug, Clone)]
struct Options {
    workload: String,
    policy: SwapPolicy,
    mem_mb: u64,
    actual_mb: u64,
    guests: u32,
    gap_secs: u64,
    auto_balloon: bool,
    disk: Option<DiskSpec>,
    queue_depth: Option<u32>,
    seed: Option<u64>,
    faults: FaultProfile,
    fault_seed: Option<u64>,
    trace_out: Option<String>,
    trace_format: TraceFormat,
    since: Option<SimDuration>,
    until: Option<SimDuration>,
    json: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            workload: "sysbench".to_owned(),
            policy: SwapPolicy::Vswapper,
            mem_mb: 512,
            actual_mb: 0,
            guests: 1,
            gap_secs: 10,
            auto_balloon: false,
            disk: None,
            queue_depth: None,
            seed: None,
            faults: FaultProfile::None,
            fault_seed: None,
            trace_out: None,
            trace_format: TraceFormat::Jsonl,
            since: None,
            until: None,
            json: false,
        }
    }
}

fn parse_policy(name: &str) -> Result<SwapPolicy, String> {
    Ok(match name {
        "baseline" => SwapPolicy::Baseline,
        "balloon" | "balloon+base" => SwapPolicy::BalloonBaseline,
        "mapper" => SwapPolicy::MapperOnly,
        "vswapper" => SwapPolicy::Vswapper,
        "balloon+vswapper" | "balloon+vswap" => SwapPolicy::BalloonVswapper,
        other => return Err(format!("unknown policy `{other}`")),
    })
}

fn parse_disk(name: &str) -> Result<DiskSpec, String> {
    Ok(match name {
        "hdd" => DiskSpec::hdd_7200(),
        "ssd" => DiskSpec::ssd(),
        "nvme" => DiskSpec::nvme(),
        other => return Err(format!("unknown disk `{other}` (expected hdd | ssd | nvme)")),
    })
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => opts.workload = value("--workload")?,
            "--policy" => opts.policy = parse_policy(&value("--policy")?)?,
            "--mem" => opts.mem_mb = value("--mem")?.parse().map_err(|e| format!("--mem: {e}"))?,
            "--actual" => {
                opts.actual_mb = value("--actual")?.parse().map_err(|e| format!("--actual: {e}"))?
            }
            "--guests" => {
                opts.guests = value("--guests")?.parse().map_err(|e| format!("--guests: {e}"))?
            }
            "--gap-secs" => {
                opts.gap_secs =
                    value("--gap-secs")?.parse().map_err(|e| format!("--gap-secs: {e}"))?
            }
            "--auto-balloon" => opts.auto_balloon = true,
            "--disk" => opts.disk = Some(parse_disk(&value("--disk")?)?),
            "--queue-depth" => {
                opts.queue_depth = Some(
                    value("--queue-depth")?.parse().map_err(|e| format!("--queue-depth: {e}"))?,
                )
            }
            "--seed" => {
                opts.seed = Some(value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?)
            }
            "--fault-profile" => {
                opts.faults = value("--fault-profile")?
                    .parse()
                    .map_err(|e| format!("--fault-profile: {e}"))?
            }
            "--fault-seed" => {
                opts.fault_seed =
                    Some(value("--fault-seed")?.parse().map_err(|e| format!("--fault-seed: {e}"))?)
            }
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            "--trace-format" => {
                opts.trace_format =
                    value("--trace-format")?.parse().map_err(|e| format!("--trace-format: {e}"))?
            }
            "--since" => {
                opts.since = Some(
                    SimDuration::parse(&value("--since")?).map_err(|e| format!("--since: {e}"))?,
                )
            }
            "--until" => {
                opts.until = Some(
                    SimDuration::parse(&value("--until")?).map_err(|e| format!("--until: {e}"))?,
                )
            }
            "--json" => opts.json = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if opts.actual_mb == 0 {
        // The paper's experiments all run guests under memory pressure;
        // an unpressured default would make every demo a no-op.
        opts.actual_mb = (opts.mem_mb / 4).max(1);
    }
    if opts.actual_mb > opts.mem_mb {
        return Err("--actual cannot exceed --mem".to_owned());
    }
    if opts.guests == 0 {
        return Err("--guests must be at least 1".to_owned());
    }
    if opts.queue_depth == Some(0) {
        return Err("--queue-depth must be at least 1".to_owned());
    }
    if let (Some(since), Some(until)) = (opts.since, opts.until) {
        if since >= until {
            return Err("--since must be earlier than --until".to_owned());
        }
    }
    Ok(opts)
}

fn make_workload(name: &str, seed: u64) -> Result<Box<dyn GuestProgram>, String> {
    Ok(match name {
        "pbzip2" => Box::new(Pbzip2::paper_default()),
        "kernbench" => Box::new(Kernbench::paper_default()),
        "eclipse" => Box::new(Eclipse::paper_default()),
        "mapreduce" => Box::new(MapReduce::paper_default(seed)),
        "alloc" => Box::new(AllocStream::new(MemBytes::from_mb(200).pages(), AccessMode::Write)),
        "sysbench" => unreachable!("handled by the caller (needs a prepare phase)"),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

fn build_machine(opts: &Options) -> Result<Machine, String> {
    let mut cfg = MachineConfig::preset(opts.policy);
    if let Some(seed) = opts.seed {
        cfg = cfg.with_seed(seed);
    }
    if opts.auto_balloon && opts.policy.ballooning() {
        cfg = cfg.with_auto_balloon(BalloonPolicy::default());
    }
    cfg = cfg.with_faults(opts.faults);
    if let Some(fault_seed) = opts.fault_seed {
        cfg = cfg.with_fault_seed(fault_seed);
    }
    if let Some(disk) = opts.disk {
        cfg = cfg.with_disk(disk);
    }
    if let Some(depth) = opts.queue_depth {
        cfg = cfg.with_disk_queue_depth(depth);
    }
    // Size the disk to hold every guest's image.
    cfg.host.disk_pages =
        cfg.host.swap_pages + u64::from(opts.guests + 1) * MemBytes::from_gb(21).pages();
    Machine::new(cfg).map_err(|e| e.to_string())
}

fn guest_spec(opts: &Options, name: &str) -> VmSpec {
    VmSpec::linux(name, MemBytes::from_mb(opts.mem_mb), MemBytes::from_mb(opts.actual_mb))
        .with_guest(GuestSpec {
            memory: MemBytes::from_mb(opts.mem_mb),
            ..GuestSpec::linux_default()
        })
}

/// Ring-buffer capacity when an event trace is requested: ample for the
/// paper-scale workloads while bounding memory.
const EVENT_CAPACITY: usize = 1 << 20;

/// The `--since`/`--until` simulated-time window applied to a record's
/// timestamp (both bounds are offsets from simulation start).
fn in_window(opts: &Options, at: SimTime) -> bool {
    let since = opts.since.map_or(SimTime::ZERO, |d| SimTime::ZERO + d);
    let until = opts.until.map_or(SimTime::MAX, |d| SimTime::ZERO + d);
    at >= since && at < until
}

/// Renders the machine's event log to `--trace-out`, if requested,
/// applying the `--since`/`--until` window.
fn write_trace(m: &Machine, opts: &Options) -> Result<(), String> {
    let Some(path) = &opts.trace_out else { return Ok(()) };
    let rendered = if opts.since.is_none() && opts.until.is_none() {
        export::render(m.event_log(), opts.trace_format)
    } else {
        let records: Vec<_> =
            m.event_log().records().into_iter().filter(|r| in_window(opts, r.at)).collect();
        export::render_records(&records, opts.trace_format)
    };
    std::fs::write(path, rendered).map_err(|e| format!("writing {path}: {e}"))
}

/// Warns on stderr when the bounded ring evicted records (the trace on
/// disk is then a suffix of the run, not the whole run).
fn warn_dropped(m: &Machine) {
    let dropped = m.event_log().dropped();
    if dropped > 0 {
        eprintln!(
            "warning: event log dropped {dropped} record(s) (capacity {EVENT_CAPACITY}); \
             the trace holds only the most recent events"
        );
    }
}

/// Prepares, ages and warms a sysbench guest; returns the file handle.
fn sysbench_setup(m: &mut Machine, vm: VmHandle) -> SharedFile {
    let file = SharedFile::new();
    m.launch(vm, Box::new(SysbenchPrepare::new(MemBytes::from_mb(200).pages(), file.clone())));
    m.run();
    m.launch(vm, Box::new(AgeGuest::new()));
    m.run();
    file
}

/// Builds the machine, runs the configured workloads, and audits the
/// host. `attach_events` turns on structured tracing before anything
/// executes, so boot-time events are captured too.
fn run_workloads(opts: &Options, attach_events: bool) -> Result<(Machine, RunReport), String> {
    let mut m = build_machine(opts)?;
    if attach_events {
        m.attach_event_log(EVENT_CAPACITY);
    }
    let mut vms = Vec::new();
    for i in 0..opts.guests {
        let vm = m.add_vm(guest_spec(opts, &format!("guest{i}"))).map_err(|e| e.to_string())?;
        vms.push(vm);
    }
    for (i, &vm) in vms.iter().enumerate() {
        let at = SimTime::ZERO + SimDuration::from_secs(opts.gap_secs * i as u64);
        if opts.workload == "sysbench" {
            let file = sysbench_setup(&mut m, vm);
            m.launch_at(vm, Box::new(SysbenchRead::new(file)), at);
        } else {
            m.launch_at(vm, make_workload(&opts.workload, i as u64)?, at);
        }
    }
    let report = m.run();
    m.host().audit().map_err(|e| format!("invariant violation: {e}"))?;
    Ok((m, report))
}

fn cmd_run(opts: &Options) -> Result<String, String> {
    let (m, report) = run_workloads(opts, opts.trace_out.is_some())?;
    write_trace(&m, opts)?;
    warn_dropped(&m);
    Ok(if opts.json { report.to_json() } else { report.to_string() })
}

fn cmd_trace(opts: &Options) -> Result<String, String> {
    let (m, _report) = run_workloads(opts, true)?;
    write_trace(&m, opts)?;
    warn_dropped(&m);
    let log = m.event_log();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "events: {} emitted, {} buffered, {} dropped",
        log.emitted(),
        log.len(),
        log.dropped()
    );
    if opts.since.is_some() || opts.until.is_some() {
        let mut histogram: std::collections::BTreeMap<&'static str, u64> =
            std::collections::BTreeMap::new();
        let mut windowed = 0u64;
        for record in log.records() {
            if in_window(opts, record.at) {
                *histogram.entry(record.event.kind().name()).or_insert(0) += 1;
                windowed += 1;
            }
        }
        let _ = writeln!(out, "window: {windowed} record(s) in [--since, --until)");
        for (kind, count) in histogram {
            let _ = writeln!(out, "  {kind:<24} {count}");
        }
    } else {
        for (kind, count) in log.kind_histogram() {
            let _ = writeln!(out, "  {kind:<24} {count}");
        }
    }
    out.push('\n');
    out.push_str(&m.profiler().breakdown_table());
    Ok(out)
}

fn cmd_analyze(args: &[String]) -> Result<String, String> {
    let mut path: Option<String> = None;
    let mut top = 5usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--top" => {
                top = it
                    .next()
                    .ok_or("--top needs a value")?
                    .parse()
                    .map_err(|e| format!("--top: {e}"))?
            }
            other if !other.starts_with("--") && path.is_none() => path = Some(other.to_owned()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let path = path.ok_or("analyze needs a JSONL trace file (from `vswap run --trace-out`)")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let events = export::parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
    let forest = sim_obs::SpanForest::build(events);
    forest.validate().map_err(|e| format!("{path}: malformed span structure: {e}"))?;
    Ok(sim_obs::span::render_critical_path(&forest, top))
}

fn cmd_migrate(opts: &Options) -> Result<String, String> {
    let mut m = build_machine(opts)?;
    let vm = m.add_vm(guest_spec(opts, "guest")).map_err(|e| e.to_string())?;
    let file = sysbench_setup(&mut m, vm);
    m.launch(vm, Box::new(SysbenchRead::new(file)));
    m.run();
    let report = LiveMigration::new(MigrationConfig::default()).run(&mut m, vm);
    m.host().audit().map_err(|e| format!("invariant violation: {e}"))?;
    if opts.json {
        Ok(format!(
            "{{\"total_bytes\": {}, \"total_secs\": {:.6}, \"downtime_ms\": {:.3}, \"rounds\": {}, \"reference_pages\": {}, \"swap_readbacks\": {}}}\n",
            report.total_bytes,
            report.total_time.as_secs_f64(),
            report.downtime.as_millis_f64(),
            report.rounds.len(),
            report.sum(|r| r.reference_pages),
            report.sum(|r| r.swap_readbacks),
        ))
    } else {
        Ok(format!(
            "migrated in {:.2}s over {} rounds\n  traffic: {:.1} MB ({} pages as block references)\n  downtime: {:.1} ms\n  swap read-backs: {}\n",
            report.total_time.as_secs_f64(),
            report.rounds.len(),
            report.total_bytes as f64 / 1e6,
            report.sum(|r| r.reference_pages),
            report.downtime.as_millis_f64(),
            report.sum(|r| r.swap_readbacks),
        ))
    }
}

/// Arguments for the `cluster` subcommand.
#[derive(Debug, Clone)]
struct ClusterArgs {
    hosts: u32,
    guests: u32,
    policy: SwapPolicy,
    scale: Scale,
    seed: u64,
    faults: ClusterFaultProfile,
    fault_seed: Option<u64>,
    json: bool,
}

fn parse_cluster_args(args: &[String]) -> Result<ClusterArgs, String> {
    let mut parsed = ClusterArgs {
        hosts: 4,
        guests: 16,
        policy: SwapPolicy::Vswapper,
        scale: Scale::Paper,
        seed: suite::DEFAULT_SEED,
        faults: ClusterFaultProfile::None,
        fault_seed: None,
        json: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--hosts" => {
                parsed.hosts = value("--hosts")?.parse().map_err(|e| format!("--hosts: {e}"))?
            }
            "--guests" => {
                parsed.guests = value("--guests")?.parse().map_err(|e| format!("--guests: {e}"))?
            }
            "--policy" => parsed.policy = parse_policy(&value("--policy")?)?,
            "--smoke" => parsed.scale = Scale::Smoke,
            "--seed" => {
                parsed.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--cluster-fault-profile" => {
                parsed.faults = value("--cluster-fault-profile")?
                    .parse()
                    .map_err(|e| format!("--cluster-fault-profile: {e}"))?
            }
            "--fault-seed" => {
                parsed.fault_seed =
                    Some(value("--fault-seed")?.parse().map_err(|e| format!("--fault-seed: {e}"))?)
            }
            "--json" => parsed.json = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if parsed.hosts == 0 {
        return Err("--hosts must be at least 1".to_owned());
    }
    if parsed.guests == 0 {
        return Err("--guests must be at least 1".to_owned());
    }
    Ok(parsed)
}

/// Runs one cluster point exactly the way the `cluster` suite
/// experiment does, so a CLI run and a suite cell with the same
/// parameters and seed report the same numbers. With a cluster fault
/// profile it runs the `cluster-chaos` point instead (crashes,
/// brown-outs, and link failures injected fleet-wide).
fn cmd_cluster(a: &ClusterArgs) -> Result<String, String> {
    let mut ctx = suite::TaskCtx::standalone(a.seed, "cluster-cli");
    let (mean, report) = if a.faults == ClusterFaultProfile::None && a.fault_seed.is_none() {
        vswap_bench::experiments::cluster::run_point(a.scale, a.policy, a.hosts, a.guests, &mut ctx)
    } else {
        let pt = vswap_bench::experiments::cluster_chaos::ChaosPoint {
            policy: a.policy,
            hosts: a.hosts,
            guests: a.guests,
            profile: a.faults,
            seed: a.seed,
            fault_seed: a.fault_seed,
        };
        vswap_bench::experiments::cluster_chaos::run_point(a.scale, pt, &mut ctx)
    };
    if a.json {
        Ok(report.to_json())
    } else {
        let mut out = report.render();
        let _ = writeln!(out, "mean completion time: {mean:.2}s ({})", a.policy);
        Ok(out)
    }
}

fn cmd_pathology(opts: &Options) -> Result<String, String> {
    let mut m = build_machine(opts)?;
    let vm = m.add_vm(guest_spec(opts, "guest")).map_err(|e| e.to_string())?;
    let file = sysbench_setup(&mut m, vm);
    m.launch(vm, Box::new(SysbenchRead::new(file)));
    m.run();
    m.launch(vm, Box::new(AllocStream::new(MemBytes::from_mb(200).pages(), AccessMode::Write)));
    let report = m.run();
    m.host().audit().map_err(|e| format!("invariant violation: {e}"))?;
    let breakdown = PathologyBreakdown::from_stats(&report.host, &report.disk);
    if opts.json {
        Ok(format!(
            "{{\"silent_swap_writes\": {}, \"stale_swap_reads\": {}, \"false_swap_reads\": {}, \"decayed_seq_seeks\": {}, \"false_anonymity_refaults\": {}}}\n",
            breakdown.silent_swap_writes,
            breakdown.stale_swap_reads,
            breakdown.false_swap_reads,
            breakdown.decayed_seq_seeks,
            breakdown.false_anonymity_refaults,
        ))
    } else {
        Ok(format!("policy: {}\n{breakdown}", opts.policy))
    }
}

fn cmd_list() -> String {
    let mut out = "workloads: sysbench pbzip2 kernbench eclipse mapreduce alloc\n\
     policies:  baseline balloon mapper vswapper balloon+vswapper\n\
     experiments:\n"
        .to_owned();
    for e in vswap_bench::suite_experiments() {
        let _ = writeln!(out, "       {:8} {}", e.id, e.title);
    }
    out
}

/// Arguments of the `figures` and `verify-tables` subcommands. Each
/// subcommand rejects the options only the other one reads, so every
/// field a subcommand does not read keeps its default.
#[derive(Debug, Clone)]
struct SuiteArgs {
    scale: Scale,
    jobs: usize,
    seed: u64,
    ids: Vec<String>,
    bless: bool,
    bench_out: Option<String>,
    dump_dir: Option<String>,
}

/// Parses the arguments of `cmd`, which is `figures` or `verify-tables`.
fn parse_suite_args(cmd: &str, args: &[String]) -> Result<SuiteArgs, String> {
    let mut parsed = SuiteArgs {
        scale: Scale::Paper,
        jobs: 0,
        seed: suite::DEFAULT_SEED,
        ids: Vec::new(),
        bless: false,
        bench_out: None,
        dump_dir: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let owner = match arg.as_str() {
            "--smoke" | "--seed" => "figures",
            "--bless" | "--bench-out" | "--dump-dir" => "verify-tables",
            _ => cmd,
        };
        if owner != cmd {
            return Err(format!("`{cmd}` does not take {arg}; it is a `{owner}` option"));
        }
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--smoke" => parsed.scale = Scale::Smoke,
            "--jobs" => {
                parsed.jobs = value("--jobs")?.parse().map_err(|e| format!("--jobs: {e}"))?
            }
            "--seed" => {
                parsed.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--bless" => parsed.bless = true,
            "--bench-out" => parsed.bench_out = Some(value("--bench-out")?),
            "--dump-dir" => parsed.dump_dir = Some(value("--dump-dir")?),
            other if !other.starts_with("--") => parsed.ids.push(other.to_owned()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    for id in &parsed.ids {
        if !vswap_bench::suite_experiments().iter().any(|e| e.id == id) {
            return Err(format!("unknown experiment id `{id}`; see `vswap list`"));
        }
    }
    Ok(parsed)
}

fn cmd_figures(a: &SuiteArgs) -> Result<String, String> {
    let opts = suite::SuiteOptions::new(a.scale)
        .with_jobs(a.jobs)
        .with_seed(a.seed)
        .with_only(a.ids.clone());
    let result = suite::run_suite(&opts);
    for exp in &result.experiments {
        eprintln!(
            "({} regenerated in {:.1?} busy across {} units)",
            exp.id, exp.busy, exp.unit_count
        );
    }
    eprintln!(
        "suite: {} experiment(s) in {:.1?} wall-clock on {} worker(s)",
        result.experiments.len(),
        result.wall,
        result.jobs
    );
    Ok(result.rendered())
}

/// Escapes nothing: experiment ids are `[a-z0-9]+` by construction.
fn bench_json(
    serial: &suite::SuiteResult,
    parallel: &suite::SuiteResult,
    compare: std::time::Duration,
) -> String {
    let pages = suite::pages_simulated(&serial.metrics);
    let events = suite::events_emitted(&serial.metrics);
    let serial_secs = serial.wall.as_secs_f64();
    let parallel_secs = parallel.wall.as_secs_f64();
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"scale\": \"smoke\",");
    let _ = writeln!(out, "  \"jobs\": {},", parallel.jobs);
    let _ = writeln!(out, "  \"serial_wall_secs\": {serial_secs:.6},");
    let _ = writeln!(out, "  \"parallel_wall_secs\": {parallel_secs:.6},");
    let _ = writeln!(out, "  \"speedup\": {:.3},", serial_secs / parallel_secs.max(1e-9));
    let _ = writeln!(out, "  \"pages_simulated\": {pages},");
    let _ =
        writeln!(out, "  \"serial_pages_per_sec\": {:.0},", pages as f64 / serial_secs.max(1e-9));
    let _ = writeln!(
        out,
        "  \"parallel_pages_per_sec\": {:.0},",
        pages as f64 / parallel_secs.max(1e-9)
    );
    let _ = writeln!(out, "  \"events_emitted\": {events},");
    out.push_str("  \"phases\": [\n");
    let _ = writeln!(out, "    {{\"phase\": \"serial-suite\", \"wall_secs\": {serial_secs:.6}}},");
    let _ =
        writeln!(out, "    {{\"phase\": \"parallel-suite\", \"wall_secs\": {parallel_secs:.6}}},");
    let _ = writeln!(
        out,
        "    {{\"phase\": \"determinism-compare\", \"wall_secs\": {:.6}}}",
        compare.as_secs_f64()
    );
    out.push_str("  ],\n");
    out.push_str("  \"experiments\": [\n");
    for (i, (s, p)) in serial.experiments.iter().zip(&parallel.experiments).enumerate() {
        let _ = write!(
            out,
            "    {{\"id\": \"{}\", \"units\": {}, \"serial_secs\": {:.6}, \"parallel_busy_secs\": {:.6}}}",
            s.id,
            p.unit_count,
            s.busy.as_secs_f64(),
            p.busy.as_secs_f64()
        );
        out.push_str(if i + 1 < serial.experiments.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn cmd_verify_tables(a: &SuiteArgs) -> Result<String, String> {
    // The corpus is smoke-scale output under the default seed; scale and
    // seed overrides would make every diff meaningless. Positional ids
    // restrict both the run and the diff to those experiments.
    let base = suite::SuiteOptions::new(Scale::Smoke).with_only(a.ids.clone());
    let serial = suite::run_suite(&base.clone().with_jobs(1));
    let parallel = suite::run_suite(&base.with_jobs(a.jobs));
    eprintln!(
        "verify-tables: serial {:.1?}, {} worker(s) {:.1?}",
        serial.wall, parallel.jobs, parallel.wall
    );

    // The determinism gate: the parallel run must be byte-identical to
    // the serial reference — tables and merged metrics both.
    let compare_start = std::time::Instant::now();
    if serial.rendered() != parallel.rendered() {
        return Err("parallel tables diverged from the serial reference (determinism bug)".into());
    }
    if serial.metrics.to_string() != parallel.metrics.to_string() {
        return Err("parallel metrics diverged from the serial reference (determinism bug)".into());
    }
    let compare = compare_start.elapsed();

    if let Some(path) = &a.bench_out {
        std::fs::write(path, bench_json(&serial, &parallel, compare))
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("verify-tables: wrote timing report to {path}");
    }

    // Dump every fresh rendering before diffing, so a drifting run still
    // leaves the actual tables behind for inspection (CI attaches the
    // directory as an artifact when the step fails). The checked-in
    // expected rendering lands next to each fresh one, so the artifact
    // is directly diffable (`diff <id>.expected.md <id>.md`) without a
    // source checkout.
    if let Some(dir) = &a.dump_dir {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        for exp in &parallel.experiments {
            let path = dir.join(format!("{}.md", exp.id));
            std::fs::write(&path, suite::render_experiment(exp.id, exp.title, &exp.tables))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            if let Some(expected) = vswap_bench::golden::golden(exp.id) {
                let path = dir.join(format!("{}.expected.md", exp.id));
                std::fs::write(&path, expected)
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
            }
        }
        eprintln!(
            "verify-tables: dumped {} rendering(s) (and their expected corpus pairs) to {}",
            parallel.experiments.len(),
            dir.display()
        );
    }

    if a.bless {
        let written = vswap_bench::golden::bless(&parallel.experiments)
            .map_err(|e| format!("blessing golden corpus: {e}"))?;
        return Ok(format!("blessed {} golden file(s)\n", written.len()));
    }

    let drifts = vswap_bench::golden::verify(&parallel.experiments);
    if drifts.is_empty() {
        Ok(format!(
            "verify-tables: {} experiment(s) match the golden corpus\n",
            parallel.experiments.len()
        ))
    } else {
        let mut msg = format!("{} experiment(s) drifted from the golden corpus:\n", drifts.len());
        for d in &drifts {
            let _ = writeln!(msg, "{d}");
        }
        msg.push_str("if the change is intended, regenerate with `vswap verify-tables --bless`");
        Err(msg)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "list" => Ok(cmd_list()),
        "figures" | "verify-tables" => match parse_suite_args(cmd, rest) {
            Ok(suite_args) => {
                if cmd == "figures" {
                    cmd_figures(&suite_args)
                } else {
                    cmd_verify_tables(&suite_args)
                }
            }
            Err(e) => Err(e),
        },
        "analyze" => cmd_analyze(rest),
        "cluster" => parse_cluster_args(rest).and_then(|a| cmd_cluster(&a)),
        "run" | "trace" | "migrate" | "pathology" => match parse_options(rest) {
            Ok(opts) => match cmd.as_str() {
                "run" => cmd_run(&opts),
                "trace" => cmd_trace(&opts),
                "migrate" => cmd_migrate(&opts),
                _ => cmd_pathology(&opts),
            },
            Err(e) => Err(e),
        },
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Result<Options, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_options(&owned)
    }

    #[test]
    fn defaults_fill_in() {
        let o = opts(&[]).unwrap();
        assert_eq!(o.workload, "sysbench");
        assert_eq!(o.policy, SwapPolicy::Vswapper);
        assert_eq!(o.mem_mb, 512);
        assert_eq!(o.actual_mb, 128, "actual defaults to mem/4 (pressured)");
    }

    #[test]
    fn full_option_set_parses() {
        let o = opts(&[
            "--workload",
            "pbzip2",
            "--policy",
            "balloon",
            "--mem",
            "1024",
            "--actual",
            "256",
            "--guests",
            "4",
            "--gap-secs",
            "5",
            "--auto-balloon",
            "--seed",
            "7",
            "--json",
        ])
        .unwrap();
        assert_eq!(o.workload, "pbzip2");
        assert_eq!(o.policy, SwapPolicy::BalloonBaseline);
        assert_eq!(o.mem_mb, 1024);
        assert_eq!(o.actual_mb, 256);
        assert_eq!(o.guests, 4);
        assert_eq!(o.gap_secs, 5);
        assert!(o.auto_balloon);
        assert_eq!(o.seed, Some(7));
        assert!(o.json);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(opts(&["--mem", "abc"]).is_err());
        assert!(opts(&["--actual", "600", "--mem", "512"]).is_err());
        assert!(opts(&["--guests", "0"]).is_err());
        assert!(opts(&["--policy", "nope"]).is_err());
        assert!(opts(&["--banana"]).is_err());
        assert!(opts(&["--mem"]).is_err(), "missing value");
    }

    #[test]
    fn every_policy_name_parses() {
        for (name, policy) in [
            ("baseline", SwapPolicy::Baseline),
            ("balloon", SwapPolicy::BalloonBaseline),
            ("mapper", SwapPolicy::MapperOnly),
            ("vswapper", SwapPolicy::Vswapper),
            ("balloon+vswapper", SwapPolicy::BalloonVswapper),
        ] {
            assert_eq!(parse_policy(name).unwrap(), policy);
        }
    }

    #[test]
    fn json_report_is_emitted() {
        let mut o = Options { mem_mb: 64, actual_mb: 32, json: true, ..Options::default() };
        o.workload = "alloc".to_owned();
        let out = cmd_run(&o).unwrap();
        assert!(out.contains("\"workloads\""));
        assert!(out.contains("\"runtime_secs\""));
        assert!(out.contains("\"host\""));
        assert!(out.contains("\"profile\""));
        assert!(!out.contains("\"metrics\""), "each counter is reported once");
    }

    #[test]
    fn suite_args_parse() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let a =
            parse_suite_args("figures", &args(&["--smoke", "--jobs", "4", "--seed", "9", "fig03"]))
                .unwrap();
        assert_eq!(a.scale, Scale::Smoke);
        assert_eq!(a.jobs, 4);
        assert_eq!(a.seed, 9);
        assert_eq!(a.ids, vec!["fig03".to_owned()]);

        let v = parse_suite_args(
            "verify-tables",
            &args(&["--bless", "--bench-out", "/tmp/b.json", "--dump-dir", "/tmp/tables"]),
        )
        .unwrap();
        assert!(v.bless);
        assert_eq!(v.bench_out.as_deref(), Some("/tmp/b.json"));
        assert_eq!(v.dump_dir.as_deref(), Some("/tmp/tables"));

        let defaults = parse_suite_args("figures", &[]).unwrap();
        assert_eq!(defaults.scale, Scale::Paper);
        assert_eq!(defaults.jobs, 0, "0 = available parallelism");
        assert_eq!(defaults.seed, suite::DEFAULT_SEED);

        assert!(parse_suite_args("figures", &args(&["not-an-experiment"])).is_err());
        assert!(parse_suite_args("figures", &args(&["--jobs"])).is_err(), "missing value");
        for foreign in ["--bless", "--bench-out", "--dump-dir"] {
            let err = parse_suite_args("figures", &args(&[foreign, "x"])).unwrap_err();
            assert!(err.contains("`figures`") && err.contains(foreign), "{err}");
        }
        for foreign in ["--smoke", "--seed"] {
            let err = parse_suite_args("verify-tables", &args(&[foreign, "5"])).unwrap_err();
            assert!(err.contains("`verify-tables`") && err.contains(foreign), "{err}");
        }
    }

    #[test]
    fn disk_flags_parse() {
        let o = opts(&["--disk", "nvme", "--queue-depth", "32"]).unwrap();
        assert_eq!(o.disk, Some(DiskSpec::nvme()));
        assert_eq!(o.queue_depth, Some(32));
        for (name, spec) in
            [("hdd", DiskSpec::hdd_7200()), ("ssd", DiskSpec::ssd()), ("nvme", DiskSpec::nvme())]
        {
            assert_eq!(parse_disk(name).unwrap(), spec);
        }
        let o = opts(&[]).unwrap();
        assert_eq!(o.disk, None, "default keeps the preset's testbed drive");
        assert_eq!(o.queue_depth, None, "default keeps the synchronous path");
        assert!(opts(&["--disk", "floppy"]).is_err());
        assert!(opts(&["--disk"]).is_err(), "missing value");
        assert!(opts(&["--queue-depth", "0"]).is_err(), "a ring needs a slot");
        assert!(opts(&["--queue-depth", "deep"]).is_err());
        assert!(opts(&["--queue-depth"]).is_err(), "missing value");
    }

    #[test]
    fn disk_flags_reach_the_machine() {
        let o = opts(&["--disk", "nvme", "--queue-depth", "8", "--mem", "64", "--actual", "32"])
            .unwrap();
        let m = build_machine(&o).unwrap();
        assert_eq!(m.host().spec().disk.queues, DiskSpec::nvme().queues);
        assert_eq!(m.host().spec().disk_queue_depth, 8);
    }

    #[test]
    fn fault_flags_parse() {
        let o = opts(&["--fault-profile", "storm", "--fault-seed", "41"]).unwrap();
        assert_eq!(o.faults, FaultProfile::Storm);
        assert_eq!(o.fault_seed, Some(41));
        let o = opts(&[]).unwrap();
        assert_eq!(o.faults, FaultProfile::None, "faults are opt-in");
        assert_eq!(o.fault_seed, None, "fault seed defaults to the run seed");
        assert!(opts(&["--fault-profile", "hurricane"]).is_err());
        assert!(opts(&["--fault-seed", "abc"]).is_err());
        assert!(opts(&["--fault-profile"]).is_err(), "missing value");
    }

    #[test]
    fn faulted_run_reports_injections() {
        let mut o = Options {
            mem_mb: 64,
            actual_mb: 32,
            faults: FaultProfile::Storm,
            json: true,
            ..Options::default()
        };
        o.workload = "alloc".to_owned();
        let out = cmd_run(&o).unwrap();
        assert!(out.contains("\"disk_injected_faults\""), "{out}");
        let faults: u64 = out
            .split("\"disk_injected_faults\":")
            .nth(1)
            .and_then(|s| s.trim_start().split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|s| s.parse().ok())
            .expect("counter present");
        assert!(faults > 0, "a storm at this scale must inject: {out}");
    }

    #[test]
    fn trace_flags_parse() {
        let o = opts(&["--trace-out", "/tmp/t.jsonl", "--trace-format", "chrome"]).unwrap();
        assert_eq!(o.trace_out.as_deref(), Some("/tmp/t.jsonl"));
        assert_eq!(o.trace_format, TraceFormat::Chrome);
        assert!(opts(&["--trace-format", "xml"]).is_err());
        assert!(opts(&["--trace-out"]).is_err(), "missing value");
    }

    #[test]
    fn trace_subcommand_reports_histogram_and_profile() {
        let mut o = Options { mem_mb: 64, actual_mb: 32, ..Options::default() };
        o.workload = "alloc".to_owned();
        let out = cmd_trace(&o).unwrap();
        assert!(out.contains("events:"), "{out}");
        assert!(out.contains("page_fault"), "fault events must appear: {out}");
        assert!(out.contains("cpu"), "profiler table must appear: {out}");
        assert!(out.contains("total"));
    }

    #[test]
    fn window_flags_parse() {
        let o = opts(&["--since", "500ms", "--until", "1.5s"]).unwrap();
        assert_eq!(o.since, Some(SimDuration::from_millis(500)));
        assert_eq!(o.until, Some(SimDuration::from_nanos(1_500_000_000)));
        let o = opts(&["--until", "2"]).unwrap();
        assert_eq!(o.since, None, "open-ended window on the left");
        assert_eq!(o.until, Some(SimDuration::from_secs(2)), "bare number = seconds");
        assert!(opts(&["--since", "soon"]).is_err());
        assert!(opts(&["--since"]).is_err(), "missing value");
        assert!(opts(&["--since", "2s", "--until", "1s"]).is_err(), "empty windows are rejected");
        assert!(opts(&["--since", "1s", "--until", "1s"]).is_err());
    }

    #[test]
    fn window_restricts_the_trace_summary() {
        let mut o = Options {
            mem_mb: 64,
            actual_mb: 32,
            until: Some(SimDuration::from_nanos(1)),
            ..Options::default()
        };
        o.workload = "alloc".to_owned();
        let out = cmd_trace(&o).unwrap();
        assert!(out.contains("window:"), "{out}");
        assert!(!out.contains("page_fault"), "nothing faults in the first nanosecond: {out}");
    }

    #[test]
    fn analyze_round_trips_a_trace() {
        let dir = std::env::temp_dir().join("vswap-analyze-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let mut o = Options {
            mem_mb: 64,
            actual_mb: 32,
            trace_out: Some(path.to_string_lossy().into_owned()),
            ..Options::default()
        };
        o.workload = "alloc".to_owned();
        cmd_run(&o).unwrap();
        let args = vec![path.to_string_lossy().into_owned(), "--top".to_owned(), "2".to_owned()];
        let first = cmd_analyze(&args).unwrap();
        assert!(first.contains("critical path:"), "{first}");
        // The slowest lifecycles may be guest faults or host-I/O
        // swap-ins depending on queue depths; either way spans render.
        assert!(first.contains("#1"), "{first}");
        assert!(first.contains("dominant:"), "{first}");
        let second = cmd_analyze(&args).unwrap();
        assert_eq!(first, second, "same trace must analyze identically");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cluster_args_parse() {
        let owned: Vec<String> = [
            "--hosts", "2", "--guests", "6", "--policy", "baseline", "--smoke", "--seed", "3",
            "--json",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let a = parse_cluster_args(&owned).unwrap();
        assert_eq!(a.hosts, 2);
        assert_eq!(a.guests, 6);
        assert_eq!(a.policy, SwapPolicy::Baseline);
        assert_eq!(a.scale, Scale::Smoke);
        assert_eq!(a.seed, 3);
        assert!(a.json);

        let defaults = parse_cluster_args(&[]).unwrap();
        assert_eq!(defaults.hosts, 4);
        assert_eq!(defaults.guests, 16);
        assert_eq!(defaults.scale, Scale::Paper);

        assert!(parse_cluster_args(&["--hosts".to_owned(), "0".to_owned()]).is_err());
        assert!(parse_cluster_args(&["--guests".to_owned(), "0".to_owned()]).is_err());
        assert!(parse_cluster_args(&["--banana".to_owned()]).is_err());
        assert!(parse_cluster_args(&["--hosts".to_owned()]).is_err(), "missing value");

        let chaos = parse_cluster_args(&[
            "--cluster-fault-profile".to_owned(),
            "fleet-storm".to_owned(),
            "--fault-seed".to_owned(),
            "7".to_owned(),
        ])
        .unwrap();
        assert_eq!(chaos.faults, ClusterFaultProfile::FleetStorm);
        assert_eq!(chaos.fault_seed, Some(7));
        assert!(
            parse_cluster_args(&["--cluster-fault-profile".to_owned(), "nope".to_owned()]).is_err(),
            "unknown profiles are rejected with the valid vocabulary"
        );
    }

    #[test]
    fn cluster_smoke_run_reports_the_fleet() {
        let a = ClusterArgs {
            hosts: 2,
            guests: 4,
            policy: SwapPolicy::Vswapper,
            scale: Scale::Smoke,
            seed: suite::DEFAULT_SEED,
            faults: ClusterFaultProfile::None,
            fault_seed: None,
            json: false,
        };
        let out = cmd_cluster(&a).unwrap();
        assert!(out.contains("cluster: 2 hosts"), "{out}");
        assert!(out.contains("mean completion time"), "{out}");
        let json = cmd_cluster(&ClusterArgs { json: true, ..a.clone() }).unwrap();
        assert!(json.contains("\"hosts\""), "{json}");
        assert!(json.contains("\"migration_log\""), "{json}");
        let chaos = cmd_cluster(&ClusterArgs {
            hosts: 4,
            guests: 16,
            faults: ClusterFaultProfile::Crashes,
            ..a
        })
        .unwrap();
        assert!(chaos.contains("mean completion time"), "{chaos}");
    }

    #[test]
    fn analyze_rejects_bad_arguments() {
        assert!(cmd_analyze(&[]).is_err(), "the trace path is mandatory");
        let bad = vec!["--top".to_owned()];
        assert!(cmd_analyze(&bad).is_err(), "missing value");
        let bad = vec!["/definitely/not/a/file".to_owned()];
        assert!(cmd_analyze(&bad).is_err(), "unreadable file");
    }
}
