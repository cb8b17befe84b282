//! Result output: the `name value unit` lines, the result file, and the
//! one-line JSON summary that ends standard output.

use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use sim_obs::json::{parse_flat_object, JsonScalar, JsonWriter};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// The machine and build a result was measured on.
#[derive(Debug, Clone)]
pub struct Env {
    pub available_parallelism: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub git_rev: String,
}

impl Env {
    pub fn capture() -> Env {
        let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
        let cpu_model = read("/proc/cpuinfo")
            .lines()
            .find_map(|l| {
                l.strip_prefix("model name")?.split_once(':').map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        let kernel = match read("/proc/sys/kernel/osrelease").trim() {
            "" => "unknown".to_owned(),
            release => release.to_owned(),
        };
        Env {
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel,
            git_rev: git_rev().unwrap_or_else(|| "unknown".to_owned()),
        }
    }
}

/// The commit checked out in the working directory, read from `.git`
/// directly (the benchmark may run from an exported tree with none).
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return Some(head.to_owned()) };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_owned());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference)?.strip_suffix(' ').map(str::to_owned))
}

/// Writes `text` to `path`, creating its directory.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Peak resident set of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| {
            l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

const END_TO_END_GROUP: &str = "end-to-end";

/// One metric as a `name value unit` line, the value being the median;
/// timings add their spread.
pub fn metric_line(m: &Metric) -> String {
    let s = &m.summary;
    let mut line = format!("{} {} {}", m.name, s.median, m.unit);
    if s.k > 1 {
        let _ = write!(line, "  (q1 {} q3 {} min {} max {} k {})", s.q1, s.q3, s.min, s.max, s.k);
    }
    line
}

/// Everything one run measured.
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub env: Env,
    pub warm_up: &'static str,
    pub cold_rep_s: f64,
    /// Timed reps.
    pub k: usize,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    /// Context for the timings: the probe's slowdown, unscaled times.
    pub info: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub notes: Vec<(&'static str, String)>,
}

impl RunResult {
    /// The result file: one flat JSON object per line, first the run's
    /// context, then one per metric.
    pub fn to_jsonl(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("kind", "run");
        w.field_str("workload", self.workload);
        w.field_u64("seed", self.seed);
        w.field_u64("seconds", self.seconds);
        w.field_bool("traced", self.traced);
        w.field_u64("available_parallelism", self.env.available_parallelism as u64);
        w.field_str("cpu_model", &self.env.cpu_model);
        w.field_str("kernel", &self.env.kernel);
        w.field_str("git_rev", &self.env.git_rev);
        w.field_str("warm_up", self.warm_up);
        w.field_f64("bench.cold_rep_s", self.cold_rep_s);
        w.field_u64("k", self.k as u64);
        w.field_u64("attempted", self.attempted);
        w.field_u64("failed", self.failed);
        for (key, note) in &self.notes {
            w.field_str(key, note);
        }
        w.end_object();
        let mut out = w.finish();
        out.push('\n');
        for (group, metrics) in
            [(END_TO_END_GROUP, &self.end_to_end), ("info", &self.info), ("layer", &self.layers)]
        {
            for m in metrics {
                let mut w = JsonWriter::new();
                w.begin_object();
                w.field_str("kind", "metric");
                w.field_str("name", &m.name);
                w.field_str("unit", m.unit);
                w.field_str("group", group);
                w.field_f64("value", m.summary.median);
                w.field_f64("q1", m.summary.q1);
                w.field_f64("q3", m.summary.q3);
                w.field_f64("min", m.summary.min);
                w.field_f64("max", m.summary.max);
                w.field_u64("k", m.summary.k as u64);
                w.end_object();
                out.push_str(&w.finish());
                out.push('\n');
            }
        }
        out
    }

    /// The last line of standard output: the end-to-end metrics of an
    /// untraced run, or the shared per-layer metrics of a traced one.
    pub fn summary_json(&self) -> Result<String, String> {
        let (pool, names): (&[Metric], Vec<&str>) = if self.traced {
            (&self.layers, PER_LAYER.iter().map(|(n, _)| *n).collect())
        } else {
            (&self.end_to_end, END_TO_END.iter().map(|m| m.name).collect())
        };
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_bool("correct", self.failed == 0);
        w.field_u64("attempted", self.attempted);
        w.field_u64("failed", self.failed);
        w.key("metrics");
        w.begin_object();
        for name in names {
            let m = pool
                .iter()
                .find(|m| m.name == name)
                .ok_or(format!("metric {name} was not measured"))?;
            w.key(name);
            w.begin_object();
            w.field_f64("value", m.summary.median);
            w.field_str("unit", m.unit);
            w.end_object();
        }
        w.end_object();
        w.end_object();
        Ok(w.finish())
    }
}

/// A result file read back: its workload, seed and the value of each
/// end-to-end metric.
#[derive(Debug, Clone)]
pub struct Recorded {
    pub workload: String,
    pub seed: u64,
    pub values: BTreeMap<String, f64>,
}

pub fn parse_result(text: &str) -> Result<Recorded, String> {
    let mut recorded = Recorded { workload: String::new(), seed: 0, values: BTreeMap::new() };
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let fields: BTreeMap<String, JsonScalar> = parse_flat_object(line)
            .map_err(|e| format!("line {}: {e}", n + 1))?
            .into_iter()
            .collect();
        let str_of = |k: &str| fields.get(k).and_then(JsonScalar::as_str).unwrap_or("");
        match str_of("kind") {
            "run" => {
                recorded.workload = str_of("workload").to_owned();
                recorded.seed = fields.get("seed").and_then(JsonScalar::as_u64).unwrap_or(0);
            }
            "metric" if str_of("group") == END_TO_END_GROUP => {
                let value = match fields.get("value") {
                    Some(JsonScalar::U64(v)) => *v as f64,
                    Some(JsonScalar::F64(v)) => *v,
                    _ => return Err(format!("line {}: no numeric `value`", n + 1)),
                };
                recorded.values.insert(str_of("name").to_owned(), value);
            }
            _ => {}
        }
    }
    if recorded.workload.is_empty() {
        return Err("not a vswap-perf result file (no run line)".to_owned());
    }
    Ok(recorded)
}
