//! `vswap-perf compare A B`: the verdict for every workload and
//! end-to-end metric, B (the change) against A (the baseline).

use crate::metrics::{Better, EndToEnd, Gate, END_TO_END};
use crate::result::{parse_result, Recorded};
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The spread between runs exceeds the bound, so a change within it
    /// cannot be told from noise.
    Unresolved,
}

/// How much worse `b` is than `a`, in the metric's unit.
fn worse_by(m: &EndToEnd, a: f64, b: f64) -> f64 {
    match m.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    }
}

/// Judges `b` against `a` by their medians and spreads.
pub fn verdict(m: &EndToEnd, a: &Summary, b: &Summary) -> Verdict {
    let tolerance = (m.bound * a.median.abs()).max(m.floor);
    let worse_by = worse_by(m, a.median, b.median);
    let every_run_better = match m.better {
        Better::Lower => b.max < a.min,
        Better::Higher => b.min > a.max,
    };
    let spread = (a.q3 - a.q1).max(b.q3 - b.q1);
    if spread > tolerance {
        if every_run_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > tolerance {
        Verdict::Worse
    } else if -worse_by > tolerance {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Judges pairs of values with no tolerance: worse if any pair got
/// worse, better if none did and some got better.
fn exact_verdict(m: &EndToEnd, pairs: impl IntoIterator<Item = (f64, f64)>) -> Verdict {
    let mut verdict = Verdict::Same;
    for (a, b) in pairs {
        let worse_by = worse_by(m, a, b);
        if worse_by > 0.0 {
            return Verdict::Worse;
        }
        if worse_by < 0.0 {
            verdict = Verdict::Better;
        }
    }
    verdict
}

fn values<'r>(runs: &'r [Recorded], metric: &'r str) -> impl Iterator<Item = f64> + 'r {
    runs.iter().filter_map(move |r| r.values.get(metric).copied())
}

fn mean(runs: &[Recorded], metric: &str) -> f64 {
    let (sum, n) = values(runs, metric).fold((0.0, 0), |(s, n), v| (s + v, n + 1));
    sum / f64::from(n.max(1))
}

fn sorted_seeds(runs: &[Recorded]) -> Vec<u64> {
    let mut seeds: Vec<u64> = runs.iter().map(|r| r.seed).collect();
    seeds.sort_unstable();
    seeds
}

/// The verdict on `m` for the runs of one workload, and the bound it
/// was judged by.
fn judge(m: &EndToEnd, a: &[Recorded], b: &[Recorded]) -> Option<(Verdict, String)> {
    let exact = || "exact".to_owned();
    Some(match m.gate {
        Gate::Exact => (exact_verdict(m, [(mean(a, m.name), mean(b, m.name))]), exact()),
        Gate::Seeded if sorted_seeds(a) == sorted_seeds(b) => {
            let pairs = a.iter().filter_map(|ra| {
                let rb = b.iter().find(|r| r.seed == ra.seed)?;
                Some((*ra.values.get(m.name)?, *rb.values.get(m.name)?))
            });
            (exact_verdict(m, pairs), exact())
        }
        Gate::Bound | Gate::Seeded => {
            (verdict(m, &pool(a, m.name)?, &pool(b, m.name)?), format!("{}%", m.bound * 100.0))
        }
    })
}

/// Result files of one side: a file, or every `.jsonl` file in a
/// directory.
fn load(path: &Path) -> Result<Vec<Recorded>, String> {
    let files = if path.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .collect();
        files.sort();
        files
    } else {
        vec![path.to_path_buf()]
    };
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            parse_result(&text).map_err(|e| format!("{}: {e}", f.display()))
        })
        .collect()
}

/// The runs of one workload on one side pool into the median and
/// spread of their values.
fn pool(runs: &[Recorded], metric: &str) -> Option<Summary> {
    Summary::of(&values(runs, metric).collect::<Vec<_>>())
}

/// Renders the comparison table; the flag is true if any verdict is
/// `worse`.
pub fn compare(a: &Path, b: &Path) -> Result<(String, bool), String> {
    let (a, b) = (load(a)?, load(b)?);
    let by_workload = |runs: &[Recorded]| {
        let mut map: BTreeMap<String, Vec<Recorded>> = BTreeMap::new();
        for r in runs {
            map.entry(r.workload.clone()).or_default().push(r.clone());
        }
        map
    };
    let (a, b) = (by_workload(&a), by_workload(&b));
    let mut out = format!(
        "{:<20} {:<17} {:>14} {:>9} {:>14} {:>9} {:>6}  verdict\n",
        "workload", "metric", "A median", "A IQR", "B median", "B IQR", "bound"
    );
    let mut any_worse = false;
    for (workload, a_runs) in &a {
        let Some(b_runs) = b.get(workload) else {
            let _ = writeln!(out, "{workload:<20} (only in A)");
            continue;
        };
        for m in &END_TO_END {
            let (Some(sa), Some(sb), Some((v, bound))) =
                (pool(a_runs, m.name), pool(b_runs, m.name), judge(m, a_runs, b_runs))
            else {
                continue;
            };
            any_worse |= v == Verdict::Worse;
            let _ = writeln!(
                out,
                "{workload:<20} {:<17} {:>14.6} {:>8.2}% {:>14.6} {:>8.2}% {:>6}  {}",
                m.name,
                sa.median,
                sa.relative_iqr() * 100.0,
                sb.median,
                sb.relative_iqr() * 100.0,
                bound,
                format!("{v:?}").to_lowercase(),
            );
        }
    }
    for workload in b.keys().filter(|w| !a.contains_key(*w)) {
        let _ = writeln!(out, "{workload:<20} (only in B)");
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    fn spread(median: f64, half_iqr: f64) -> Summary {
        Summary {
            median,
            q1: median - half_iqr,
            q3: median + half_iqr,
            min: median - 2.0 * half_iqr,
            max: median + 2.0 * half_iqr,
            k: 9,
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let wall = end_to_end("wall_s").unwrap();
        let b = wall.bound;
        let base = spread(10.0, 0.1);
        assert_eq!(verdict(wall, &base, &spread(10.0 * (1.0 + b / 2.0), 0.1)), Verdict::Same);
        let slower = 10.0 * (1.0 + 2.0 * b);
        assert_eq!(verdict(wall, &base, &spread(slower, 0.1)), Verdict::Worse);
        let faster = 10.0 * (1.0 - 2.0 * b);
        assert_eq!(verdict(wall, &base, &spread(faster, 0.1)), Verdict::Better);
        let noisy = spread(10.0, 10.0 * b);
        assert_eq!(verdict(wall, &base, &spread(slower, 10.0 * b)), Verdict::Unresolved);
        assert_eq!(verdict(wall, &noisy, &spread(2.0, 0.1)), Verdict::Better, "disjoint");

        let rate = end_to_end("pages_per_s").unwrap();
        assert_eq!(verdict(rate, &base, &spread(faster, 0.1)), Verdict::Worse);

        let setup = end_to_end("setup_s").unwrap();
        let tiny = Summary::exact(0.001);
        assert_eq!(verdict(setup, &tiny, &Summary::exact(0.004)), Verdict::Same, "5 ms floor");
    }

    fn runs(m: &EndToEnd, values: &[(u64, f64)]) -> Vec<Recorded> {
        values
            .iter()
            .map(|&(seed, v)| Recorded {
                workload: "w".to_owned(),
                seed,
                values: [(m.name.to_owned(), v)].into_iter().collect(),
            })
            .collect()
    }

    #[test]
    fn simulated_metrics_are_judged_seed_by_seed() {
        let sim = end_to_end("sim_disk_sectors").unwrap();
        let judge =
            |a: &[(u64, f64)], b: &[(u64, f64)]| judge(sim, &runs(sim, a), &runs(sim, b)).unwrap();
        let a = [(1, 1000.0), (2, 5000.0)];
        assert_eq!(judge(&a, &[(2, 5000.0), (1, 1000.0)]).0, Verdict::Same);
        assert_eq!(judge(&a, &[(1, 999.0), (2, 5000.0)]).0, Verdict::Better);
        assert_eq!(judge(&a, &[(1, 900.0), (2, 5001.0)]), (Verdict::Worse, "exact".to_owned()));
        // Other seeds: judged by medians within the bound.
        let near = [(1, 1000.0), (2, 1002.0)];
        assert_eq!(judge(&near, &[(3, 1001.0), (4, 1003.0)]), (Verdict::Same, "1%".to_owned()));
    }

    #[test]
    fn one_failed_check_in_a_suite_run_is_worse() {
        let pass = end_to_end("pass_ratio").unwrap();
        // A suite-smoke run makes about 229 checks.
        let one_failed = 1.0 - 1.0 / 229.0;
        let clean: Vec<(u64, f64)> = (1..=10).map(|seed| (seed, 1.0)).collect();
        let mut b = clean.clone();
        b[3].1 = one_failed;
        let verdict = |a: &[(u64, f64)], b: &[(u64, f64)]| {
            judge(pass, &runs(pass, a), &runs(pass, b)).unwrap().0
        };
        assert_eq!(verdict(&clean, &b), Verdict::Worse);
        // Whatever seeds either side ran.
        assert_eq!(verdict(&clean, &[(99, one_failed)]), Verdict::Worse);
        assert_eq!(verdict(&clean, &clean), Verdict::Same);
        assert_eq!(verdict(&b, &clean), Verdict::Better);
    }
}
