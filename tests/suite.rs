//! The parallel suite's core guarantee: `run_suite` output is bitwise
//! identical for every worker count — tables and merged metrics both.
//!
//! A smoke-scale subset keeps this fast enough for every `cargo test`;
//! CI's `vswap verify-tables --jobs 2` checks all 21 experiments
//! against the golden corpus on top.

use vswap_bench::suite::{run_suite, SuiteOptions, DEFAULT_SEED};
use vswap_bench::Scale;

/// The subset exercised here: a per-config experiment, a sweep-point
/// experiment, a multi-table experiment, and a single-unit experiment —
/// every unit-decomposition shape the suite has.
fn subset() -> Vec<String> {
    ["fig03", "fig05", "fig09", "fig15"].iter().map(|s| (*s).to_owned()).collect()
}

#[test]
fn four_workers_match_one_worker_bitwise() {
    let serial = run_suite(&SuiteOptions::new(Scale::Smoke).with_jobs(1).with_only(subset()));
    let parallel = run_suite(&SuiteOptions::new(Scale::Smoke).with_jobs(4).with_only(subset()));
    assert_eq!(parallel.jobs, 4);
    assert_eq!(
        serial.rendered(),
        parallel.rendered(),
        "tables must be bitwise identical across worker counts"
    );
    assert_eq!(
        serial.metrics.to_string(),
        parallel.metrics.to_string(),
        "merged metrics must be identical across worker counts"
    );
}

/// An experiment's tables do not depend on which other experiments share
/// its `run_suite` call: the experiment unit tests and `vswap-perf` run
/// one experiment per call and rely on this.
#[test]
fn an_experiment_run_alone_matches_its_run_in_a_subset() {
    use vswap_bench::suite::render_experiment;
    let suite = run_suite(&SuiteOptions::new(Scale::Smoke).with_jobs(4).with_only(subset()));
    for exp in &suite.experiments {
        let alone =
            run_suite(&SuiteOptions::new(Scale::Smoke).with_jobs(1).with_only(vec![exp.id.into()]));
        assert_eq!(
            render_experiment(exp.id, exp.title, &exp.tables),
            alone.rendered(),
            "{}: alone and in the subset must agree",
            exp.id
        );
    }
}

#[test]
fn unit_streams_do_not_collide() {
    use vswap_bench::TaskCtx;
    // Distinct unit labels under one root seed get distinct streams, and
    // distinct root seeds shift every stream — the machine seeds a unit
    // draws are a pure function of (root seed, qualified label).
    let a = TaskCtx::standalone(DEFAULT_SEED, "fig05/baseline/512MB").seed();
    let b = TaskCtx::standalone(DEFAULT_SEED, "fig05/baseline/240MB").seed();
    let c = TaskCtx::standalone(DEFAULT_SEED ^ 0xdead_beef, "fig05/baseline/512MB").seed();
    let a2 = TaskCtx::standalone(DEFAULT_SEED, "fig05/baseline/512MB").seed();
    assert_ne!(a, b, "sibling units must draw from distinct streams");
    assert_ne!(a, c, "the root seed must reach the unit streams");
    assert_eq!(a, a2, "a unit's stream is reproducible");
}

#[test]
fn suite_reports_per_experiment_unit_counts() {
    let suite = run_suite(&SuiteOptions::new(Scale::Smoke).with_jobs(2).with_only(subset()));
    let units: std::collections::BTreeMap<&str, usize> =
        suite.experiments.iter().map(|e| (e.id, e.unit_count)).collect();
    assert_eq!(units["fig03"], 4, "one unit per configuration");
    assert_eq!(units["fig05"], 12, "one unit per (policy, MB) sweep point");
    assert_eq!(units["fig15"], 1, "a traced machine is indivisible");
    assert!(suite.metrics.scopes().any(|s| s.starts_with("fig03/")), "task metrics are namespaced");
}
