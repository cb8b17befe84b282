//! Figure 4: the dynamic-conditions headline — average completion time
//! of ten phased MapReduce guests (the 10-guest point of Figure 14).
//!
//! Paper values (seconds): balloon+base 153→167, baseline 153,
//! vswapper 88, balloon+vswapper 97 — "VSwapper configurations are up to
//! twice as fast as baseline ballooning" because the balloon manager
//! cannot reapportion memory fast enough.

use super::common::FOUR_CONFIGS;
use super::fig14::run_point;
use super::Scale;
use crate::suite::{ExperimentPlan, TaskCtx, Unit, UnitOut};
use crate::table::Table;

/// Paper-reported mean runtimes for the four configurations.
pub const PAPER_SECONDS: [(&str, f64); 4] =
    [("baseline", 153.0), ("balloon+base", 167.0), ("vswapper", 88.0), ("balloon+vswap", 97.0)];

/// One unit per configuration: each ten-guest consolidation run is an
/// independent (and expensive) simulation.
pub fn plan(scale: Scale) -> ExperimentPlan {
    let guests = match scale {
        Scale::Paper => 10,
        Scale::Smoke => 5,
    };
    let units = FOUR_CONFIGS
        .iter()
        .map(|&policy| {
            Unit::new(policy.label(), move |ctx: &mut TaskCtx| {
                let (mean, _) = run_point(scale, policy, guests, ctx);
                UnitOut::Value(mean)
            })
        })
        .collect();
    ExperimentPlan::new(units, |outs| {
        let mut table = Table::new(
            "Figure 4: mean completion time of ten phased MapReduce guests [s]",
            vec!["config", "measured [s]", "paper [s]"],
        );
        for ((policy, &(label, paper)), out) in
            FOUR_CONFIGS.iter().zip(PAPER_SECONDS.iter()).zip(outs)
        {
            debug_assert_eq!(label, policy.label());
            table.push(vec![policy.label().into(), out.into_value().into(), paper.into()]);
        }
        vec![table]
    })
}
