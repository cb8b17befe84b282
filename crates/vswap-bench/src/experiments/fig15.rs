//! Figure 15: size of the guest page cache (total and excluding dirty
//! pages) versus the pages the Swap Mapper tracks, sampled over time
//! during the Eclipse workload.
//!
//! The paper's point: the tracked population coincides with the clean
//! page cache — the Mapper "correctly avoids tracking dirty pages".

use super::common::{host, linux_vm};
use super::fig13::workload;
use super::Scale;
use crate::suite::{ExperimentPlan, TaskCtx};
use crate::table::Table;
use sim_core::SimDuration;
use vswap_core::{MachineConfig, SwapPolicy};
use vswap_workloads::Eclipse;

/// A single-unit plan: one traced machine produces the whole time series.
pub fn plan(scale: Scale) -> ExperimentPlan {
    ExperimentPlan::whole("trace", move |ctx: &mut TaskCtx| {
        let interval = match scale {
            Scale::Paper => SimDuration::from_secs(5),
            Scale::Smoke => SimDuration::from_millis(200),
        };
        let cfg = MachineConfig::preset(SwapPolicy::Vswapper)
            .with_host(host(scale))
            .with_sampling(interval);
        let mut m = ctx.instrumented("trace", cfg);
        let vm = m.add_vm(linux_vm(scale, "guest", 512, 512)).expect("fits");
        m.launch(vm, Box::new(Eclipse::new(workload(scale))));
        let report = m.run();
        m.host().audit().expect("invariants hold");
        ctx.absorb_report("trace", &report);

        let mut table = Table::new(
            "Figure 15: guest page cache vs Mapper-tracked pages over time [MB]",
            vec!["t [s]", "page cache", "cache excl. dirty", "tracked by mapper"],
        );
        for s in &report.samples {
            table.push(vec![
                s.at.as_secs_f64().into(),
                (s.cache_pages as f64 * 4096.0 / 1e6).into(),
                (s.clean_cache_pages as f64 * 4096.0 / 1e6).into(),
                (s.tracked_pages as f64 * 4096.0 / 1e6).into(),
            ]);
        }
        vec![table]
    })
}

#[cfg(test)]
mod tests {
    use crate::suite::smoke_tables;

    #[test]
    fn smoke_tracked_pages_follow_the_clean_cache() {
        let tables = smoke_tables("fig15");
        let rows = tables[0].rows();
        assert!(rows.len() >= 3, "need several samples, got {}", rows.len());
        // In at least the later samples, the tracked size must be close
        // to (and never wildly above) the clean cache size.
        let mut close = 0;
        for row in rows {
            let clean = match row[2] {
                crate::table::Cell::Float(v) => v,
                _ => continue,
            };
            let tracked = match row[3] {
                crate::table::Cell::Float(v) => v,
                _ => continue,
            };
            if (tracked - clean).abs() <= (clean * 0.5).max(1.0) {
                close += 1;
            }
        }
        assert!(close * 2 >= rows.len(), "tracked must coincide with clean cache");
    }
}
