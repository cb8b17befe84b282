//! Table 1: lines of code of the VSwapper components.
//!
//! The paper reports 2,383 lines total: the Mapper as 174 QEMU + 235
//! kernel lines, the Preventer as 10 QEMU + 1,964 kernel lines. The
//! reproduction's analog splits the same way: the policy ("user") side
//! lives in `vswap-core`, the mechanism ("kernel") side in
//! `vswap-hostos`.

use super::Scale;
use crate::suite::ExperimentPlan;
use crate::table::Table;

/// Counts the non-empty, non-comment-only lines of a list of sources (a
/// rough SLOC figure). Only implementation lines count: each file is cut
/// at its first `#[cfg(test)]` line, so counted files keep their test
/// modules last.
fn sloc(files: &[&str]) -> u64 {
    files
        .iter()
        .flat_map(|src| src.lines().map(str::trim).take_while(|&l| l != "#[cfg(test)]"))
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count() as u64
}

/// A single-unit plan: counting lines needs no simulation and no RNG.
pub fn plan(scale: Scale) -> ExperimentPlan {
    ExperimentPlan::whole("sloc", move |_ctx| build(scale))
}

fn build(_scale: Scale) -> Vec<Table> {
    let mapper_user = sloc(&[include_str!("../../../vswap-core/src/mapper.rs")]);
    let preventer_kernel = sloc(&[include_str!("../../../vswap-core/src/preventer.rs")]);
    // Kernel-side mechanisms: the association table and the host-kernel
    // paths the components drive.
    let mapper_kernel = sloc(&[include_str!("../../../vswap-hostos/src/origin.rs")]);
    let kernel_shared = sloc(&[include_str!("../../../vswap-hostos/src/kernel.rs")]);

    let mut table = Table::new(
        "Table 1: lines of code (reproduction analog; paper: Mapper 174+235, Preventer 10+1964, total 2383)",
        vec!["component", "policy side (QEMU analog)", "mechanism side (kernel analog)"],
    );
    table.push(vec!["Mapper".into(), mapper_user.into(), mapper_kernel.into()]);
    // The Preventer is almost entirely kernel mechanism in the paper
    // (10 user vs 1,964 kernel lines); ours lives in one crate but plays
    // the kernel-side role.
    table.push(vec!["Preventer".into(), 0u64.into(), preventer_kernel.into()]);
    table.push(vec!["shared host-kernel paths".into(), 0u64.into(), kernel_shared.into()]);
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::smoke_tables;

    #[test]
    fn counts_are_nonzero() {
        let t = &smoke_tables("tab01")[0];
        assert!(t.value("Mapper", "policy side (QEMU analog)").unwrap() > 50.0);
        assert!(t.value("Preventer", "mechanism side (kernel analog)").unwrap() > 100.0);
    }

    #[test]
    fn sloc_skips_blank_and_comment_lines() {
        assert_eq!(sloc(&["// c\n\nlet x = 1;\n//! d\n"]), 1);
        // Test modules are cut off, and a row sums its files.
        let with_tests = "let a = 1;\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        assert_eq!(sloc(&[with_tests, "let b = 2;\n"]), 2);
    }
}
