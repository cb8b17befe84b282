//! Binary-level integration tests for the `vswap` CLI: invalid inputs
//! must be rejected at the process boundary, with a non-zero exit code
//! and a diagnostic on stderr.

use std::process::Command;

fn vswap(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_vswap")).args(args).output().expect("vswap binary runs")
}

#[test]
fn rejects_actual_above_mem() {
    let out = vswap(&["run", "--mem", "512", "--actual", "600"]);
    assert!(!out.status.success(), "oversubscribed --actual must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--actual cannot exceed --mem"),
        "stderr must explain the rejection: {stderr}"
    );
}

#[test]
fn rejects_zero_guests() {
    let out = vswap(&["run", "--guests", "0"]);
    assert!(!out.status.success(), "--guests 0 must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--guests must be at least 1"),
        "stderr must explain the rejection: {stderr}"
    );
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = vswap(&["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("--trace-out"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = vswap(&["frobnicate"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn a_guest_smaller_than_its_kernel_is_a_config_error() {
    // The Linux guest reserves 32 MB for its kernel.
    for cmd in ["run", "trace", "migrate", "pathology"] {
        let out = vswap(&[cmd, "--mem", "32"]);
        assert_eq!(out.status.code(), Some(1), "`{cmd}` must fail cleanly, not panic");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("config: guest") && stderr.contains("kernel pages"), "{stderr}");
    }
}

#[test]
fn analyze_rejects_a_malformed_stamp_and_names_its_line() {
    let dir = std::env::temp_dir().join(format!("vswap-cli-analyze-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.jsonl");
    std::fs::write(
        &path,
        concat!(
            r#"{"seq":0,"ns":100,"vm":0,"kind":"page_fault","span":1}"#,
            "\n",
            r#"{"seq":1,"ns":"late","vm":0,"kind":"disk_complete","parent":1,"latency_ns":2.5}"#,
            "\n",
        ),
    )
    .unwrap();
    let out = vswap(&["analyze", path.to_str().unwrap()]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(1), "a malformed stamp must fail the analysis");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2:"), "the error must name the line: {stderr}");
}

#[test]
fn suite_subcommands_reject_the_options_they_ignore() {
    let cases: [(&str, &[&str]); 5] = [
        ("figures", &["--bless"]),
        ("figures", &["--bench-out", "bench.json"]),
        ("figures", &["--dump-dir", "tables"]),
        ("verify-tables", &["--seed", "5"]),
        ("verify-tables", &["--smoke"]),
    ];
    for (cmd, option) in cases {
        let mut args = vec![cmd, "--jobs", "1"];
        args.extend_from_slice(option);
        args.push("tab01");
        let out = vswap(&args);
        assert!(!out.status.success(), "`{cmd} {}` must fail", option[0]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("`{cmd}` does not take {}", option[0])),
            "the error must name the subcommand: {stderr}"
        );
    }
}

#[test]
fn figures_prints_the_golden_tables_at_every_worker_count() {
    let golden = ["fig03", "fig15"].map(|id| vswap_bench::golden::golden(id).expect("in corpus"));
    for jobs in ["1", "3"] {
        let out = vswap(&["figures", "--smoke", "--jobs", jobs, "fig03", "fig15"]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            golden.concat(),
            "stdout at --jobs {jobs} must be exactly the two golden files"
        );
    }
}
