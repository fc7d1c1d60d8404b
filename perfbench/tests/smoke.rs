//! Smoke mode: every workload, untraced and traced, at tiny scale — runs
//! to completion, passes its output checks, and prints a valid result.

use std::process::Command;

use perfbench::result::validate;
use perfbench::WORKLOADS;

fn run(workload: &str, trace: &str) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("spawning the benchmark");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn every_workload_runs_and_validates_in_both_modes() {
    for workload in WORKLOADS {
        for (trace, traced) in [("0", false), ("1", true)] {
            let (ok, stdout) = run(workload, trace);
            assert!(ok, "{workload} --trace {trace} failed:\n{stdout}");
            let last = stdout.lines().last().expect("a result line");
            validate(last, traced)
                .unwrap_or_else(|e| panic!("{workload} --trace {trace}: {e}\n{last}"));
            assert!(last.contains(r#""correct":true"#), "{last}");
            assert!(last.contains(r#""failed":0"#), "{last}");
            assert!(
                stdout.lines().any(|l| l.starts_with(r#"{"meta":"#)),
                "no meta block:\n{stdout}"
            );
        }
    }
}

#[test]
fn same_seed_renders_the_same_paper() {
    let digest = |stdout: &str| {
        stdout
            .lines()
            .find_map(|l| l.split("report digest ").nth(1).map(str::to_string))
            .expect("a report digest line")
    };
    let (a, b) = (run("paper", "0"), run("paper", "0"));
    assert!(a.0 && b.0);
    assert_eq!(digest(&a.1), digest(&b.1));
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--seed", "1"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .unwrap();
        assert!(!out.status.success());
        assert!(
            out.stdout.is_empty(),
            "printed {:?}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
