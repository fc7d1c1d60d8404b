//! `perfbench --workload <paper|crawl|serve|all> --seed <n> --seconds <s> --trace <0|1> [--smoke]`
//!
//! Runs one workload and prints, last on stdout, one JSON line with
//! `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics, or
//! per-layer metrics with `--trace 1`). Exits non-zero, without a result
//! line, when the workload cannot run, and non-zero after the result line
//! when an output check failed.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::common::RunArgs;
use perfbench::trace::{self, Tracer};
use perfbench::{meta, paper, result, run_workload};
use steam_net::Json;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let raw = flag(args, name).ok_or_else(|| format!("missing {name}"))?;
    raw.parse().map_err(|_| format!("bad {name} {raw:?}"))
}

/// A phase of the `paper` workload, run in a process of its own.
fn child(args: &[String], phase: &str) -> Result<(), String> {
    let dir = PathBuf::from(flag(args, "--dir").ok_or("missing --dir")?);
    let json = match phase {
        "generate" => paper::child_generate(
            &dir,
            parsed(args, "--users")?,
            parsed(args, "--seed")?,
            args.iter().any(|a| a == "--smoke"),
        )?,
        "report" => paper::child_report(&dir)?,
        other => return Err(format!("unknown phase {other:?}")),
    };
    println!("{}", json.to_text());
    Ok(())
}

/// Runs `--workload`, or each workload in turn for `--workload all`.
fn run(args: &[String]) -> Result<bool, String> {
    let workload = flag(args, "--workload").ok_or("missing --workload")?;
    if workload == "all" {
        let mut all_correct = true;
        for w in perfbench::WORKLOADS {
            println!("# ==== {w} ====");
            all_correct &= run_one(args, w)?;
        }
        return Ok(all_correct);
    }
    run_one(args, &workload)
}

fn run_one(args: &[String], workload: &str) -> Result<bool, String> {
    let run_args = RunArgs {
        seed: parsed(args, "--seed")?,
        seconds: parsed(args, "--seconds")?,
        traced: match parsed::<u8>(args, "--trace")? {
            0 => false,
            1 => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
        smoke: args.iter().any(|a| a == "--smoke"),
    };
    let tracer = Tracer::new(run_args.traced);
    let (mut outcome, sizes, log) = run_workload(workload, &run_args, &tracer)?;
    for line in &log {
        println!("{line}");
    }
    if run_args.traced {
        let spans = tracer.spans();
        outcome.values.set("trace.spans", spans.len() as f64);
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let dir = exe
            .parent()
            .ok_or("benchmark binary has no directory")?
            .join("perfbench-traces");
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!("{workload}-seed{}.json", run_args.seed));
        std::fs::write(&path, trace::to_json(&spans).to_text())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("# {} spans written to {}", spans.len(), path.display());
    }
    if outcome.attempted == 0 {
        return Err("the workload attempted no operations".into());
    }
    let meta = meta::block(
        workload,
        run_args.seed,
        run_args.seconds,
        run_args.traced,
        sizes,
    );
    println!("{}", Json::obj([("meta", meta)]).to_text());
    let line = outcome.to_line(run_args.traced);
    result::validate(&line, run_args.traced)?;
    println!("{line}");
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match flag(&args, "--phase") {
        Some(phase) => child(&args, &phase).map(|()| true),
        None => run(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: an output check failed (see the log above)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper|crawl|serve|all> --seed <n> --seconds <s> --trace <0|1> [--smoke]"
            );
            ExitCode::from(2)
        }
    }
}
