//! End-to-end and per-layer benchmark of the Condensing Steam pipeline.
//!
//! Three workloads, each chosen to load different layers (see
//! `perfbench/README.md`): `paper` (synthesis, snapshot files and the
//! report, no network), `crawl` (the crawler against one server; every key
//! new) and `serve` (open-loop load on a direct server and a routed 2-shard
//! fleet; hot keys). Every run prints its host `meta` block and ends with
//! one JSON result line; see [`result`].

pub mod common;
pub mod cpus;
pub mod crawl;
pub mod meta;
pub mod openloop;
pub mod paper;
pub mod result;
pub mod search;
pub mod serve;
pub mod stats;
pub mod trace;

use steam_net::Json;

use common::RunArgs;
use result::Outcome;
use trace::Tracer;

pub const WORKLOADS: [&str; 3] = ["paper", "crawl", "serve"];

/// Runs one workload: its outcome, world sizes, and log lines.
pub fn run_workload(
    name: &str,
    args: &RunArgs,
    tracer: &Tracer,
) -> Result<(Outcome, Json, Vec<String>), String> {
    let mut log = Vec::new();
    let (outcome, sizes) = match name {
        "paper" => paper::run(args, tracer, &mut log)?,
        "crawl" => crawl::run(args, tracer, &mut log)?,
        "serve" => serve::run(args, tracer, &mut log)?,
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {WORKLOADS:?})"
            ))
        }
    };
    Ok((outcome, sizes, log))
}
