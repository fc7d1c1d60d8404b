//! The `paper` workload: batch work with no network.
//!
//! Each pass runs the paper's pipeline as `steam-cli` does, each phase in a
//! process of its own so its peak RSS is its own (this kernel does not
//! reliably reset the high-water mark within a process):
//!
//! * **generate** — synthesize the world, its second snapshot and the week
//!   panel on `nproc` jobs, and write both snapshots as v3 files plus the
//!   panel;
//! * **report** — open both snapshots streaming, build their contexts, and
//!   render every experiment (Table 4's second rows and Figure 12
//!   included).
//!
//! Generation is this workload's set-up (`setup_s`), the report its run
//! (`run_s`), and a whole pass its operation (`p50_ms`). The per-layer rows of the median pass plus an explicit
//! `unaccounted` row add up to each phase's wall time.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use steam_analysis::{render_full_report_timed, Ctx, Experiment, ReportInput};
use steam_model::{codec, SnapshotReader};
use steam_net::Json;
use steam_synth::Generator;

use crate::common::{self, RunArgs, WorkDir};
use crate::result::{Outcome, Values};
use crate::stats;
use crate::trace::Tracer;

/// Users in the paper world.
pub fn users(args: &RunArgs) -> usize {
    if args.smoke {
        3_000
    } else {
        200_000
    }
}

const SNAPSHOT: &str = "snapshot.bin";
const SECOND: &str = "second.bin";
const PANEL: &str = "panel.bin";

/// A phase interval inside a child process, seconds from its start.
fn phase(name: &str, t0: Instant, start: Instant) -> Json {
    Json::obj([
        ("name", Json::Str(name.into())),
        ("start_s", Json::Num(start.duration_since(t0).as_secs_f64())),
        ("end_s", Json::Num(t0.elapsed().as_secs_f64())),
    ])
}

/// Child process: `--phase generate`. Prints one JSON line.
pub fn child_generate(dir: &Path, users: usize, seed: u64, smoke: bool) -> Result<Json, String> {
    let t0 = Instant::now();
    let jobs = crate::meta::parallelism();
    let (world, timings) =
        Generator::new(common::world_config(users, seed, smoke)).generate_world_timed(jobs);
    let synth = phase("synth", t0, t0);
    let write_start = Instant::now();
    codec::write_snapshot_v3(&dir.join(SNAPSHOT), &world.snapshot, jobs)
        .map_err(|e| e.to_string())?;
    codec::write_snapshot_v3(&dir.join(SECOND), &world.second_snapshot, jobs)
        .map_err(|e| e.to_string())?;
    std::fs::write(dir.join(PANEL), codec::encode_panel(&world.panel))
        .map_err(|e| e.to_string())?;
    let write = phase("write_v3", t0, write_start);
    let stage = |name: &str| common::stage_secs(&timings, name);
    let snapshot_mb = std::fs::metadata(dir.join(SNAPSHOT))
        .map_err(|e| e.to_string())?
        .len() as f64
        / (1024.0 * 1024.0);
    let (n_users, n_friendships) = (world.snapshot.n_users(), world.snapshot.n_friendships());
    // Freeing the world is work `steam-cli generate` does too before it
    // exits; timing it keeps the unaccounted rest to process start and exit.
    let free_start = Instant::now();
    drop(world);
    let free = phase("free", t0, free_start);
    Ok(Json::obj([
        ("phases", Json::Arr(vec![synth, write, free])),
        ("synth_s", Json::Num(timings.wall.as_secs_f64())),
        ("friendships_s", Json::Num(stage("friendships"))),
        ("evolve_s", Json::Num(stage("evolve"))),
        ("ownership_s", Json::Num(stage("ownership"))),
        ("snapshot_mb", Json::Num(snapshot_mb)),
        ("users", Json::Num(n_users as f64)),
        ("friendships", Json::Num(n_friendships as f64)),
        ("rss_mb", Json::Num(common::peak_rss_mb())),
    ]))
}

/// Child process: `--phase report`. Prints one JSON line.
pub fn child_report(dir: &Path) -> Result<Json, String> {
    let t0 = Instant::now();
    let jobs = crate::meta::parallelism();
    let first = SnapshotReader::open(&dir.join(SNAPSHOT)).map_err(|e| e.to_string())?;
    let second = SnapshotReader::open(&dir.join(SECOND)).map_err(|e| e.to_string())?;
    let raw = std::fs::read(dir.join(PANEL)).map_err(|e| e.to_string())?;
    let panel = codec::decode_panel(bytes::Bytes::from(raw)).map_err(|e| e.to_string())?;
    let open = phase("open", t0, t0);
    let ctx_start = Instant::now();
    let ctx = Ctx::from_reader(&first, jobs).map_err(|e| e.to_string())?;
    let second_ctx = Ctx::from_reader(&second, jobs).map_err(|e| e.to_string())?;
    let ctx_build = phase("ctx_build", t0, ctx_start);
    let render_start = Instant::now();
    let input = ReportInput {
        ctx: &ctx,
        second: Some(&second_ctx),
        panel: Some(&panel),
    };
    let (text, timings) = render_full_report_timed(&input, jobs);
    let render = phase("render", t0, render_start);

    // Every experiment must render: a banner followed by a non-empty body.
    let mut empty = Vec::new();
    for e in Experiment::ALL {
        let banner = format!("==== {} ====\n", e.name());
        let body = text
            .split_once(&banner)
            .map(|(_, rest)| rest.split("\n==== ").next().unwrap_or(""));
        if body.is_none_or(|b| b.trim().is_empty()) {
            empty.push(e.name());
        }
    }
    let experiments = timings
        .per_experiment
        .iter()
        .map(|t| {
            Json::obj([
                ("name", Json::Str(t.experiment.name().into())),
                ("busy_s", Json::Num(t.wall.as_secs_f64())),
            ])
        })
        .collect();
    Ok(Json::obj([
        ("phases", Json::Arr(vec![open, ctx_build, render])),
        ("render_s", Json::Num(timings.wall.as_secs_f64())),
        ("busy_share", Json::Num(timings.utilization())),
        ("experiments", Json::Arr(experiments)),
        (
            "empty",
            Json::Arr(empty.into_iter().map(|n| Json::Str(n.into())).collect()),
        ),
        (
            "digest",
            Json::Str(format!("{:016x}", common::fnv1a(text.as_bytes()))),
        ),
        ("rss_mb", Json::Num(common::peak_rss_mb())),
    ]))
}

/// Runs one child phase; returns its JSON and the wall time seen from here.
fn spawn(args: &[String]) -> Result<(Json, Instant, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {args:?}: {e}"))?;
    let wall = common::secs(start);
    if !out.status.success() {
        return Err(format!("phase {args:?} failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("phase printed nothing")?;
    let json = Json::parse(line).map_err(|e| format!("phase output {line:?}: {e}"))?;
    Ok((json, start, wall))
}

fn num(json: &Json, key: &str) -> f64 {
    json.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Records a child's phase intervals as spans under `parent`.
fn record_phases(tracer: &Tracer, json: &Json, spawned: Instant, parent: u64) {
    for p in json.get("phases").and_then(Json::as_arr).unwrap_or(&[]) {
        let at = |k: &str| spawned + Duration::from_secs_f64(num(p, k).max(0.0));
        let name = p.get("name").and_then(Json::as_str).unwrap_or("phase");
        tracer.record(&format!("paper.{name}"), parent, at("start_s"), at("end_s"));
    }
}

struct Pass {
    generate_s: f64,
    report_s: f64,
    gen: Json,
    report: Json,
    traced: bool,
}

pub fn run(
    args: &RunArgs,
    tracer: &Tracer,
    log: &mut Vec<String>,
) -> Result<(Outcome, Json), String> {
    let users = users(args);
    let work = WorkDir::new("paper")?;
    let dir = work.0.to_string_lossy().to_string();
    let min_passes = if args.smoke { 2 } else { 5 };
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while !common::done(start, passes.len(), args, min_passes) {
        // A traced run alternates traced and untraced passes, to measure
        // the tracing overhead.
        let traced = args.traced && passes.len() % 2 == 1;
        tracer.set_enabled(traced);
        let pass = tracer.span("paper.pass", 0);
        let mut gen_args: Vec<String> = [
            "--phase",
            "generate",
            "--dir",
            &dir,
            "--users",
            &users.to_string(),
            "--seed",
            &args.seed.to_string(),
        ]
        .map(String::from)
        .into();
        if args.smoke {
            gen_args.push("--smoke".into());
        }
        let (gen, spawned, generate_s) = spawn(&gen_args)?;
        let gen_id = tracer.record(
            "paper.generate",
            pass.id(),
            spawned,
            spawned + Duration::from_secs_f64(generate_s),
        );
        record_phases(tracer, &gen, spawned, gen_id);
        let (report, spawned, report_s) =
            spawn(&["--phase", "report", "--dir", &dir].map(String::from))?;
        let rep_id = tracer.record(
            "paper.report",
            pass.id(),
            spawned,
            spawned + Duration::from_secs_f64(report_s),
        );
        record_phases(tracer, &report, spawned, rep_id);
        drop(pass);
        tracer.set_enabled(args.traced);
        passes.push(Pass {
            generate_s,
            report_s,
            gen,
            report,
            traced,
        });
    }

    // Checks: every experiment of every pass rendered, and every pass
    // rendered the same report.
    let n_experiments = Experiment::ALL.len() as u64;
    let mut empty_renders = 0u64;
    for (i, p) in passes.iter().enumerate() {
        let empty = p.report.get("empty").and_then(Json::as_arr).unwrap_or(&[]);
        if !empty.is_empty() {
            empty_renders += empty.len() as u64;
            log.push(format!(
                "# pass {i}: experiments rendered nothing: {}",
                Json::Arr(empty.to_vec()).to_text()
            ));
        }
    }
    let digests: Vec<&str> = passes
        .iter()
        .map(|p| p.report.get("digest").and_then(Json::as_str).unwrap_or(""))
        .collect();
    let digest_mismatch = digests.windows(2).any(|w| w[0] != w[1]);
    if digest_mismatch {
        log.push(format!(
            "# report digests differ between passes: {digests:?}"
        ));
    }

    let mut v = Values::default();
    let gen_walls: Vec<f64> = passes.iter().map(|p| p.generate_s).collect();
    let rep_walls: Vec<f64> = passes.iter().map(|p| p.report_s).collect();
    v.set("setup_s", stats::median(&gen_walls));
    v.set("run_s", stats::median(&rep_walls));
    // The workload's operation is one pass of the pipeline, generate then
    // report. The median experiment render is logged, not gated: which
    // experiment sits in the middle shifts with the seed's data, and its
    // time spread 14-19% between runs.
    let mut per_experiment: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for p in &passes {
        for e in p
            .report
            .get("experiments")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
        {
            let name = e
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            per_experiment
                .entry(name)
                .or_default()
                .push(num(e, "busy_s") * 1e3);
        }
    }
    let renders = stats::sorted(per_experiment.values().map(|v| stats::median(v)).collect());
    let p50 = stats::quantile(&renders, 0.5);
    let pass_ms: Vec<f64> = passes
        .iter()
        .map(|p| (p.generate_s + p.report_s) * 1e3)
        .collect();
    v.set("p50_ms", stats::median(&pass_ms));
    v.set(
        "setup_rss_mb",
        stats::median(
            &passes
                .iter()
                .map(|p| num(&p.gen, "rss_mb"))
                .collect::<Vec<_>>(),
        ),
    );
    v.set(
        "run_rss_mb",
        stats::median(
            &passes
                .iter()
                .map(|p| num(&p.report, "rss_mb"))
                .collect::<Vec<_>>(),
        ),
    );

    // Per-layer breakdown of the median pass of each phase: the rows plus
    // `unaccounted` sum to that pass's wall time.
    let g = &passes[stats::median_index(&gen_walls)];
    let synth = num(&g.gen, "synth_s");
    let named = num(&g.gen, "friendships_s") + num(&g.gen, "evolve_s") + num(&g.gen, "ownership_s");
    let phase_s = |json: &Json, name: &str| {
        json.get("phases")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .find(|p| p.get("name").and_then(Json::as_str) == Some(name))
            .map_or(0.0, |p| num(p, "end_s") - num(p, "start_s"))
    };
    let (write, free) = (phase_s(&g.gen, "write_v3"), phase_s(&g.gen, "free"));
    v.set("synth.friendships_s", num(&g.gen, "friendships_s"));
    v.set("synth.evolve_s", num(&g.gen, "evolve_s"));
    v.set("synth.ownership_s", num(&g.gen, "ownership_s"));
    v.set("synth.other_s", synth - named);
    v.set("model.write_v3_s", write);
    v.set("model.free_s", free);
    v.set("model.snapshot_mb", num(&g.gen, "snapshot_mb"));
    v.set(
        "paper.generate_unaccounted_s",
        g.generate_s - synth - write - free,
    );

    let r = &passes[stats::median_index(&rep_walls)];
    let (open, ctx, render) = (
        phase_s(&r.report, "open"),
        phase_s(&r.report, "ctx_build"),
        phase_s(&r.report, "render"),
    );
    v.set("model.open_s", open);
    v.set("core.ctx_build_s", ctx);
    // Experiments run concurrently; each is charged its share of the render
    // wall time in proportion to its busy time, so the rows sum to it.
    let experiments = r
        .report
        .get("experiments")
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    let busy: f64 = experiments.iter().map(|e| num(e, "busy_s")).sum();
    let share = |name: &str| {
        let b: f64 = experiments
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .map(|e| num(e, "busy_s"))
            .sum();
        if busy > 0.0 {
            render * b / busy
        } else {
            0.0
        }
    };
    let (t4, f2, ns) = (
        share("table4"),
        share("figure2"),
        share("network-structure"),
    );
    v.set("core.table4_s", t4);
    v.set("core.figure2_s", f2);
    v.set("core.network_structure_s", ns);
    v.set("core.experiments_other_s", render - t4 - f2 - ns);
    v.set("core.busy_share", num(&r.report, "busy_share"));
    v.set(
        "paper.report_unaccounted_s",
        r.report_s - open - ctx - render,
    );

    let untraced: Vec<f64> = passes
        .iter()
        .filter(|p| !p.traced)
        .map(|p| p.report_s)
        .collect();
    let traced: Vec<f64> = passes
        .iter()
        .filter(|p| p.traced)
        .map(|p| p.report_s)
        .collect();
    if !traced.is_empty() {
        v.set(
            "trace.overhead_share",
            stats::median(&traced) / stats::median(&untraced) - 1.0,
        );
    }

    log.push(format!(
        "# paper: {} passes; generate_s {:.4} (generate_rss_mb {:.1}), report_s {:.4} (report_rss_mb {:.1}); report digest {}",
        passes.len(),
        v.get("setup_s").unwrap_or(0.0),
        v.get("setup_rss_mb").unwrap_or(0.0),
        v.get("run_s").unwrap_or(0.0),
        v.get("run_rss_mb").unwrap_or(0.0),
        digests.first().copied().unwrap_or(""),
    ));
    log.push(format!(
        "# paper: per pass: generate s {:?}, report s {:?}",
        common::rounded(&gen_walls),
        common::rounded(&rep_walls),
    ));
    if let (Some(p50), Some((slowest, ms))) = (
        p50,
        per_experiment
            .iter()
            .map(|(n, v)| (n, stats::median(v)))
            .max_by(|a, b| a.1.total_cmp(&b.1)),
    ) {
        log.push(format!(
            "# paper: experiment render (median over passes) p50 {:.3} ms over {} experiments; slowest {slowest} {ms:.3} ms",
            p50.value, p50.n
        ));
    }
    log.push(format!(
        "# paper: generate unaccounted {:.1}% of {:.3} s, report unaccounted {:.1}% of {:.3} s",
        100.0 * v.get("paper.generate_unaccounted_s").unwrap_or(0.0) / g.generate_s,
        g.generate_s,
        100.0 * v.get("paper.report_unaccounted_s").unwrap_or(0.0) / r.report_s,
        r.report_s,
    ));

    let sizes = Json::obj([
        ("users", Json::Num(users as f64)),
        ("friendships", Json::Num(num(&g.gen, "friendships"))),
        ("snapshot_mb", Json::Num(num(&g.gen, "snapshot_mb"))),
        ("passes", Json::Num(passes.len() as f64)),
    ]);
    let outcome = Outcome {
        correct: empty_renders == 0 && !digest_mismatch,
        // Per pass: one generate and one render per experiment.
        attempted: passes.len() as u64 * (1 + n_experiments),
        failed: empty_renders + u64::from(digest_mismatch),
        values: v,
    };
    Ok((outcome, sizes))
}
