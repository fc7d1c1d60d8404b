//! The `serve` workload: open-loop load on a direct server and on a 2-shard
//! fleet behind the scatter-gather router.
//!
//! The request mix is skewed toward a few popular keys: about 80% of
//! requests go to a hot set — the app list and batch `GetPlayerSummaries`
//! calls whose ids straddle both shards — and about 20% to per-user
//! endpoints of users drawn from the whole world. Hot keys hit the wire
//! cache; this is the counterpart of `crawl`, where every key is new.
//!
//! Passes run until the time budget is spent. Each sends one seeded
//! schedule at a fixed nominal rate to the direct server and then,
//! unchanged, to the router, followed by a closed-loop burst of a fixed
//! size through the router. The servers and the load generator share one
//! CPU (see [`crate::cpus`]); synthesis uses every CPU. The routed half
//! is the only part of the benchmark that runs the router and the shard
//! service, so a router change should move this workload's numbers and
//! leave `crawl` alone. Every answer must be `200` with the body the
//! direct service gives for that target.
//!
//! End to end: `setup_s` builds the world, splits it and binds the four
//! servers (median of several set-ups); `run_s` is the routed burst and
//! `p50_ms` the routed median latency at the nominal rate, each the lower
//! quartile over passes (see [`stats::lower_quartile`]). The tails, the
//! direct door's numbers, the
//! router hop and, in a traced run, each door's highest rate meeting the
//! latency limit are per-layer rows.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use steam_api::{
    serve_router_config, serve_service_config, serve_shard_config, split_snapshot, ApiService,
    RateLimit, RouterConfig, RouterService, ShardService,
};
use steam_model::Snapshot;
use steam_net::http::{write_request, Request};
use steam_net::{Handler, HttpServer, Json};
use steam_obs::Registry;
use steam_synth::{GenTimings, Generator};

use crate::common::{self, splitmix64, RunArgs};
use crate::cpus::Cpus;
use crate::crawl::{cli_limits, cli_server};
use crate::openloop::{self, RunResult, Targets};
use crate::result::{Outcome, Values};
use crate::search::{self, Probe, SearchSpec};
use crate::stats;
use crate::trace::Tracer;

/// Tail-latency limit for the highest sustainable rate.
pub const LIMIT_MS: f64 = 5.0;

/// Connections of the closed-loop burst. The router's reactor runs each
/// handler inline, so it answers one request at a time whatever the
/// connection count; more connections would only add load threads on the
/// one CPU.
const BURST_CONNS: usize = 1;

/// Sizes of one run.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub users: usize,
    pub setups: usize,
    /// Passes run until the time budget is spent, and at least this many.
    pub min_passes: usize,
    /// Offered rate of the nominal open-loop phases, requests per second.
    pub nominal_rps: f64,
    pub nominal_requests: usize,
    pub burst_requests: usize,
    /// Requests the burst connection keeps in flight.
    pub burst_window: usize,
    pub probe_secs: f64,
    pub search_steps: usize,
}

impl Plan {
    pub fn new(args: &RunArgs) -> Plan {
        if args.smoke {
            Plan {
                users: 2_000,
                setups: 2,
                min_passes: 2,
                nominal_rps: 500.0,
                nominal_requests: 150,
                burst_requests: 400,
                burst_window: 16,
                probe_secs: 0.2,
                search_steps: 1,
            }
        } else {
            Plan {
                users: 100_000,
                setups: 9,
                min_passes: 8,
                nominal_rps: 2_000.0,
                nominal_requests: 500,
                burst_requests: 1_000,
                burst_window: 32,
                probe_secs: 0.5,
                search_steps: 4,
            }
        }
    }
}

/// The servers of one set-up.
struct Fleet {
    snapshot: Arc<Snapshot>,
    direct: HttpServer,
    direct_reg: Arc<Registry>,
    shards: Vec<(HttpServer, Arc<Registry>)>,
    router: HttpServer,
    router_reg: Arc<Registry>,
    router_service: Arc<RouterService>,
    synth: GenTimings,
    /// The CPU the servers and load run on, if pinning was allowed.
    pinned: Option<usize>,
}

/// Synthesizes on every CPU of `cpus`, then pins the calling thread to
/// one of them before starting the servers, so their threads and the load
/// threads started later share that CPU.
fn setup(users: usize, seed: u64, smoke: bool, cpus: &Cpus) -> Result<Fleet, String> {
    cpus.widen();
    let jobs = crate::meta::parallelism();
    let (world, synth) =
        Generator::new(common::world_config(users, seed, smoke)).generate_world_timed(jobs);
    let pinned = cpus.pin_first();
    let snapshot = Arc::new(world.snapshot);
    let direct_reg = Arc::new(Registry::new());
    let (direct, _) = serve_service_config(
        ApiService::new(Arc::clone(&snapshot), cli_limits()),
        "127.0.0.1:0",
        cli_server(),
        Some(Arc::clone(&direct_reg)),
        None,
    )
    .map_err(|e| format!("binding the direct server: {e}"))?;
    let mut shards = Vec::new();
    for store in split_snapshot(&snapshot, 2) {
        let reg = Arc::new(Registry::new());
        let (server, _) = serve_shard_config(
            ShardService::new(store, cli_limits()),
            "127.0.0.1:0",
            cli_server(),
            Some(Arc::clone(&reg)),
            None,
        )
        .map_err(|e| format!("binding a shard: {e}"))?;
        shards.push((server, reg));
    }
    let router_reg = Arc::new(Registry::new());
    let addrs = shards.iter().map(|(s, _)| s.addr()).collect();
    let (router, router_service) = serve_router_config(
        RouterService::new(addrs, RouterConfig::default()),
        "127.0.0.1:0",
        cli_server(),
        Some(Arc::clone(&router_reg)),
    )
    .map_err(|e| format!("binding the router: {e}"))?;
    Ok(Fleet {
        snapshot,
        direct,
        direct_reg,
        shards,
        router,
        router_reg,
        router_service,
        synth,
        pinned,
    })
}

/// Distinct request targets with their wire bytes and reference bodies,
/// plus the seeded streams that index them.
struct Mix {
    hot: Vec<String>,
    seed: u64,
    ids: Vec<String>,
    reference: ApiService,
    index: HashMap<String, u32>,
    wire: Vec<Vec<u8>>,
    bodies: Vec<Vec<u8>>,
    /// Reference answers that were not `200` (a bad target, never expected).
    bad_references: u64,
}

impl Mix {
    fn new(snapshot: &Arc<Snapshot>, seed: u64) -> Mix {
        let ids: Vec<String> = snapshot.accounts.iter().map(|a| a.id.to_string()).collect();
        let mut hot = vec!["/ISteamApps/GetAppList/v2".to_string()];
        // Consecutive accounts alternate between the two shards.
        for k in 0..16u64 {
            let start = (splitmix64(seed ^ (0x5eed << 8) ^ k) as usize) % ids.len();
            let batch: Vec<&str> = (0..10.min(ids.len()))
                .map(|j| ids[(start + j) % ids.len()].as_str())
                .collect();
            hot.push(format!(
                "/ISteamUser/GetPlayerSummaries/v2?steamids={}",
                batch.join(",")
            ));
        }
        // The reference service answers in-process, with its own (disabled)
        // cache, so computing references warms none of the measured servers.
        let unlimited = RateLimit {
            per_key_rps: 1e12,
            burst: 1e12,
        };
        let reference = ApiService::new(Arc::clone(snapshot), unlimited).without_cache();
        Mix {
            hot,
            seed,
            ids,
            reference,
            index: HashMap::new(),
            wire: Vec::new(),
            bodies: Vec::new(),
            bad_references: 0,
        }
    }

    /// Target `i` of stream `stream`.
    fn target(&self, stream: u64, i: u64) -> String {
        let r = splitmix64(self.seed ^ splitmix64(stream) ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        if r % 100 < 80 {
            return self.hot[((r >> 8) % self.hot.len() as u64) as usize].clone();
        }
        let id = &self.ids[((r >> 16) % self.ids.len() as u64) as usize];
        match (r >> 48) % 3 {
            0 => format!("/ISteamUser/GetFriendList/v1?steamid={id}"),
            1 => format!("/IPlayerService/GetOwnedGames/v1?steamid={id}"),
            _ => format!("/ISteamUser/GetUserGroupList/v1?steamid={id}"),
        }
    }

    /// The first `n` targets of `stream`, with references computed for any
    /// target not seen before.
    fn schedule(&mut self, stream: u64, n: usize) -> Vec<u32> {
        (0..n as u64)
            .map(|i| {
                let t = self.target(stream, i);
                if let Some(&id) = self.index.get(&t) {
                    return id;
                }
                let answer = self.reference.handle(Request::get(&t));
                if answer.status != 200 {
                    self.bad_references += 1;
                }
                let mut wire = Vec::new();
                write_request(&mut wire, &Request::get(&t)).expect("writing to a Vec");
                let id = self.wire.len() as u32;
                self.wire.push(wire);
                self.bodies.push(answer.body);
                self.index.insert(t, id);
                id
            })
            .collect()
    }
}

/// One phase's requests as the load generator sees them.
struct Phase<'a> {
    mix: &'a Mix,
    ids: &'a [u32],
}

impl Targets for Phase<'_> {
    fn request(&self, i: usize) -> &[u8] {
        &self.mix.wire[self.ids[i] as usize]
    }

    fn expected(&self, i: usize) -> &[u8] {
        &self.mix.bodies[self.ids[i] as usize]
    }
}

/// One load phase: `rate` requests per second open-loop, or
/// `f64::INFINITY` for a closed-loop burst, over `conns` connections with
/// at most `window` requests in flight on each. Recorded as one span with
/// a child span per request.
#[allow(clippy::too_many_arguments)]
fn phase(
    tracer: &Tracer,
    parent: u64,
    name: &str,
    addr: SocketAddr,
    rate: f64,
    (conns, window): (usize, usize),
    mix: &Mix,
    ids: &[u32],
) -> RunResult {
    let span = tracer.span(name, parent);
    let result = openloop::run(addr, rate, ids.len(), conns, window, &Phase { mix, ids });
    let span_id = span.id();
    drop(span);
    let request_name = format!("{name}.request");
    tracer.record_batch(
        result
            .timeline
            .iter()
            .map(|&(due, done)| (request_name.clone(), span_id, due, done)),
    );
    result
}

#[derive(Default)]
struct Totals {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Totals {
    fn add(&mut self, r: &RunResult) {
        self.attempted += r.attempted;
        self.failed += r.failed();
        if self.first_error.is_none() {
            self.first_error.clone_from(&r.first_error);
        }
    }
}

pub fn run(
    args: &RunArgs,
    tracer: &Tracer,
    log: &mut Vec<String>,
) -> Result<(Outcome, Json), String> {
    let plan = Plan::new(args);
    // Restores every CPU to this thread when the workload returns.
    let cpus = Cpus::current();
    // Load connections: one per CPU of the unpinned process.
    let conns = crate::meta::parallelism();
    let timed_setup = |setups: &mut Vec<f64>| -> Result<Fleet, String> {
        let span = tracer.span("serve.setup", 0);
        let t = Instant::now();
        let fleet = setup(plan.users, args.seed, args.smoke, &cpus)?;
        setups.push(common::secs(t));
        drop(span);
        Ok(fleet)
    };
    let mut setups = Vec::new();
    let fleet = timed_setup(&mut setups)?;
    // Peak RSS through one set-up. The other set-ups are timed after the
    // passes, so the heap they churn reaches neither RSS figure.
    let setup_rss = common::peak_rss_mb();
    let mut mix = Mix::new(&fleet.snapshot, args.seed);
    let (direct, router) = (fleet.direct.addr(), fleet.router.addr());

    let mut totals = Totals::default();
    let (mut direct_lat, mut routed_lat, mut late) = (Vec::new(), Vec::new(), Vec::new());
    let (mut direct_wall, mut routed_wall) = (0.0, 0.0);
    let mut bursts: Vec<(f64, bool)> = Vec::new();
    // Per pass: routed p50 and tail at the nominal rate.
    let (mut pass_p50, mut pass_tail) = (Vec::new(), Vec::new());
    // Peak RSS through the set-up and the first pass: later passes only
    // add the load generator's own buffers.
    let mut run_rss = 0.0;
    let open = (conns, openloop::MAX_IN_FLIGHT);
    let start = Instant::now();
    let mut p = 0;
    while !common::done(start, p, args, plan.min_passes) {
        let traced = args.traced && p % 2 == 1;
        tracer.set_enabled(traced);
        let nominal = mix.schedule(2 * p as u64, plan.nominal_requests);
        let burst = mix.schedule(2 * p as u64 + 1, plan.burst_requests);
        let pass = tracer.span("serve.pass", 0);
        let d = phase(
            tracer,
            pass.id(),
            "serve.direct",
            direct,
            plan.nominal_rps,
            open,
            &mix,
            &nominal,
        );
        let r = phase(
            tracer,
            pass.id(),
            "serve.routed",
            router,
            plan.nominal_rps,
            open,
            &mix,
            &nominal,
        );
        let b = phase(
            tracer,
            pass.id(),
            "serve.burst",
            router,
            f64::INFINITY,
            (BURST_CONNS, plan.burst_window),
            &mix,
            &burst,
        );
        drop(pass);
        tracer.set_enabled(args.traced);
        for x in [&d, &r, &b] {
            totals.add(x);
        }
        direct_wall += d.wall.as_secs_f64();
        routed_wall += r.wall.as_secs_f64() + b.wall.as_secs_f64();
        direct_lat.extend_from_slice(&d.latency_ms);
        let sorted = stats::sorted(r.latency_ms.clone());
        pass_p50.push(stats::quantile(&sorted, 0.5).map_or(f64::INFINITY, |p| p.value));
        pass_tail.push(stats::tail(&sorted).map_or(f64::INFINITY, |p| p.value));
        routed_lat.extend_from_slice(&r.latency_ms);
        late.extend(d.late_ms.iter().chain(&r.late_ms));
        bursts.push((b.wall.as_secs_f64(), traced));
        if p == 0 {
            run_rss = common::peak_rss_mb();
        }
        p += 1;
    }

    let mut v = Values::default();
    let (direct_lat, routed_lat, late) = (
        stats::sorted(direct_lat),
        stats::sorted(routed_lat),
        stats::sorted(late),
    );
    let burst_walls: Vec<f64> = bursts.iter().map(|b| b.0).collect();
    v.set("run_s", stats::lower_quartile(&burst_walls));
    let routed_p50 = stats::quantile(&routed_lat, 0.5);
    let routed_tail = stats::tail(&routed_lat);
    let direct_p50 = stats::quantile(&direct_lat, 0.5);
    v.set("p50_ms", stats::lower_quartile(&pass_p50));
    v.set("setup_rss_mb", setup_rss);

    if args.traced {
        // Highest rate each front door sustains within the latency limit.
        let mut probe_stream = 1_000u64;
        for (name, addr, metric) in [
            ("serve.search.direct", direct, "serve.direct_max_rps"),
            ("serve.search.routed", router, "serve.routed_max_rps"),
        ] {
            let spec = SearchSpec {
                start: plan.nominal_rps,
                floor: plan.nominal_rps / 8.0,
                // Above the servers' rate limit, 429s are the right answer.
                ceiling: cli_limits().per_key_rps,
                limit_ms: LIMIT_MS,
                steps: plan.search_steps,
            };
            let span = tracer.span(name, 0);
            let (found, probes) = search::max_rps(spec, |rate| {
                probe_stream += 1;
                let n = ((rate * plan.probe_secs) as usize).max(200);
                let ids = mix.schedule(probe_stream, n);
                let r = phase(tracer, span.id(), name, addr, rate, open, &mix, &ids);
                totals.add(&r);
                if addr == direct {
                    direct_wall += r.wall.as_secs_f64();
                } else {
                    routed_wall += r.wall.as_secs_f64();
                }
                let tail = stats::tail(&stats::sorted(r.latency_ms.clone()));
                Probe {
                    tail_ms: tail.map_or(f64::INFINITY, |t| t.value),
                    backlog_growing: r.backlog_growing(LIMIT_MS),
                    failed: r.failed(),
                }
            });
            drop(span);
            v.set(metric, found);
            log.push(format!(
                "# serve: {metric} = {found:.0} req/s within {LIMIT_MS} ms; probes (req/s, met): {:?}",
                probes.iter().map(|&(r, m)| (r.round(), m)).collect::<Vec<_>>()
            ));
        }
    }
    v.set("run_rss_mb", run_rss);

    // Per-layer rows.
    common::set_synth_rows(&mut v, &fleet.synth);
    let direct_p99 = stats::quantile(&direct_lat, 0.99);
    v.set("serve.direct_p50_ms", direct_p50.map_or(0.0, |p| p.value));
    v.set("serve.direct_p99_ms", direct_p99.map_or(0.0, |p| p.value));
    v.set(
        "serve.routed_p99_ms",
        stats::quantile(&routed_lat, 0.99).map_or(0.0, |p| p.value),
    );
    if let (Some(r), Some(d)) = (routed_p50, direct_p50) {
        v.set("router.hop_p50_ms", r.value - d.value);
    }
    v.set(
        "gen.late_p99_ms",
        stats::quantile(&late, 0.99).map_or(0.0, |p| p.value),
    );
    v.set(
        "net.reactor_busy_share.direct",
        common::reactor_busy_secs(&fleet.direct_reg) / direct_wall,
    );
    v.set(
        "net.reactor_busy_share.router",
        common::reactor_busy_secs(&fleet.router_reg) / routed_wall,
    );
    let shard_busy: f64 = fleet
        .shards
        .iter()
        .map(|(_, reg)| common::reactor_busy_secs(reg))
        .sum();
    v.set(
        "net.reactor_busy_share.shard",
        shard_busy / fleet.shards.len() as f64 / routed_wall,
    );
    v.set(
        "api.cache_hit_ratio.direct",
        common::cache_hit_ratio(&[&fleet.direct_reg]),
    );
    let shard_regs: Vec<&Registry> = fleet.shards.iter().map(|(_, reg)| reg.as_ref()).collect();
    v.set(
        "api.cache_hit_ratio.shard",
        common::cache_hit_ratio(&shard_regs),
    );
    for (name, path) in common::HANDLERS {
        let p50 = common::histogram_p50_ms(
            &fleet.direct_reg,
            "http_request_duration_seconds",
            &[("endpoint", path)],
        );
        v.set(name, p50);
    }
    let router_counter = |name: &str| -> f64 {
        (0..fleet.shards.len())
            .map(|i| {
                fleet
                    .router_reg
                    .counter(name, &[("shard", &i.to_string())])
                    .get() as f64
            })
            .sum()
    };
    v.set("router.retries", router_counter("router_retries_total"));
    v.set("router.errors", router_counter("router_errors_total"));
    v.set(
        "net.pool_reuse_ratio",
        common::reuse_ratio(fleet.router_service.pool()),
    );
    let traced_bursts: Vec<f64> = bursts.iter().filter(|b| b.1).map(|b| b.0).collect();
    let untraced_bursts: Vec<f64> = bursts.iter().filter(|b| !b.1).map(|b| b.0).collect();
    if !traced_bursts.is_empty() {
        v.set(
            "trace.overhead_share",
            stats::median(&traced_bursts) / stats::median(&untraced_bursts) - 1.0,
        );
    }

    // The remaining set-ups, timed for the median; each fleet is dropped
    // before the next is built.
    while setups.len() < plan.setups {
        drop(timed_setup(&mut setups)?);
    }
    v.set("setup_s", stats::median(&setups));

    if let (Some(rp), Some(rt), Some(dp), Some(dt)) =
        (routed_p50, routed_tail, direct_p50, direct_p99)
    {
        log.push(format!(
            "# serve: at {} req/s, direct p50 {:.4} ms p99 {:.4} ms; routed p50 {:.4} ms {} {:.4} ms ({} requests per door)",
            plan.nominal_rps, dp.value, dt.value, rp.value, rt.label(), rt.value, rt.n
        ));
    }
    log.push(format!(
        "# serve: setup_s {:.4}; routed burst of {} requests {:.4} s; {} requests, {} failed",
        v.get("setup_s").unwrap_or(0.0),
        plan.burst_requests,
        v.get("run_s").unwrap_or(0.0),
        totals.attempted,
        totals.failed
    ));
    log.push(format!(
        "# serve: per pass: routed p50 ms {:?}, routed tail ms {:?}, burst s {:?}; set-ups s {:?}",
        common::rounded(&pass_p50),
        common::rounded(&pass_tail),
        common::rounded(&burst_walls),
        common::rounded(&setups),
    ));
    if let Some(e) = &totals.first_error {
        log.push(format!("# serve: first failure: {e}"));
    }
    match fleet.pinned {
        Some(cpu) => log.push(format!("# serve: servers and load pinned to CPU {cpu}")),
        None => log
            .push("# serve: the kernel refused pinning; servers and load ran on every CPU".into()),
    }
    let sizes = Json::obj([
        ("users", Json::Num(plan.users as f64)),
        ("shards", Json::Num(fleet.shards.len() as f64)),
        ("connections", Json::Num(conns as f64)),
        ("nominal_rps", Json::Num(plan.nominal_rps)),
        ("nominal_requests", Json::Num(plan.nominal_requests as f64)),
        ("burst_requests", Json::Num(plan.burst_requests as f64)),
        ("distinct_targets", Json::Num(mix.wire.len() as f64)),
        ("burst_connections", Json::Num(BURST_CONNS as f64)),
        ("passes", Json::Num(p as f64)),
        (
            "pinned_cpu",
            fleet.pinned.map_or(Json::Null, |c| Json::Num(c as f64)),
        ),
    ]);
    let outcome = Outcome {
        correct: totals.failed == 0 && mix.bad_references == 0,
        attempted: totals.attempted + plan.setups as u64,
        failed: totals.failed + mix.bad_references,
        values: v,
    };
    Ok((outcome, sizes))
}
