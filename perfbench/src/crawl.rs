//! The `crawl` workload: a closed loop through the network stack.
//!
//! Each pass serves a world from one direct `ApiService` on the default
//! server and crawls it back with `Crawler::crawl` — the paper's method: an
//! ID-space census, then a per-user harvest, then the catalog — on `nproc`
//! workers sharing a pool of `nproc` connections. Every key is fetched once,
//! and a world of this size has several times more keys than the wire cache
//! holds, so the cache is bypassed: the counterpart of `serve`'s hot keys.
//!
//! Set-up (`setup_s`) is synthesizing the world and binding the server, as
//! `steam-cli generate` + `serve` would; the run (`run_s`) is the crawl.
//! The crawled snapshot's v3 bytes must equal the served snapshot's.

use std::sync::Arc;
use std::time::Instant;

use steam_api::{serve_service_config, ApiService, Crawler, CrawlerConfig, RateLimit};
use steam_model::{codec, Snapshot};
use steam_net::{HttpServer, Json, ServerConfig};
use steam_obs::{HistogramSnapshot, Registry};
use steam_synth::Generator;

use crate::common::{self, RunArgs};
use crate::result::{Outcome, Values};
use crate::stats;
use crate::trace::Tracer;

pub fn users(args: &RunArgs) -> usize {
    if args.smoke {
        500
    } else {
        20_000
    }
}

/// The limits and server shape `steam-cli serve` uses by default.
pub fn cli_limits() -> RateLimit {
    RateLimit {
        per_key_rps: 100_000.0,
        burst: 10_000.0,
    }
}

pub fn cli_server() -> ServerConfig {
    ServerConfig {
        workers: 8,
        ..Default::default()
    }
}

struct Setup {
    server: HttpServer,
    registry: Arc<Registry>,
    expected: bytes::Bytes,
    /// Groups of the served world that no account belongs to.
    unobservable: usize,
    collected_at: steam_model::SimTime,
    synth: steam_synth::GenTimings,
}

fn setup(users: usize, seed: u64, smoke: bool, jobs: usize) -> Result<(Setup, f64), String> {
    let t = Instant::now();
    let (world, synth) =
        Generator::new(common::world_config(users, seed, smoke)).generate_world_timed(jobs);
    let snapshot = Arc::new(world.snapshot);
    let registry = Arc::new(Registry::new());
    let service = ApiService::new(Arc::clone(&snapshot), cli_limits());
    let (server, _service) = serve_service_config(
        service,
        "127.0.0.1:0",
        cli_server(),
        Some(Arc::clone(&registry)),
        None,
    )
    .map_err(|e| format!("binding the server: {e}"))?;
    let setup_s = common::secs(t);
    let observable = observable(&snapshot);
    let unobservable = snapshot.groups.len() - observable.groups.len();
    let expected = codec::encode_snapshot_v3(&observable, jobs);
    Ok((
        Setup {
            server,
            registry,
            expected,
            unobservable,
            collected_at: snapshot.collected_at,
            synth,
        },
        setup_s,
    ))
}

/// The part of a served world a crawl can observe. A crawl discovers groups
/// only through their members' group lists, so a group nobody belongs to
/// cannot be found; everything else must come back byte for byte.
pub fn observable(s: &Snapshot) -> Snapshot {
    let mut remap = vec![None; s.groups.len()];
    for &g in s.memberships.iter().flatten() {
        remap[g as usize] = Some(0u32);
    }
    let mut groups = Vec::new();
    for (slot, group) in remap.iter_mut().zip(&s.groups) {
        if slot.is_some() {
            *slot = Some(groups.len() as u32);
            groups.push(group.clone());
        }
    }
    let memberships = s
        .memberships
        .iter()
        .map(|m| {
            m.iter()
                .map(|&g| remap[g as usize].expect("a member's group"))
                .collect()
        })
        .collect();
    Snapshot {
        groups,
        memberships,
        ..s.clone()
    }
}

struct Pass {
    setup_s: f64,
    crawl_s: f64,
    requests: u64,
    retries: u64,
    reconnects: u64,
    phases: [f64; 3],
    reuse: f64,
    busy: f64,
    cache_hits: f64,
    handlers: Vec<f64>,
    latency: HistogramSnapshot,
    identical: bool,
    traced: bool,
}

pub fn run(
    args: &RunArgs,
    tracer: &Tracer,
    log: &mut Vec<String>,
) -> Result<(Outcome, Json), String> {
    let users = users(args);
    let jobs = crate::meta::parallelism();
    let min_passes = 3;
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let (mut setup_rss, mut run_rss) = (0.0, 0.0);
    let mut synth_stages = None;
    while !common::done(start, passes.len(), args, min_passes) {
        let traced = args.traced && passes.len() % 2 == 1;
        tracer.set_enabled(traced);
        let pass = tracer.span("crawl.pass", 0);
        let setup_span = tracer.span("crawl.setup", pass.id());
        let (s, setup_s) = setup(users, args.seed, args.smoke, jobs)?;
        drop(setup_span);
        if passes.is_empty() {
            setup_rss = common::peak_rss_mb();
        }

        let crawler_registry = Arc::new(Registry::new());
        let config = CrawlerConfig {
            workers: jobs,
            pool_size: Some(jobs),
            ..CrawlerConfig::default()
        };
        let mut crawler =
            Crawler::with_registry(s.server.addr(), config, Arc::clone(&crawler_registry));
        let progress = crawler.progress();
        let crawl_span = tracer.span("crawl.crawl", pass.id());
        let t = Instant::now();
        let crawled = crawler
            .crawl(s.collected_at)
            .map_err(|e| format!("crawl failed: {e}"))?;
        let crawl_s = common::secs(t);
        drop(crawl_span);
        let stats = crawler.stats();
        if passes.is_empty() && s.unobservable > 0 {
            log.push(format!(
                "# crawl: {} served groups have no members; a crawl cannot find them, so the check leaves them out",
                s.unobservable
            ));
        }
        let identical = codec::encode_snapshot_v3(&crawled, jobs) == s.expected;
        if !identical {
            log.push(format!(
                "# pass {}: crawled snapshot differs from the served one",
                passes.len()
            ));
        }
        let phase = |p: &str| {
            common::histogram_secs(
                &crawler_registry,
                "crawl_phase_duration_seconds",
                &[("phase", p)],
            )
        };
        let handlers = common::HANDLERS
            .iter()
            .map(|(_, path)| {
                common::histogram_p50_ms(
                    &s.registry,
                    "http_request_duration_seconds",
                    &[("endpoint", path)],
                )
            })
            .collect();
        passes.push(Pass {
            setup_s,
            crawl_s,
            requests: stats.requests,
            retries: stats.retries_observed,
            reconnects: stats.reconnects,
            phases: [phase("census"), phase("harvest"), phase("catalog")],
            reuse: common::reuse_ratio(crawler.pool().expect("crawler configured with a pool")),
            busy: common::reactor_busy_secs(&s.registry) / crawl_s,
            cache_hits: common::cache_hit_ratio(&[&s.registry]),
            handlers,
            latency: progress.request_latency().snapshot(),
            identical,
            traced,
        });
        if passes.len() == 1 {
            // Through one set-up and one crawl; later passes repeat the
            // same work over a heap their predecessors fragmented.
            run_rss = common::peak_rss_mb();
        }
        synth_stages.get_or_insert(s.synth);
        drop(pass);
        tracer.set_enabled(args.traced);
    }

    let mut v = Values::default();
    let setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let crawls: Vec<f64> = passes.iter().map(|p| p.crawl_s).collect();
    v.set("setup_s", stats::median(&setups));
    v.set("run_s", stats::median(&crawls));
    let mut pooled = None;
    for p in &passes {
        common::merge(&mut pooled, p.latency.clone());
    }
    let pooled = pooled.expect("at least one pass");
    let n = pooled.count as usize;
    let tail_q = stats::tail_percentile(n).unwrap_or(1.0);
    let ms = |q: f64| pooled.quantile(q) / 1e3;
    v.set("p50_ms", ms(0.5));
    v.set("setup_rss_mb", setup_rss);
    v.set("run_rss_mb", run_rss);

    let m = &passes[stats::median_index(&crawls)];
    v.set("crawl.census_s", m.phases[0]);
    v.set("crawl.harvest_s", m.phases[1]);
    v.set("crawl.catalog_s", m.phases[2]);
    v.set("crawl.requests", m.requests as f64);
    v.set("crawl.retries", m.retries as f64);
    v.set("crawl.request_p50_ms", m.latency.quantile(0.5) / 1e3);
    v.set("crawl.request_p99_ms", m.latency.quantile(0.99) / 1e3);
    v.set("net.pool_reuse_ratio", m.reuse);
    v.set("net.reconnects", m.reconnects as f64);
    v.set("net.reactor_busy_share.direct", m.busy);
    v.set("api.cache_hit_ratio.crawl", m.cache_hits);
    for ((name, _), value) in common::HANDLERS.iter().zip(&m.handlers) {
        v.set(name, *value);
    }
    if let Some(t) = &synth_stages {
        common::set_synth_rows(&mut v, t);
    }
    let untraced: Vec<f64> = passes
        .iter()
        .filter(|p| !p.traced)
        .map(|p| p.crawl_s)
        .collect();
    let traced: Vec<f64> = passes
        .iter()
        .filter(|p| p.traced)
        .map(|p| p.crawl_s)
        .collect();
    if !traced.is_empty() {
        v.set(
            "trace.overhead_share",
            stats::median(&traced) / stats::median(&untraced) - 1.0,
        );
    }

    let mismatched = passes.iter().filter(|p| !p.identical).count() as u64;
    let retries: u64 = passes.iter().map(|p| p.retries).sum();
    log.push(format!(
        "# crawl: {} passes of {} requests; setup_s {:.4}, crawl_s {:.4}; request p50 {:.4} ms, p{} {:.4} ms over {n} requests; {retries} retries",
        passes.len(),
        m.requests,
        v.get("setup_s").unwrap_or(0.0),
        v.get("run_s").unwrap_or(0.0),
        v.get("p50_ms").unwrap_or(0.0),
        tail_q * 100.0,
        ms(tail_q),
    ));
    log.push(format!(
        "# crawl: per pass: setup s {:?}, crawl s {:?}",
        common::rounded(&setups),
        common::rounded(&crawls),
    ));
    let sizes = Json::obj([
        ("users", Json::Num(users as f64)),
        ("requests_per_crawl", Json::Num(m.requests as f64)),
        ("workers", Json::Num(jobs as f64)),
        ("passes", Json::Num(passes.len() as f64)),
    ]);
    let attempted: u64 = passes.iter().map(|p| p.requests).sum::<u64>() + passes.len() as u64;
    let outcome = Outcome {
        correct: mismatched == 0,
        attempted,
        failed: retries + mismatched,
        values: v,
    };
    Ok((outcome, sizes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use steam_model::{Group, GroupId, GroupKind};

    #[test]
    fn observable_drops_only_groups_without_members() {
        let world = Generator::new(common::world_config(300, 5, true)).generate();
        let before = observable(&world);
        // Pad the world with two member-less groups, one before every other
        // group (shifting every membership index) and one after.
        let mut padded = world.clone();
        let empty = |id: u32| Group {
            id: GroupId(id),
            kind: GroupKind::SpecialInterest,
            name: format!("empty {id}"),
        };
        padded.groups.insert(0, empty(1));
        padded.groups.push(empty(u32::MAX));
        for m in &mut padded.memberships {
            for g in m.iter_mut() {
                *g += 1;
            }
        }
        let after = observable(&padded);
        assert_eq!(after.groups.len(), before.groups.len());
        assert_eq!(
            codec::encode_snapshot_v3(&after, 1),
            codec::encode_snapshot_v3(&before, 1)
        );
        assert!(world.memberships.iter().flatten().count() > 0);
    }
}
