//! Kill-and-resume: the tentpole property of the checkpointed crawler.
//!
//! A crawler with `attempts: 1` dies on the first injected fault — the
//! closest deterministic analog to `kill -9` at an arbitrary point in the
//! crawl (every fault point in the schedule becomes an abort point, and the
//! fault counter advances across runs, so successive runs die later and
//! later). Each death leaves a checkpoint journal behind; `--resume` must
//! pick it up, skip everything journaled, and finish the crawl with a
//! snapshot byte-identical to a never-interrupted one — without refetching
//! a single already-harvested phase-2 user.

use std::sync::Arc;

use steam_api::{
    crawl_sharded, crawl_sharded_observed, serve_service_faulty, serve_shard_config,
    split_snapshot, ApiService, CheckpointStore, Crawler, CrawlerConfig, RateLimit, Record,
    ShardService,
};
use steam_model::{codec, Snapshot};
use steam_net::{Backoff, FaultInjector, FaultPlan, ServerConfig};
use steam_synth::{Generator, SynthConfig};

fn tiny_snapshot(seed: u64) -> Arc<Snapshot> {
    let mut cfg = SynthConfig::small(seed);
    cfg.n_users = 120;
    cfg.n_products = 60;
    cfg.n_groups = 10;
    Arc::new(Generator::new(cfg).generate())
}

fn checkpoint_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("steam-resume-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// A crawl that aborts on the very first fault it sees (no retry budget).
fn kill_prone_config(dir: &std::path::Path, resume: bool, workers: usize) -> CrawlerConfig {
    CrawlerConfig {
        empty_batches_to_stop: 2,
        backoff: Backoff {
            base: std::time::Duration::from_millis(1),
            max: std::time::Duration::from_millis(1),
            attempts: 1,
        },
        workers,
        checkpoint_dir: Some(dir.to_path_buf()),
        resume,
        ..CrawlerConfig::default()
    }
}

fn run_kill_resume(workers: usize, fault_seed: u64, world_seed: u64, tag: &str) {
    let original = tiny_snapshot(world_seed);

    // Baseline: a clean crawl against a fault-free server.
    let (clean_server, _s) = serve_service_faulty(
        ApiService::new(Arc::clone(&original), RateLimit::default()),
        "127.0.0.1:0",
        2,
        None,
        None,
    )
    .unwrap();
    let clean_config =
        CrawlerConfig { empty_batches_to_stop: 2, workers, ..CrawlerConfig::default() };
    let mut clean_crawler = Crawler::new(clean_server.addr(), clean_config);
    let baseline = clean_crawler.crawl(original.collected_at).unwrap();
    let baseline_bytes = codec::encode_snapshot_v3(&baseline, 1);
    assert_eq!(baseline_bytes, codec::encode_snapshot_v3(&original.observable(), 1));

    // The faulty server: every kind of fault, each request a potential
    // abort point for the retry-less crawler below.
    let plan = FaultPlan::parse(
        "drop=0.02,500=0.01,503=0.01,truncate=0.01,corrupt=0.02,stall=0.01;stall-ms=2",
        fault_seed,
    )
    .unwrap();
    let registry = Arc::new(steam_obs::Registry::new());
    let injector = Arc::new(FaultInjector::new(plan, Some(&registry)));
    let (server, _service) = serve_service_faulty(
        ApiService::new(Arc::clone(&original), RateLimit::default()),
        "127.0.0.1:0",
        2,
        Some(registry),
        Some(Arc::clone(&injector)),
    )
    .unwrap();

    let dir = checkpoint_dir(tag);
    let mut harvested_total = 0u64;
    let mut aborted_runs = 0u32;
    let mut resumed_skips = 0u64;
    let mut finished = None;
    // First run starts fresh; every later run resumes the journal.
    for run in 0..1000 {
        let config = kill_prone_config(&dir, run > 0, workers);
        let mut crawler = Crawler::new(server.addr(), config);
        let result = crawler.crawl(original.collected_at);
        let stats = crawler.stats();
        harvested_total += stats.users_harvested;
        if run > 0 {
            resumed_skips += stats.resume_skipped;
        }
        match result {
            Ok(snapshot) => {
                finished = Some((snapshot, stats));
                break;
            }
            Err(_) => aborted_runs += 1,
        }
    }
    let (resumed, final_stats) =
        finished.expect("the crawl must eventually complete across resumes");

    assert!(
        aborted_runs > 0,
        "the fault plan never killed a run; the test exercised nothing"
    );
    assert!(injector.injected_total() > 0, "no faults were actually injected");
    assert!(resumed_skips > 0, "resume never skipped journaled work");

    // Byte-identical reconstruction.
    assert_eq!(
        codec::encode_snapshot_v3(&resumed, 1),
        baseline_bytes,
        "resumed snapshot differs from the uninterrupted baseline"
    );

    // No phase-2 refetching: every user was harvested exactly once across
    // all runs (users_harvested counts only fresh fetch-triples, and each
    // one is journaled before it is counted).
    assert_eq!(
        harvested_total,
        original.n_users() as u64,
        "phase-2 users were refetched across resumes"
    );
    assert!(final_stats.checkpoint_records > 0 || final_stats.resume_skipped > 0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_crawl_resumes_to_identical_snapshot() {
    run_kill_resume(1, 401, 501, "seq");
}

#[test]
fn killed_parallel_crawl_resumes_to_identical_snapshot() {
    run_kill_resume(4, 402, 502, "par");
}

#[test]
fn checkpointed_crawl_without_kill_matches_plain_crawl() {
    // The journal must be a pure observer: checkpointing on a healthy
    // server changes nothing about the result.
    let original = tiny_snapshot(503);
    let (server, _service) = serve_service_faulty(
        ApiService::new(Arc::clone(&original), RateLimit::default()),
        "127.0.0.1:0",
        2,
        None,
        None,
    )
    .unwrap();
    let plain = {
        let config = CrawlerConfig { empty_batches_to_stop: 2, ..CrawlerConfig::default() };
        Crawler::new(server.addr(), config).crawl(original.collected_at).unwrap()
    };
    let dir = checkpoint_dir("observer");
    let config = CrawlerConfig {
        empty_batches_to_stop: 2,
        checkpoint_dir: Some(dir.clone()),
        ..CrawlerConfig::default()
    };
    let mut crawler = Crawler::new(server.addr(), config);
    let checkpointed = crawler.crawl(original.collected_at).unwrap();
    assert_eq!(codec::encode_snapshot_v3(&checkpointed, 1), codec::encode_snapshot_v3(&plain, 1));
    assert!(crawler.stats().checkpoint_records > 0);

    // And resuming a *complete* journal refetches nothing at all.
    let resume_config = CrawlerConfig {
        empty_batches_to_stop: 2,
        checkpoint_dir: Some(dir.clone()),
        resume: true,
        ..CrawlerConfig::default()
    };
    let mut resumer = Crawler::new(server.addr(), resume_config);
    let replayed = resumer.crawl(original.collected_at).unwrap();
    assert_eq!(codec::encode_snapshot_v3(&replayed, 1), codec::encode_snapshot_v3(&plain, 1));
    let stats = resumer.stats();
    assert_eq!(stats.users_harvested, 0, "complete journal must not refetch users");
    assert_eq!(stats.groups_fetched, 0);
    assert_eq!(stats.apps_fetched, 0);
    assert_eq!(stats.census_batches, 0);
    assert!(stats.resume_skipped > 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Every request under `path` fails: each fan-out worker's first item of
/// that phase fails. An injector counting exactly those requests.
fn outage(path: &str) -> Arc<FaultInjector> {
    let plan = FaultPlan::parse(&format!("{path}:500=1.0"), 9).unwrap();
    Arc::new(FaultInjector::new(plan, Some(&steam_obs::Registry::new())))
}

/// What a failed crawl's flushed journals hold, summed over `dirs`: every
/// one must replay a complete census. Returns the users and group pages.
fn journaled(dirs: &[std::path::PathBuf]) -> (usize, usize) {
    let (mut users, mut groups) = (0, 0);
    for dir in dirs {
        let (_store, replay) = CheckpointStore::resume(dir).unwrap();
        assert!(replay.census_complete.is_some(), "census not flushed to {}", dir.display());
        assert!(!replay.census_batches.is_empty());
        users += replay.users.len();
        groups += replay.groups.len();
    }
    (users, groups)
}

const FRIEND_LIST: &str = "/ISteamUser/GetFriendList";
const GROUP_PAGE: &str = "/community/group";
const APP_DETAILS: &str = "/api/appdetails";

/// The users and group pages a crawl of `original` has journaled by the
/// time the fan-out phase whose requests start with `path` begins.
fn journaled_before(path: &str, original: &Snapshot) -> (usize, usize) {
    match path {
        FRIEND_LIST => (0, 0),
        GROUP_PAGE => (original.n_users(), 0),
        APP_DETAILS => (original.n_users(), original.observable().groups.len()),
        _ => unreachable!("not a fan-out phase: {path}"),
    }
}

/// Every request under `path` fails on a server for a retry-less crawl at
/// 1 and 4 workers: the crawl fails, each worker sends at most one of
/// those requests, and the flushed journal holds everything fetched
/// before that phase.
fn unsharded_fan_out_stops_claiming(seed: u64, path: &str) {
    let original = tiny_snapshot(seed);
    let before = journaled_before(path, &original);
    for workers in [1, 4] {
        let injector = outage(path);
        let (server, _service) = serve_service_faulty(
            ApiService::new(Arc::clone(&original), RateLimit::default()),
            "127.0.0.1:0",
            2,
            None,
            Some(Arc::clone(&injector)),
        )
        .unwrap();
        let dir = checkpoint_dir(&format!("stop-{seed}-{workers}"));
        let mut crawler = Crawler::new(server.addr(), kill_prone_config(&dir, false, workers));
        assert!(crawler.crawl(original.collected_at).is_err(), "workers={workers}");
        // Each worker may have one request in flight when the first failure
        // lands; none may start another item after it.
        let seen = injector.injected_total();
        assert!((1..=workers as u64).contains(&seen), "workers={workers}: {seen} requests");
        let stats = crawler.stats();
        assert_eq!((stats.users_harvested as usize, stats.groups_fetched as usize), before);
        assert_eq!(stats.apps_fetched, 0);
        assert_eq!(journaled(std::slice::from_ref(&dir)), before, "workers={workers}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// [`unsharded_fan_out_stops_claiming`] for a fleet of 2 shards with 2
/// workers each: at most one failing request per worker of the fleet.
fn fleet_fan_out_stops_claiming(seed: u64, path: &str) {
    const SHARDS: usize = 2;
    const WORKERS: usize = 2;
    let original = tiny_snapshot(seed);
    let injector = outage(path);
    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    for store in split_snapshot(&original, SHARDS) {
        let (server, _s) = serve_shard_config(
            ShardService::new(store, RateLimit::default()),
            "127.0.0.1:0",
            ServerConfig { workers: 2, ..Default::default() },
            None,
            Some(Arc::clone(&injector)),
        )
        .unwrap();
        addrs.push(server.addr());
        servers.push(server);
    }
    let dir = checkpoint_dir(&format!("stop-fleet-{seed}"));
    let config = kill_prone_config(&dir, false, WORKERS);
    assert!(crawl_sharded(&addrs, &config, original.collected_at).is_err());
    let seen = injector.injected_total();
    assert!((1..=(SHARDS * WORKERS) as u64).contains(&seen), "{seen} requests");
    let dirs: Vec<_> = (0..SHARDS).map(|i| dir.join(format!("shard-{i}-of-{SHARDS}"))).collect();
    assert_eq!(journaled(&dirs), journaled_before(path, &original));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failing_harvest_stops_claiming_users() {
    unsharded_fan_out_stops_claiming(504, FRIEND_LIST);
}

#[test]
fn failing_group_pages_stop_claiming_groups() {
    unsharded_fan_out_stops_claiming(507, GROUP_PAGE);
}

#[test]
fn failing_catalog_stops_claiming_apps() {
    unsharded_fan_out_stops_claiming(508, APP_DETAILS);
}

#[test]
fn failing_fleet_harvest_stops_claiming_users() {
    fleet_fan_out_stops_claiming(505, FRIEND_LIST);
}

#[test]
fn failing_fleet_group_pages_stop_claiming_groups() {
    fleet_fan_out_stops_claiming(509, GROUP_PAGE);
}

#[test]
fn failing_fleet_catalog_stops_claiming_apps() {
    fleet_fan_out_stops_claiming(510, APP_DETAILS);
}

/// A partial journal in the unsharded layout (records directly in
/// `checkpoint_dir`), as a crawl killed mid-harvest leaves it: the whole
/// census, every other user and the first few group pages. It must resume
/// to the clean crawl's bytes without refetching a journaled user, and the
/// same records in an `n = 1` fleet's `shard-0-of-1` must too.
#[test]
fn partial_unsharded_journal_resumes_in_either_layout() {
    let original = tiny_snapshot(506);
    let (server, _service) = serve_service_faulty(
        ApiService::new(Arc::clone(&original), RateLimit::default()),
        "127.0.0.1:0",
        2,
        None,
        None,
    )
    .unwrap();
    let full = checkpoint_dir("layout-full");
    let clean = Crawler::new(
        server.addr(),
        CrawlerConfig {
            empty_batches_to_stop: 2,
            checkpoint_dir: Some(full.clone()),
            ..CrawlerConfig::default()
        },
    )
    .crawl(original.collected_at)
    .unwrap();
    let clean_bytes = codec::encode_snapshot_v3(&clean, 1);
    let (_store, complete) = CheckpointStore::resume(&full).unwrap();

    let write_partial = |dir: &std::path::Path| {
        let mut store = CheckpointStore::create(dir).unwrap();
        for (&start_index, accounts) in &complete.census_batches {
            store
                .append(&Record::CensusBatch { start_index, accounts: accounts.clone() })
                .unwrap();
        }
        let scanned_id_space = complete.census_complete.unwrap();
        store.append(&Record::CensusComplete { scanned_id_space }).unwrap();
        for u in (0..original.n_users() as u32).step_by(2) {
            store.append(&Record::User(complete.users[&u].clone())).unwrap();
        }
        let mut gids: Vec<_> = complete.groups.keys().copied().collect();
        gids.sort_unstable();
        for gid in gids.iter().take(3) {
            store.append(&Record::GroupPage(complete.groups[gid].clone())).unwrap();
        }
        store.flush().unwrap();
    };
    let journaled_users = original.n_users().div_ceil(2) as u64;
    let resume_config = |dir: &std::path::Path| CrawlerConfig {
        empty_batches_to_stop: 2,
        workers: 4,
        checkpoint_dir: Some(dir.to_path_buf()),
        resume: true,
        ..CrawlerConfig::default()
    };

    let flat = checkpoint_dir("layout-flat");
    write_partial(&flat);
    let mut crawler = Crawler::new(server.addr(), resume_config(&flat));
    let resumed = crawler.crawl(original.collected_at).unwrap();
    assert_eq!(codec::encode_snapshot_v3(&resumed, 1), clean_bytes, "unsharded layout");
    let stats = crawler.stats();
    assert_eq!(stats.census_batches, 0, "the journaled census was refetched");
    assert_eq!(stats.users_harvested, original.n_users() as u64 - journaled_users);
    assert_eq!(stats.groups_fetched as usize, clean.groups.len() - 3);

    let fleet = checkpoint_dir("layout-fleet");
    write_partial(&fleet.join("shard-0-of-1"));
    let registry = Arc::new(steam_obs::Registry::new());
    let progress = steam_api::CrawlProgress::attach(&registry);
    let resumed = crawl_sharded_observed(
        &[server.addr()],
        &resume_config(&fleet),
        original.collected_at,
        registry,
    )
    .unwrap();
    assert_eq!(codec::encode_snapshot_v3(&resumed, 1), clean_bytes, "n = 1 fleet layout");
    let stats = progress.stats();
    assert_eq!(stats.census_batches, 0);
    assert_eq!(stats.users_harvested, original.n_users() as u64 - journaled_users);

    for dir in [full, flat, fleet] {
        std::fs::remove_dir_all(&dir).ok();
    }
}
