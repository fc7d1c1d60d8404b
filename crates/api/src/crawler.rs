//! The crawler: reconstructs a [`Snapshot`] by walking the emulated Steam
//! Web API exactly the way the paper's collection pipeline did (§3.1).
//!
//! * **Phase 1 — ID-space census.** Walk the 64-bit ID space from the base
//!   ID in batches of 100 (the batch endpoint is why this phase took weeks,
//!   not months). Valid accounts come back; invalid IDs are silently absent.
//!   Stop after a long run of fully-empty batches.
//! * **Phase 2 — per-user harvest.** For every valid account, fetch the
//!   friend list, owned games, and group list — one account per call (this
//!   is the six-month phase). Group metadata comes from the community-page
//!   analog.
//! * **Phase 3 — catalog.** The unpublicized app-list endpoint, then
//!   `appdetails` per product and achievement percentages per game.
//!
//! Every crawl runs the same phases. An unsharded crawl ([`Crawler::crawl`])
//! is a one-shard fleet; [`crawl_sharded`] runs one crawler per shard. The
//! census walks each shard's ID residue class one batch at a time, because
//! its stop rule depends on batch order. Users, group pages and apps fan
//! out: a target picker (`shard_of`, `shard_of_group`, `shard_of_app`;
//! always shard 0 unsharded) assigns each item to a shard, and each shard's
//! share runs on that crawler's [`CrawlerConfig::workers`] workers, one
//! fetcher per worker, built with the crawler and reused by every phase.
//! Results merge in item order, so the snapshot is byte-identical for any
//! worker or shard count.
//!
//! Throughout, the crawler throttles itself to a configurable rate —
//! the paper used ~85% of the allowed maximum — and retries transient
//! failures (429/5xx, dropped connections, corrupt response bodies) with
//! exponential backoff.
//!
//! With a [`CrawlerConfig::checkpoint_dir`] set, every unit of completed
//! work is journaled through [`crate::checkpoint::CheckpointStore`]; with
//! [`CrawlerConfig::resume`] a crawl replays the journal first and
//! re-fetches only what is missing, so a killed crawl loses at most the
//! unflushed journal tail.

use std::collections::{BTreeSet, HashMap};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use steam_model::{
    Account, AppId, Friendship, Game, Group, GroupId, OwnedGame, Snapshot, SteamId,
};
use steam_net::backoff::{transient, Backoff};
use steam_net::client::HttpClient;
use steam_net::pool::ConnectionPool;
use steam_net::ratelimit::TokenBucket;
use steam_net::NetError;
use steam_obs::{
    mint_trace_id, next_span_id, now_us, record_span, Counter, Gauge, Histogram, Registry,
    SpanId, SpanKind, SpanRecord, TraceContext,
};

use crate::checkpoint::{CheckpointStore, Record, Replay, UserRecord};
use crate::endpoint::{Endpoint, MAX_BATCH_IDS};
use crate::shard::{shard_of, shard_of_app, shard_of_group};
use crate::wire;

/// Crawler configuration.
#[derive(Clone, Debug)]
pub struct CrawlerConfig {
    /// API key sent with every request.
    pub api_key: String,
    /// Self-imposed request rate (requests/second). The paper throttled to
    /// ~85% of the allowed maximum; `None` disables the throttle.
    pub self_throttle_rps: Option<f64>,
    /// Consecutive fully-empty profile batches before the census stops.
    pub empty_batches_to_stop: usize,
    /// Retry policy for transient failures.
    pub backoff: Backoff,
    /// Worker threads for every fan-out phase: the per-user harvest, group
    /// pages and per-app catalog fetches (per shard in a fleet). The result
    /// is byte-identical regardless of worker count; the throttle is shared.
    pub workers: usize,
    /// Directory for the crash-safe checkpoint journal. `None` disables
    /// checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Replay an existing journal in `checkpoint_dir` and skip the work it
    /// records, instead of starting fresh (which wipes the journal).
    pub resume: bool,
    /// Size of the keep-alive connection pool shared by every fetcher (the
    /// census, the app list and every fan-out worker): the whole crawl then
    /// runs over at most this many sockets. `None` keeps one private
    /// connection per fetcher. Size it to the worker count — smaller
    /// starves concurrent workers into opening throwaway connections.
    pub pool_size: Option<usize>,
    /// Propagate a trace context (`X-Steam-Trace`) on every request and
    /// record a client span per attempt in the flight recorder. Every
    /// attempt of one logical fetch shares a trace id, so a retried request
    /// reads as one trace on the server's `/debug/spans`. Tracing never
    /// changes the crawled bytes; `false` exists for overhead measurement.
    pub trace: bool,
}

impl Default for CrawlerConfig {
    fn default() -> Self {
        CrawlerConfig {
            api_key: "reproduction-key".into(),
            self_throttle_rps: None,
            empty_batches_to_stop: 25,
            backoff: Backoff::default(),
            workers: 1,
            checkpoint_dir: None,
            resume: false,
            pool_size: None,
            trace: true,
        }
    }
}

/// Progress counters (useful for the CLI and the throughput benches).
///
/// A snapshot of [`CrawlProgress`]; see [`Crawler::stats`]. `retries_observed`
/// is the sum of the per-cause counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct CrawlStats {
    pub requests: u64,
    pub profiles_found: u64,
    pub ids_scanned: u64,
    pub retries_observed: u64,
    pub retries_429: u64,
    pub retries_5xx: u64,
    pub retries_io: u64,
    /// Retries after a response body that failed to parse (server-side
    /// corruption looks like a transient fault, not a fatal one).
    pub retries_corrupt: u64,
    pub census_batches: u64,
    pub users_harvested: u64,
    pub groups_fetched: u64,
    pub apps_fetched: u64,
    pub reconnects: u64,
    /// Records appended to the checkpoint journal (0 without a journal).
    pub checkpoint_records: u64,
    /// Units of work skipped on resume because the journal already had them.
    pub resume_skipped: u64,
    /// Total time spent waiting on the self-imposed throttle.
    pub throttle_wait: Duration,
    /// Total time slept in retry backoff (including server `Retry-After`
    /// hints).
    pub backoff_wait: Duration,
}

/// Live, cloneable view of a crawl in flight: every instrument is an
/// `Arc`'d atomic registered in the crawler's [`Registry`], so a clone
/// handed to a display thread observes the crawl at zero cost to it.
#[derive(Clone)]
pub struct CrawlProgress {
    requests: Arc<Counter>,
    retries_429: Arc<Counter>,
    retries_5xx: Arc<Counter>,
    retries_io: Arc<Counter>,
    retries_corrupt: Arc<Counter>,
    census_batches: Arc<Counter>,
    users_harvested: Arc<Counter>,
    groups_fetched: Arc<Counter>,
    apps_fetched: Arc<Counter>,
    reconnects: Arc<Counter>,
    checkpoint_records: Arc<Counter>,
    resume_skipped: Arc<Counter>,
    throttle_wait: Arc<Counter>,
    backoff_wait: Arc<Counter>,
    ids_scanned: Arc<Gauge>,
    profiles_found: Arc<Gauge>,
    phase_census: Arc<Histogram>,
    phase_harvest: Arc<Histogram>,
    phase_catalog: Arc<Histogram>,
    /// Wall time per logical fetch (including retries and backoff) — the
    /// latency distribution the crawl benchmark reports p50/p99 from.
    request_latency: Arc<Histogram>,
}

impl CrawlProgress {
    fn new(registry: &Registry) -> Self {
        registry.describe("crawl_requests_total", "API requests issued by the crawler");
        registry.describe("crawl_retries_total", "Retries after transient failures, by cause");
        registry.describe("crawl_census_batches_total", "Phase-1 ID batches fetched");
        registry.describe("crawl_users_harvested_total", "Phase-2 accounts fully harvested");
        registry.describe("crawl_groups_fetched_total", "Group community pages fetched");
        registry.describe("crawl_apps_fetched_total", "Phase-3 catalog products fetched");
        registry.describe("crawl_reconnects_total", "Stale-connection reconnects");
        registry.describe(
            "crawl_checkpoint_records_total",
            "Records appended to the checkpoint journal",
        );
        registry.describe(
            "crawl_resume_skipped_total",
            "Units of work skipped on resume (already journaled)",
        );
        registry.describe(
            "crawl_throttle_wait_seconds_total",
            "Time spent waiting on the self-imposed throttle",
        );
        registry.describe(
            "crawl_backoff_wait_seconds_total",
            "Time slept in retry backoff (incl. Retry-After hints)",
        );
        registry.describe("crawl_ids_scanned", "IDs covered by the census so far");
        registry.describe("crawl_profiles_found", "Valid accounts discovered so far");
        registry.describe("crawl_phase_duration_seconds", "Wall time per crawl phase");
        registry.describe(
            "crawl_request_duration_seconds",
            "Wall time per logical fetch, including retries",
        );
        CrawlProgress {
            requests: registry.counter("crawl_requests_total", &[]),
            retries_429: registry.counter("crawl_retries_total", &[("cause", "429")]),
            retries_5xx: registry.counter("crawl_retries_total", &[("cause", "5xx")]),
            retries_io: registry.counter("crawl_retries_total", &[("cause", "io")]),
            retries_corrupt: registry.counter("crawl_retries_total", &[("cause", "corrupt")]),
            census_batches: registry.counter("crawl_census_batches_total", &[]),
            users_harvested: registry.counter("crawl_users_harvested_total", &[]),
            groups_fetched: registry.counter("crawl_groups_fetched_total", &[]),
            apps_fetched: registry.counter("crawl_apps_fetched_total", &[]),
            reconnects: registry.counter("crawl_reconnects_total", &[]),
            checkpoint_records: registry.counter("crawl_checkpoint_records_total", &[]),
            resume_skipped: registry.counter("crawl_resume_skipped_total", &[]),
            throttle_wait: registry.counter("crawl_throttle_wait_seconds_total", &[]),
            backoff_wait: registry.counter("crawl_backoff_wait_seconds_total", &[]),
            ids_scanned: registry.gauge("crawl_ids_scanned", &[]),
            profiles_found: registry.gauge("crawl_profiles_found", &[]),
            phase_census: registry
                .histogram("crawl_phase_duration_seconds", &[("phase", "census")]),
            phase_harvest: registry
                .histogram("crawl_phase_duration_seconds", &[("phase", "harvest")]),
            phase_catalog: registry
                .histogram("crawl_phase_duration_seconds", &[("phase", "catalog")]),
            request_latency: registry.histogram("crawl_request_duration_seconds", &[]),
        }
    }

    /// The per-fetch latency histogram (see the crawl benchmark).
    pub fn request_latency(&self) -> &Histogram {
        &self.request_latency
    }

    /// A live view attached to `registry`. Instruments are shared with any
    /// crawler recording there — with [`crawl_sharded`] every per-shard
    /// crawler records into one registry, so this view observes the whole
    /// fleet's aggregate progress.
    pub fn attach(registry: &Registry) -> Self {
        Self::new(registry)
    }

    fn record_retry(&self, err: &NetError, delay: Duration) {
        match err {
            NetError::Status { code: 429, .. } => self.retries_429.inc(),
            NetError::Status { .. } => self.retries_5xx.inc(),
            NetError::Json { .. } => self.retries_corrupt.inc(),
            _ => self.retries_io.inc(),
        }
        self.backoff_wait.add_duration(delay);
    }

    /// Point-in-time snapshot of every counter.
    pub fn stats(&self) -> CrawlStats {
        let retries_429 = self.retries_429.get();
        let retries_5xx = self.retries_5xx.get();
        let retries_io = self.retries_io.get();
        let retries_corrupt = self.retries_corrupt.get();
        CrawlStats {
            requests: self.requests.get(),
            profiles_found: self.profiles_found.get().max(0) as u64,
            ids_scanned: self.ids_scanned.get().max(0) as u64,
            retries_observed: retries_429 + retries_5xx + retries_io + retries_corrupt,
            retries_429,
            retries_5xx,
            retries_io,
            retries_corrupt,
            census_batches: self.census_batches.get(),
            users_harvested: self.users_harvested.get(),
            groups_fetched: self.groups_fetched.get(),
            apps_fetched: self.apps_fetched.get(),
            reconnects: self.reconnects.get(),
            checkpoint_records: self.checkpoint_records.get(),
            resume_skipped: self.resume_skipped.get(),
            throttle_wait: self.throttle_wait.as_duration(),
            backoff_wait: self.backoff_wait.as_duration(),
        }
    }

    /// One-line human summary of the crawl so far — what `steam-cli crawl`
    /// repaints as its live progress display.
    pub fn progress_line(&self) -> String {
        let s = self.stats();
        format!(
            "reqs {} | ids {} | profiles {} | harvested {} | retries {} | reconnects {}",
            s.requests,
            s.ids_scanned,
            s.profiles_found,
            s.users_harvested,
            s.retries_observed,
            s.reconnects,
        )
    }
}

/// One throttled, retrying connection to the API server. Every fan-out
/// worker owns one, sharing the throttle and counters.
struct Fetcher {
    client: HttpClient,
    backoff: Backoff,
    throttle: Arc<Option<TokenBucket>>,
    progress: CrawlProgress,
    /// `client.reconnects()` at the last sync into the shared counter.
    synced_reconnects: u64,
    /// Mint and propagate a trace per logical fetch (see
    /// [`CrawlerConfig::trace`]).
    trace: bool,
}

impl Fetcher {
    /// One census batch: the profiles of whichever `ids` exist.
    fn summaries(&mut self, key: &str, ids: Vec<SteamId>) -> Result<Vec<Account>, NetError> {
        let target = Endpoint::Summaries(ids).target(Some(key));
        self.get_parsed(&target, wire::parse_player_summaries)
    }

    /// Account `u`'s friends, games and groups: the three per-user fetches
    /// of phase 2.
    fn harvest_user(&mut self, key: &str, u: u32, id: SteamId) -> Result<UserRecord, NetError> {
        let key = Some(key);
        let friends =
            self.get_parsed(&Endpoint::FriendList(id).target(key), wire::parse_friend_list)?;
        let games =
            self.get_parsed(&Endpoint::OwnedGames(id).target(key), wire::parse_owned_games)?;
        let groups =
            self.get_parsed(&Endpoint::GroupList(id).target(key), wire::parse_group_list)?;
        Ok(UserRecord { index: u, friends, games, groups })
    }

    fn group_page(&mut self, gid: GroupId) -> Result<Group, NetError> {
        self.get_parsed(&Endpoint::GroupPage(gid).target(None), wire::parse_group_page)
    }

    fn app_list(&mut self) -> Result<Vec<AppId>, NetError> {
        self.get_parsed(&Endpoint::AppList.target(None), wire::parse_app_list)
    }

    /// One catalog entry: store details plus achievement percentages.
    fn app(&mut self, app: AppId) -> Result<Game, NetError> {
        let details = Endpoint::AppDetails(app).target(None);
        let mut game = self.get_parsed(&details, |body| wire::parse_app_details(app, body))?;
        game.achievements = self.get_parsed(
            &Endpoint::Achievements(app).target(None),
            wire::parse_achievement_percentages,
        )?;
        Ok(game)
    }

    /// Fetches `target` and parses the body *inside* the retry loop: a
    /// response that parses as garbage (an injected corruption, a truncated
    /// proxy body) is retried like any other transient fault instead of
    /// killing a crawl that may be months in.
    ///
    /// With tracing on, the whole logical fetch shares one trace id; each
    /// attempt gets its own span id (propagated via `X-Steam-Trace`) and a
    /// client span annotated `attempt=N` — so a fetch that survived two
    /// injected faults shows up on `/debug/spans` as one trace with three
    /// client hops, the last joined to a server span.
    fn get_parsed<T>(
        &mut self,
        target: &str,
        parse: impl Fn(&str) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        if let Some(t) = self.throttle.as_ref() {
            let waited = t.acquire();
            if !waited.is_zero() {
                self.progress.throttle_wait.add_duration(waited);
            }
        }
        self.progress.requests.inc();
        let trace_id = if self.trace { Some(mint_trace_id()) } else { None };
        let client = &mut self.client;
        let progress = &self.progress;
        let mut attempt = 0u32;
        let start = std::time::Instant::now();
        let result = self.backoff.run_observed(
            || {
                attempt += 1;
                let ctx = trace_id
                    .map(|trace| TraceContext { trace, span: next_span_id() });
                client.set_trace(ctx);
                let start_us = now_us();
                let t0 = std::time::Instant::now();
                let outcome = client.get(target);
                if let Some(ctx) = ctx {
                    let status = match &outcome {
                        Ok(resp) => resp.status,
                        Err(NetError::Status { code, .. }) => *code,
                        // Dropped connection, timeout: no status line arrived.
                        Err(_) => 0,
                    };
                    record_span(
                        SpanRecord::new(
                            ctx.trace,
                            ctx.span,
                            SpanId(0),
                            SpanKind::Client,
                            "crawl",
                            target,
                        )
                        .with_timing(start_us, t0.elapsed().as_micros() as u64)
                        .with_status(status)
                        .with_annotation(&format!("attempt={attempt}")),
                    );
                }
                parse(&outcome?.body_text())
            },
            |e| transient(e) || matches!(e, NetError::Json { .. }),
            |err, delay| progress.record_retry(err, delay),
        );
        // Leave no context behind: the next fetch mints its own.
        self.client.set_trace(None);
        self.progress.request_latency.record_duration(start.elapsed());
        let reconnects = self.client.reconnects();
        if reconnects > self.synced_reconnects {
            self.progress.reconnects.add(reconnects - self.synced_reconnects);
            self.synced_reconnects = reconnects;
        }
        result
    }
}

/// The crawler.
pub struct Crawler {
    /// One fetcher per worker, built with the crawler and reused by every
    /// phase; the first also fetches the census, the app list and the panel.
    fetchers: Vec<Fetcher>,
    config: CrawlerConfig,
    registry: Arc<Registry>,
    progress: CrawlProgress,
    /// Shared keep-alive pool behind every fetcher (see
    /// [`CrawlerConfig::pool_size`]); `None` means private connections.
    pool: Option<Arc<ConnectionPool>>,
}

impl Crawler {
    /// A crawler with a private metrics registry (see
    /// [`with_registry`](Self::with_registry) to share one, e.g. so a CLI
    /// can expose crawl metrics alongside others).
    pub fn new(addr: SocketAddr, config: CrawlerConfig) -> Self {
        Self::with_registry(addr, config, Arc::new(Registry::new()))
    }

    /// A crawler recording its metrics into `registry`.
    pub fn with_registry(addr: SocketAddr, config: CrawlerConfig, registry: Arc<Registry>) -> Self {
        let throttle = Arc::new(
            config
                .self_throttle_rps
                .map(|rps| TokenBucket::new(rps, (rps / 4.0).max(1.0))),
        );
        let progress = CrawlProgress::new(&registry);
        let pool = config.pool_size.map(ConnectionPool::shared);
        let fetchers = (0..config.workers.max(1))
            .map(|_| Fetcher {
                client: match &pool {
                    Some(pool) => HttpClient::with_pool(addr, Arc::clone(pool)),
                    None => HttpClient::new(addr),
                },
                backoff: config.backoff,
                throttle: Arc::clone(&throttle),
                progress: progress.clone(),
                synced_reconnects: 0,
                trace: config.trace,
            })
            .collect();
        Crawler { fetchers, config, registry, progress, pool }
    }

    /// The shared connection pool, when one is configured.
    pub fn pool(&self) -> Option<&Arc<ConnectionPool>> {
        self.pool.as_ref()
    }

    pub fn stats(&self) -> CrawlStats {
        self.progress.stats()
    }

    /// A cloneable live view of the crawl (share with a display thread).
    pub fn progress(&self) -> CrawlProgress {
        self.progress.clone()
    }

    /// The registry the crawler records into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Phase 1: census of the ID space. Returns accounts sorted by ID and
    /// the scanned ID-space size.
    pub fn census(&mut self) -> Result<(Vec<steam_model::Account>, u64), NetError> {
        self.shard_census(0, 1, None, &Replay::default())
    }

    /// Collects the week panel for the given snapshot's users, probing the
    /// `/reproduction/panel` endpoint for every account (the paper sampled
    /// 0.5% of users; only sampled accounts answer).
    pub fn crawl_panel(
        &mut self,
        accounts: &[steam_model::Account],
    ) -> Result<steam_model::WeekPanel, NetError> {
        let key = self.config.api_key.clone();
        let mut panel = steam_model::WeekPanel::default();
        for (u, acct) in accounts.iter().enumerate() {
            let target = Endpoint::Panel(acct.id).target(Some(&key));
            match self.fetchers[0].get_parsed(&target, wire::parse_panel) {
                Ok(days) => {
                    panel.users.push(u as u32);
                    panel.daily_minutes.push(days);
                }
                Err(NetError::Status { code: 404, .. }) => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(panel)
    }

    /// Runs all three phases and assembles the snapshot.
    ///
    /// `collected_at` stamps the result (the crawler has no other way to
    /// know the nominal collection instant).
    ///
    /// An unsharded crawl is a one-shard fleet: the same phases as
    /// [`crawl_sharded`], with every request going to this crawler's server.
    /// With [`CrawlerConfig::checkpoint_dir`] set, completed work is
    /// journaled into that directory as it happens and the journal is
    /// flushed on *every* exit path — a crawl that dies mid-phase leaves a
    /// resumable journal behind.
    pub fn crawl(&mut self, collected_at: steam_model::SimTime) -> Result<Snapshot, NetError> {
        let dirs = [self.config.checkpoint_dir.clone()];
        let resume = self.config.resume;
        crawl_fleet(std::slice::from_mut(self), &dirs, resume, collected_at)
    }

    /// Phase 1 against one shard of a mod-`n` fleet: walks the shard's
    /// residue class (global indices `shard`, `shard + n`, `shard + 2n`, …)
    /// in batches of up to [`MAX_BATCH_IDS`] *owned* IDs, one batch at a
    /// time (the stop rule depends on batch order). An unsharded census is
    /// shard 0 of 1.
    ///
    /// The stop rule counts consecutive empty owned batches, so each stop
    /// window spans `n×` the ID positions of the unsharded rule — a shard
    /// can never give up before the unsharded census would have. Returned
    /// `scanned` is the shard's last valid *global* index + 1; the fleet's
    /// scanned space is the max over shards.
    ///
    /// Journaled batches are keyed by the global index of their first owned
    /// ID, so a resumed sharded crawl replays its own journal and an `n = 1`
    /// "fleet" journal is record-compatible with an unsharded one.
    fn shard_census(
        &mut self,
        shard: u64,
        n: u64,
        journal: Option<&Mutex<CheckpointStore>>,
        replay: &Replay,
    ) -> Result<(Vec<steam_model::Account>, u64), NetError> {
        let _timer = steam_obs::span("crawl", "census")
            .with_histogram(Arc::clone(&self.progress.phase_census));
        let mut accounts = Vec::new();
        let mut batch_no: u64 = 0; // walk position, in owned batches
        let mut empty_run = 0usize;
        let mut last_valid: Option<u64> = None;
        let stride = MAX_BATCH_IDS as u64 * n;
        let key_of = |b: u64| shard + b * stride;

        // Replay the contiguous prefix of journaled batches; the fetch loop
        // below continues where they end. (When the journal also has the
        // census-complete marker, every batch before it survived — damage
        // tolerance is strictly tail-shaped — so nothing is re-fetched.)
        while let Some(batch) = replay.census_batches.get(&key_of(batch_no)) {
            self.progress.resume_skipped.inc();
            if batch.is_empty() {
                empty_run += 1;
            } else {
                empty_run = 0;
                for p in batch {
                    last_valid = Some(p.id.index().max(last_valid.unwrap_or(0)));
                    accounts.push(p.clone());
                }
                self.progress.profiles_found.set_max(accounts.len() as i64);
            }
            batch_no += 1;
            self.progress.ids_scanned.set_max(key_of(batch_no) as i64);
        }

        if let Some(scanned) = replay.census_complete {
            accounts.sort_by_key(|a| a.id);
            return Ok((accounts, scanned));
        }

        while empty_run < self.config.empty_batches_to_stop {
            let first = key_of(batch_no);
            let ids = (0..MAX_BATCH_IDS as u64).map(|j| SteamId::from_index(first + j * n));
            let players = self.fetchers[0].summaries(&self.config.api_key, ids.collect())?;
            self.progress.census_batches.inc();
            if let Some(j) = journal {
                j.lock().append(&Record::CensusBatch {
                    start_index: first,
                    accounts: players.clone(),
                })?;
            }
            if players.is_empty() {
                empty_run += 1;
            } else {
                empty_run = 0;
                for p in players {
                    last_valid = Some(p.id.index().max(last_valid.unwrap_or(0)));
                    accounts.push(p);
                }
                self.progress.profiles_found.set_max(accounts.len() as i64);
            }
            batch_no += 1;
            self.progress.ids_scanned.set_max(key_of(batch_no) as i64);
        }
        accounts.sort_by_key(|a| a.id);
        let scanned = last_valid.map_or(0, |v| v + 1);
        if let Some(j) = journal {
            j.lock().append(&Record::CensusComplete { scanned_id_space: scanned })?;
        }
        Ok((accounts, scanned))
    }

    /// Closes the idle connections of private-connection fetchers, so that
    /// none sits a phase out holding one: a thread-per-connection server
    /// parks a worker thread on every open keep-alive connection until its
    /// idle timeout. A shared pool's idle connections serve any fetcher and
    /// stay open.
    fn close_idle(&self) {
        if self.pool.is_none() {
            for fetcher in &self.fetchers {
                fetcher.client.pool().close_idle();
            }
        }
    }
}

/// Crawls a fleet — one crawler for an unsharded crawl, one per shard
/// otherwise — with crawler `i` journaling into `dirs[i]`. Every journal is
/// flushed on every exit path.
fn crawl_fleet(
    crawlers: &mut [Crawler],
    dirs: &[Option<PathBuf>],
    resume: bool,
    collected_at: steam_model::SimTime,
) -> Result<Snapshot, NetError> {
    let mut journals = Vec::with_capacity(crawlers.len());
    let mut replays = Vec::with_capacity(crawlers.len());
    for (crawler, dir) in crawlers.iter().zip(dirs) {
        let (journal, replay) = match dir {
            Some(dir) => {
                let (store, replay) = if resume {
                    CheckpointStore::resume(dir)?
                } else {
                    (CheckpointStore::create(dir)?, Replay::default())
                };
                let store = store.with_counter(Arc::clone(&crawler.progress.checkpoint_records));
                (Some(Mutex::new(store)), replay)
            }
            None => (None, Replay::default()),
        };
        journals.push(journal);
        replays.push(replay);
    }
    let mut fleet = Fleet { crawlers, journals, replays };
    let result = fleet.phases(collected_at);
    for journal in fleet.journals.iter().flatten() {
        let flushed = journal.lock().flush();
        if result.is_ok() {
            // A failed final flush matters only on success; on the error
            // path the original failure is the story (the journal keeps
            // whatever did make it to disk).
            flushed?;
        }
    }
    result
}

/// The crawlers of one crawl, each with its journal and what that journal
/// replayed. Shard `i` of `n` owns the IDs, gids and app ids that
/// `shard_of`, `shard_of_group` and `shard_of_app` map to `i`; with one
/// shard they all map to 0.
struct Fleet<'a> {
    crawlers: &'a mut [Crawler],
    journals: Vec<Option<Mutex<CheckpointStore>>>,
    replays: Vec<Replay>,
}

impl Fleet<'_> {
    fn phases(&mut self, collected_at: steam_model::SimTime) -> Result<Snapshot, NetError> {
        let n = self.crawlers.len();
        let progress = self.crawlers[0].progress.clone();

        // --- phase 1: every shard censuses its residue class concurrently.
        // The classes partition the ID space, so the union is exactly the
        // unsharded census; sorting by ID reproduces its order, and the
        // scanned space is the max of the per-shard last-valid watermarks.
        let (journals, replays) = (&self.journals, &self.replays);
        let census = each_shard(self.crawlers, |i, crawler| {
            crawler.shard_census(i as u64, n as u64, journals[i].as_ref(), &replays[i])
        });
        let mut accounts: Vec<steam_model::Account> = Vec::new();
        let mut scanned_id_space = 0u64;
        for result in census {
            let (shard_accounts, shard_scanned) = result?;
            accounts.extend(shard_accounts);
            scanned_id_space = scanned_id_space.max(shard_scanned);
        }
        accounts.sort_by_key(|a| a.id);
        progress.profiles_found.set(accounts.len() as i64);
        let index_of: HashMap<SteamId, u32> = accounts
            .iter()
            .enumerate()
            .map(|(i, a)| (a.id, i as u32))
            .collect();

        // --- phase 2: every user's friends, games and groups from the shard
        // that owns the user, then every group seen from the shard that owns
        // the gid, in ascending gid order (which becomes the dense index).
        let harvest_timer = steam_obs::span("crawl", "harvest")
            .with_histogram(Arc::clone(&progress.phase_harvest));
        let key = self.crawlers[0].config.api_key.clone();
        let users: Vec<u32> = (0..accounts.len() as u32).collect();
        let user_records = self.gather(
            &users,
            |&u| shard_of(accounts[u as usize].id, n),
            |fetcher, &u| fetcher.harvest_user(&key, u, accounts[u as usize].id),
        )?;
        let MergedUsers { friendships, ownerships, raw_memberships, seen_groups } =
            merge_users(user_records, &index_of);
        let gids: Vec<GroupId> = seen_groups.into_iter().collect();
        let groups = self.gather(
            &gids,
            |&gid| shard_of_group(gid, n),
            |fetcher, &gid| fetcher.group_page(gid),
        )?;
        let group_index: HashMap<GroupId, u32> =
            gids.iter().enumerate().map(|(i, &gid)| (gid, i as u32)).collect();
        let memberships = dense_memberships(raw_memberships, &group_index);
        drop(harvest_timer);

        // --- phase 3: the catalog is replicated to every shard; the app list
        // comes from shard 0 and each app from the shard that owns its id
        // (pure load spreading — any shard could answer).
        let catalog_timer = steam_obs::span("crawl", "catalog")
            .with_histogram(Arc::clone(&progress.phase_catalog));
        let app_ids = if let Some(list) = &self.replays[0].app_list {
            progress.resume_skipped.inc();
            list.clone()
        } else {
            self.crawlers[0].close_idle();
            let list = self.crawlers[0].fetchers[0].app_list()?;
            if let Some(j) = &self.journals[0] {
                j.lock().append(&Record::AppList(list.clone()))?;
            }
            list
        };
        let mut catalog =
            self.gather(&app_ids, |&app| shard_of_app(app, n), |fetcher, &app| fetcher.app(app))?;
        catalog.sort_by_key(|g| g.app_id);
        drop(catalog_timer);

        Ok(Snapshot {
            collected_at,
            scanned_id_space,
            accounts,
            friendships,
            ownerships,
            groups,
            memberships,
            catalog,
        })
    }

    /// One record per item of `items`, in `items` order: replayed when any
    /// shard's journal holds it, otherwise fetched by the shard `pick`
    /// assigns it to. Each shard's share runs concurrently on up to
    /// [`CrawlerConfig::workers`] of that shard's workers, one fetcher per
    /// worker, claiming one item at a time through
    /// `steam_par::run_chunks_with`. A record is journaled before it
    /// counts. Once any item fails no worker anywhere starts another, and
    /// the first error in `items` order is returned.
    fn gather<R: Fetched>(
        &mut self,
        items: &[R::Key],
        pick: impl Fn(&R::Key) -> usize,
        fetch: impl Fn(&mut Fetcher, &R::Key) -> Result<R, NetError> + Sync,
    ) -> Result<Vec<R>, NetError> {
        let Fleet { crawlers, journals, replays } = self;
        let slots: Vec<Option<R>> = items
            .iter()
            .map(|key| replays.iter().find_map(|r| R::replayed(r, key)).cloned())
            .collect();
        crawlers[0].progress.resume_skipped.add(slots.iter().flatten().count() as u64);
        let mut shares: Vec<Vec<usize>> = vec![Vec::new(); crawlers.len()];
        for (k, slot) in slots.iter().enumerate() {
            if slot.is_none() {
                shares[pick(&items[k])].push(k);
            }
        }
        // Workers fill `slots` in place and keep the error of the lowest
        // index, so no per-item result list is built on the side.
        let slots = Mutex::new(slots);
        let first_err: Mutex<Option<(usize, NetError)>> = Mutex::new(None);
        let failed = AtomicBool::new(false);
        each_shard(crawlers, |s, crawler| {
            crawler.close_idle();
            let (share, journal) = (&shares[s], journals[s].as_ref());
            let workers = steam_par::workers(crawler.config.workers, share.len(), 1);
            let mut fetchers = crawler.fetchers.iter_mut();
            steam_par::run_chunks_with(
                workers,
                share.len(),
                1,
                || fetchers.next().expect("one fetcher per worker"),
                |fetcher, j, _| {
                    if failed.load(Ordering::Relaxed) {
                        return;
                    }
                    let k = share[j];
                    let rec = fetch(fetcher, &items[k]).and_then(|rec| {
                        if let Some(journal) = journal {
                            journal.lock().append(&rec.record())?;
                        }
                        R::counter(&fetcher.progress).inc();
                        Ok(rec)
                    });
                    match rec {
                        Ok(rec) => slots.lock()[k] = Some(rec),
                        Err(e) => {
                            failed.store(true, Ordering::Relaxed);
                            let mut first = first_err.lock();
                            if first.as_ref().is_none_or(|&(i, _)| k < i) {
                                *first = Some((k, e));
                            }
                        }
                    }
                },
            );
        });
        if let Some((_, e)) = first_err.into_inner() {
            return Err(e);
        }
        let slots = slots.into_inner().into_iter();
        Ok(slots.map(|s| s.expect("every item replayed or fetched")).collect())
    }
}

/// A record a fan-out phase fetches per item: the key it is fetched by,
/// where a journal replays it from, the journal record that holds it and
/// the counter that counts it.
trait Fetched: Clone + Send {
    type Key: Sync;
    fn replayed<'r>(replay: &'r Replay, key: &Self::Key) -> Option<&'r Self>;
    fn record(&self) -> Record;
    fn counter(progress: &CrawlProgress) -> &Counter;
}

/// Phase 2's per-user harvest, keyed by census index.
impl Fetched for UserRecord {
    type Key = u32;
    fn replayed<'r>(replay: &'r Replay, u: &u32) -> Option<&'r Self> {
        replay.users.get(u)
    }
    fn record(&self) -> Record {
        Record::User(self.clone())
    }
    fn counter(progress: &CrawlProgress) -> &Counter {
        &progress.users_harvested
    }
}

/// Group metadata via the community-page analog.
impl Fetched for Group {
    type Key = GroupId;
    fn replayed<'r>(replay: &'r Replay, gid: &GroupId) -> Option<&'r Self> {
        replay.groups.get(gid)
    }
    fn record(&self) -> Record {
        Record::GroupPage(self.clone())
    }
    fn counter(progress: &CrawlProgress) -> &Counter {
        &progress.groups_fetched
    }
}

/// Phase 3's catalog entries: details plus achievement percentages.
impl Fetched for Game {
    type Key = AppId;
    fn replayed<'r>(replay: &'r Replay, app: &AppId) -> Option<&'r Self> {
        replay.apps.get(app)
    }
    fn record(&self) -> Record {
        Record::App(self.clone())
    }
    fn counter(progress: &CrawlProgress) -> &Counter {
        &progress.apps_fetched
    }
}

/// Runs `f` on every shard's crawler — inline for one shard, on one thread
/// per shard otherwise — and returns the results in shard order.
fn each_shard<T: Send>(
    crawlers: &mut [Crawler],
    f: impl Fn(usize, &mut Crawler) -> T + Sync,
) -> Vec<T> {
    if let [crawler] = crawlers {
        return vec![f(0, crawler)];
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = crawlers
            .iter_mut()
            .enumerate()
            .map(|(i, crawler)| scope.spawn(move || f(i, crawler)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    })
}

/// Phase-2 users merged in index order (see [`merge_users`]).
struct MergedUsers {
    /// Sorted; each reciprocal friendship is reported from both endpoints
    /// and kept from the lower-index side.
    friendships: Vec<Friendship>,
    ownerships: Vec<Vec<OwnedGame>>,
    raw_memberships: Vec<Vec<GroupId>>,
    seen_groups: BTreeSet<GroupId>,
}

/// Merges harvested or replayed users, given in index order, into the
/// snapshot's friendships, libraries and raw group lists.
fn merge_users(user_records: Vec<UserRecord>, index_of: &HashMap<SteamId, u32>) -> MergedUsers {
    let mut friendships: Vec<Friendship> = Vec::new();
    let mut ownerships = Vec::with_capacity(user_records.len());
    let mut raw_memberships: Vec<Vec<GroupId>> = Vec::with_capacity(user_records.len());
    let mut seen_groups = BTreeSet::new();
    for rec in user_records {
        for &(fid, since) in &rec.friends {
            if let Some(&v) = index_of.get(&fid) {
                if rec.index < v {
                    friendships.push(Friendship::new(rec.index, v, since));
                }
            }
        }
        seen_groups.extend(rec.groups.iter().copied());
        ownerships.push(rec.games);
        raw_memberships.push(rec.groups);
    }
    friendships.sort_by_key(|e| (e.a, e.b));
    MergedUsers { friendships, ownerships, raw_memberships, seen_groups }
}

/// Each user's group ids as sorted dense group indices.
fn dense_memberships(
    raw_memberships: Vec<Vec<GroupId>>,
    group_index: &HashMap<GroupId, u32>,
) -> Vec<Vec<u32>> {
    raw_memberships
        .into_iter()
        .map(|gids| {
            let mut m: Vec<u32> = gids.iter().map(|g| group_index[g]).collect();
            m.sort_unstable();
            m
        })
        .collect()
}

/// Crawls a sharded fleet into one merged snapshot, byte-identical to an
/// unsharded crawl of the same world.
///
/// One [`Crawler`] per shard address, all recording into a private shared
/// registry (see [`crawl_sharded_observed`] to supply one), driven by the
/// same phases as [`Crawler::crawl`]: every shard censuses its residue
/// class concurrently, and users, groups and apps each go to the shard
/// that owns them, every shard fetching its share concurrently on
/// [`CrawlerConfig::workers`] worker threads *per shard*.
///
/// With [`CrawlerConfig::checkpoint_dir`] set, each shard journals into its
/// own `shard-{i}-of-{n}` subdirectory, flushed on every exit path; with
/// [`CrawlerConfig::resume`] each shard replays its own journal. Global user
/// indices are stable across resume because the merged census is
/// deterministic.
///
/// Other knobs apply per shard: `self_throttle_rps` and `pool_size` bound
/// each shard's crawlers separately (fleet-wide rate is `n ×` the knob).
pub fn crawl_sharded(
    addrs: &[SocketAddr],
    config: &CrawlerConfig,
    collected_at: steam_model::SimTime,
) -> Result<Snapshot, NetError> {
    crawl_sharded_observed(addrs, config, collected_at, Arc::new(Registry::new()))
}

/// [`crawl_sharded`] recording fleet-wide metrics into `registry` (attach a
/// [`CrawlProgress`] to the same registry for a live progress line).
pub fn crawl_sharded_observed(
    addrs: &[SocketAddr],
    config: &CrawlerConfig,
    collected_at: steam_model::SimTime,
    registry: Arc<Registry>,
) -> Result<Snapshot, NetError> {
    assert!(!addrs.is_empty(), "crawl_sharded needs at least one shard address");
    let n = addrs.len();
    let mut crawlers: Vec<Crawler> = addrs
        .iter()
        .map(|&addr| Crawler::with_registry(addr, config.clone(), Arc::clone(&registry)))
        .collect();
    let dirs: Vec<Option<PathBuf>> = (0..n)
        .map(|i| config.checkpoint_dir.as_ref().map(|d| d.join(format!("shard-{i}-of-{n}"))))
        .collect();
    crawl_fleet(&mut crawlers, &dirs, config.resume, collected_at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{serve, ApiService, RateLimit};
    use std::sync::Arc;
    use steam_synth::{Generator, SynthConfig};

    fn tiny_world() -> Arc<Snapshot> {
        let mut cfg = SynthConfig::small(91);
        cfg.n_users = 300;
        cfg.n_products = 120;
        cfg.n_groups = 25;
        Arc::new(Generator::new(cfg).generate())
    }

    #[test]
    fn crawl_reconstructs_snapshot() {
        let original = tiny_world();
        let (server, _service) =
            serve(Arc::clone(&original), "127.0.0.1:0", 2, RateLimit::default()).unwrap();
        let mut crawler = Crawler::new(server.addr(), CrawlerConfig::default());
        let crawled = crawler.crawl(original.collected_at).unwrap();

        crawled.validate().unwrap();
        // The crawl sees exactly what the API exposes, byte for byte.
        assert_eq!(
            steam_model::codec::encode_snapshot_v3(&crawled, 1),
            steam_model::codec::encode_snapshot_v3(&original.observable(), 1)
        );
        let stats = crawler.stats();
        assert!(stats.requests > original.n_users() as u64 * 3);
        assert_eq!(stats.profiles_found, original.n_users() as u64);
    }

    /// File round trip for crawl output: the CLI lands crawled snapshots in
    /// the v3 container, and reading the file back (fully or on several
    /// workers) must reproduce the crawl byte-for-byte.
    #[test]
    fn crawled_snapshot_round_trips_identically_through_a_v3_file() {
        let original = tiny_world();
        let (server, _service) =
            serve(Arc::clone(&original), "127.0.0.1:0", 2, RateLimit::default()).unwrap();
        let mut crawler = Crawler::new(server.addr(), CrawlerConfig::default());
        let crawled = crawler.crawl(original.collected_at).unwrap();

        let dir = std::env::temp_dir()
            .join(format!("crawl-versions-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("crawl-v3.bin");
        steam_model::codec::write_snapshot_v3(&path, &crawled, 2).unwrap();
        let baseline = steam_model::codec::encode_snapshot_v3(&crawled, 1);
        assert_eq!(std::fs::read(&path).unwrap(), baseline.to_vec());
        for jobs in [1, 3] {
            let read = steam_model::codec::read_snapshot_jobs(&path, jobs).unwrap();
            assert_eq!(
                steam_model::codec::encode_snapshot_v3(&read, 1),
                baseline,
                "the v3 file did not round-trip the crawl at {jobs} jobs"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crawl_survives_rate_limiting() {
        // A tight server-side limit forces 429s; backoff must get through.
        let original = {
            let mut cfg = SynthConfig::small(92);
            cfg.n_users = 40;
            cfg.n_products = 30;
            cfg.n_groups = 5;
            Arc::new(Generator::new(cfg).generate())
        };
        let (server, _service) = serve(
            Arc::clone(&original),
            "127.0.0.1:0",
            2,
            // Capped far below the crawl's natural rate even on a loaded
            // host running the whole suite in parallel, so 429s are
            // guaranteed regardless of server mode or CPU contention.
            RateLimit { per_key_rps: 100.0, burst: 5.0 },
        )
        .unwrap();
        let config = CrawlerConfig {
            empty_batches_to_stop: 2,
            backoff: Backoff {
                base: std::time::Duration::from_millis(5),
                max: std::time::Duration::from_millis(100),
                attempts: 10,
            },
            ..CrawlerConfig::default()
        };
        let mut crawler = Crawler::new(server.addr(), config);
        let crawled = crawler.crawl(original.collected_at).unwrap();
        assert_eq!(crawled.n_users(), original.n_users());
        assert!(crawler.stats().retries_observed > 0, "expected 429 retries");
    }

    #[test]
    fn panel_crawl_reconstructs_week_panel() {
        let mut cfg = SynthConfig::small(95);
        cfg.n_users = 2_000;
        cfg.n_products = 120;
        cfg.n_groups = 20;
        let world = Generator::new(cfg).generate_world();
        // Panel rows index into the population; the service is keyed by the
        // second snapshot's accounts (same ids as the first).
        let snapshot = Arc::new(world.second_snapshot.clone());
        let service = ApiService::new(
            Arc::clone(&snapshot),
            RateLimit::default(),
        )
        .with_panel(world.panel.clone());
        let (server, _service) =
            crate::service::serve_service(service, "127.0.0.1:0", 2).unwrap();
        let mut crawler = Crawler::new(server.addr(), CrawlerConfig::default());
        let crawled = crawler.crawl_panel(&snapshot.accounts).unwrap();
        // The generated panel is ordered by day-one playtime, the crawl by
        // account id; compare as user → days maps.
        let as_map = |p: &steam_model::WeekPanel| -> HashMap<u32, [u32; 7]> {
            p.users.iter().copied().zip(p.daily_minutes.iter().copied()).collect()
        };
        assert_eq!(as_map(&crawled), as_map(&world.panel));
    }

    #[test]
    fn parallel_crawl_is_identical_to_sequential() {
        let original = {
            let mut cfg = SynthConfig::small(94);
            cfg.n_users = 250;
            cfg.n_products = 100;
            cfg.n_groups = 20;
            Arc::new(Generator::new(cfg).generate())
        };
        let (server, _service) =
            serve(Arc::clone(&original), "127.0.0.1:0", 4, RateLimit::default()).unwrap();
        let crawl_with = |workers: usize| {
            let config = CrawlerConfig {
                empty_batches_to_stop: 2,
                workers,
                ..CrawlerConfig::default()
            };
            let mut crawler = Crawler::new(server.addr(), config);
            crawler.crawl(original.collected_at).unwrap()
        };
        let expected = steam_model::codec::encode_snapshot_v3(&original.observable(), 1);
        for workers in [1, 4] {
            let crawled = crawl_with(workers);
            crawled.validate().unwrap();
            assert_eq!(
                steam_model::codec::encode_snapshot_v3(&crawled, 1),
                expected,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn pooled_crawl_reuses_sockets_and_matches_unpooled_bytes() {
        let original = {
            let mut cfg = SynthConfig::small(97);
            cfg.n_users = 250;
            cfg.n_products = 100;
            cfg.n_groups = 20;
            Arc::new(Generator::new(cfg).generate())
        };
        const WORKERS: usize = 4;
        let crawl_with = |pool_size: Option<usize>| {
            // Fresh server per crawl so connection counts aren't conflated.
            let registry = Arc::new(steam_obs::Registry::new());
            let (server, _service) = crate::service::serve_service_faulty(
                ApiService::new(Arc::clone(&original), RateLimit::default()),
                "127.0.0.1:0",
                WORKERS + 1,
                Some(Arc::clone(&registry)),
                None,
            )
            .unwrap();
            let config = CrawlerConfig {
                empty_batches_to_stop: 2,
                workers: WORKERS,
                pool_size,
                ..CrawlerConfig::default()
            };
            let mut crawler = Crawler::new(server.addr(), config);
            let crawled = crawler.crawl(original.collected_at).unwrap();
            let connections =
                registry.counter("http_connections_total", &[]).get();
            (crawled, connections, crawler)
        };

        let (pooled, pooled_conns, crawler) = crawl_with(Some(WORKERS));
        let (unpooled, unpooled_conns, _) = crawl_with(None);

        // The reconstructed snapshot is byte-identical either way.
        assert_eq!(
            steam_model::codec::encode_snapshot_v3(&pooled, 1),
            steam_model::codec::encode_snapshot_v3(&unpooled, 1),
            "pooling must not change the crawled bytes"
        );
        // The whole pooled crawl fits in pool-size sockets; the unpooled one
        // needs a socket per fetcher (main + workers).
        assert!(
            pooled_conns <= WORKERS as u64,
            "pooled crawl opened {pooled_conns} server connections (pool is {WORKERS})"
        );
        assert!(
            unpooled_conns > WORKERS as u64,
            "unpooled crawl was expected to open a socket per fetcher, got {unpooled_conns}"
        );
        let pool = crawler.pool().expect("pooled crawl must expose its pool");
        assert_eq!(pool.connects(), pooled_conns, "client and server disagree on sockets");
        assert!(pool.reuses() > 0, "pooled crawl never reused a connection");
    }

    #[test]
    fn crawl_metrics_mirror_the_crawl() {
        let original = tiny_world();
        let (server, _service) =
            serve(Arc::clone(&original), "127.0.0.1:0", 2, RateLimit::default()).unwrap();
        let registry = Arc::new(steam_obs::Registry::new());
        let config = CrawlerConfig { empty_batches_to_stop: 2, ..CrawlerConfig::default() };
        let mut crawler = Crawler::with_registry(server.addr(), config, Arc::clone(&registry));
        let progress = crawler.progress();
        let crawled = crawler.crawl(original.collected_at).unwrap();

        let stats = crawler.stats();
        assert_eq!(stats.users_harvested, crawled.n_users() as u64);
        assert_eq!(stats.groups_fetched, crawled.groups.len() as u64);
        assert_eq!(stats.apps_fetched, crawled.catalog.len() as u64);
        assert_eq!(stats.profiles_found, crawled.n_users() as u64);
        assert!(stats.census_batches > 0);
        assert!(stats.ids_scanned >= crawled.scanned_id_space);
        // census batches + 3 per user + 1 per group + app list + 2 per app +
        // nothing else.
        let expected_requests = stats.census_batches
            + 3 * stats.users_harvested
            + stats.groups_fetched
            + 1
            + 2 * stats.apps_fetched;
        assert_eq!(stats.requests, expected_requests);
        // The cloned progress handle observes the same counters.
        assert_eq!(progress.stats().requests, stats.requests);
        assert!(!progress.progress_line().is_empty());
        // And everything lands in the shared registry's exposition.
        let text = registry.render_prometheus();
        assert!(text.contains(&format!("crawl_requests_total {}", stats.requests)));
        assert!(text.contains("crawl_phase_duration_seconds_count{phase=\"census\"} 1"));
        assert!(text.contains("crawl_phase_duration_seconds_count{phase=\"harvest\"} 1"));
        assert!(text.contains("crawl_phase_duration_seconds_count{phase=\"catalog\"} 1"));
    }

    #[test]
    fn rate_limited_crawl_counts_429_retries_and_backoff_wait() {
        let original = {
            let mut cfg = SynthConfig::small(96);
            cfg.n_users = 40;
            cfg.n_products = 20;
            cfg.n_groups = 5;
            Arc::new(Generator::new(cfg).generate())
        };
        let (server, _service) = serve(
            Arc::clone(&original),
            "127.0.0.1:0",
            2,
            // Capped far below the crawl's natural rate even on a loaded
            // host running the whole suite in parallel, so 429s are
            // guaranteed regardless of server mode or CPU contention.
            RateLimit { per_key_rps: 100.0, burst: 5.0 },
        )
        .unwrap();
        let config = CrawlerConfig {
            empty_batches_to_stop: 2,
            backoff: Backoff {
                base: std::time::Duration::from_millis(5),
                max: std::time::Duration::from_millis(100),
                attempts: 10,
            },
            ..CrawlerConfig::default()
        };
        let mut crawler = Crawler::new(server.addr(), config);
        crawler.crawl(original.collected_at).unwrap();
        let stats = crawler.stats();
        assert!(stats.retries_429 > 0, "expected 429-classified retries");
        assert_eq!(
            stats.retries_observed,
            stats.retries_429 + stats.retries_5xx + stats.retries_io + stats.retries_corrupt
        );
        assert!(
            stats.backoff_wait > Duration::ZERO,
            "retries must account their sleep time"
        );
    }

    #[test]
    fn traced_crawl_joins_client_and_server_spans_without_changing_bytes() {
        let original = {
            let mut cfg = SynthConfig::small(98);
            cfg.n_users = 60;
            cfg.n_products = 30;
            cfg.n_groups = 6;
            Arc::new(Generator::new(cfg).generate())
        };
        let crawl_with = |trace: bool| {
            let (server, _service) =
                serve(Arc::clone(&original), "127.0.0.1:0", 2, RateLimit::default()).unwrap();
            let config = CrawlerConfig {
                empty_batches_to_stop: 2,
                trace,
                ..CrawlerConfig::default()
            };
            let mut crawler = Crawler::new(server.addr(), config);
            crawler.crawl(original.collected_at).unwrap()
        };
        let traced = crawl_with(true);
        let untraced = crawl_with(false);
        assert_eq!(
            steam_model::codec::encode_snapshot_v3(&traced, 1),
            steam_model::codec::encode_snapshot_v3(&untraced, 1),
            "tracing must not change the crawled bytes"
        );
        // The server ran in-process, so the flight recorder holds both sides
        // of every recent hop: find a crawl-issued client span whose trace id
        // also tagged a server span — a complete joined trace.
        let spans = steam_obs::recent_spans();
        let joined = spans.iter().any(|c| {
            c.kind == steam_obs::SpanKind::Client
                && c.target == "crawl"
                && spans
                    .iter()
                    .any(|s| s.kind == steam_obs::SpanKind::Server && s.trace == c.trace)
        });
        assert!(joined, "no trace with both a client and a server span");
    }

    #[test]
    fn self_throttle_limits_request_rate() {
        let original = {
            let mut cfg = SynthConfig::small(93);
            cfg.n_users = 30;
            cfg.n_products = 20;
            cfg.n_groups = 4;
            Arc::new(Generator::new(cfg).generate())
        };
        let (server, _service) =
            serve(Arc::clone(&original), "127.0.0.1:0", 2, RateLimit::default()).unwrap();
        // The cap must sit well below the server's natural rate in *any*
        // mode, or the burst + refill could absorb this small crawl whole
        // and the throttle would never engage.
        let rps = 150.0;
        let config = CrawlerConfig {
            empty_batches_to_stop: 2,
            self_throttle_rps: Some(rps),
            ..CrawlerConfig::default()
        };
        let mut crawler = Crawler::new(server.addr(), config);
        let start = std::time::Instant::now();
        let crawled = crawler.crawl(original.collected_at).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(crawled.n_users(), original.n_users());
        let requests = crawler.stats().requests;
        // The bucket bursts rps/4 tokens and refills at rps tokens/sec, so
        // n requests need at least ~(n - burst)/rps seconds end to end.
        let burst = rps / 4.0;
        let min_expected =
            std::time::Duration::from_secs_f64((requests as f64 - burst).max(0.0) / rps);
        assert!(
            elapsed >= min_expected,
            "crawl of {requests} requests finished in {elapsed:?} (< {min_expected:?})"
        );
        assert!(
            crawler.stats().throttle_wait > Duration::ZERO,
            "a rate-capped crawl must record throttle wait time"
        );
    }
}
