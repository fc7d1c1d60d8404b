//! Helpers shared by the workloads.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use steam_obs::{HistogramSnapshot, Registry};
use steam_synth::SynthConfig;

/// Arguments every workload receives.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Tiny worlds and short phases: every workload in a few seconds.
    pub smoke: bool,
}

impl RunArgs {
    pub fn budget(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// The world `steam-cli generate --users N --seed S` builds; a smoke run
/// also shrinks the catalog, which the crawl fetches in full.
pub fn world_config(users: usize, seed: u64, smoke: bool) -> SynthConfig {
    let mut cfg = SynthConfig::small(seed);
    cfg.n_users = users;
    cfg.n_groups = (users / 33).max(10);
    if smoke {
        cfg.n_products = 300;
    }
    cfg.validate().expect("benchmark world sizes are valid");
    cfg
}

/// Wall time of one synthesis stage, in seconds.
pub fn stage_secs(t: &steam_synth::GenTimings, stage: &str) -> f64 {
    t.stages
        .iter()
        .filter(|s| s.stage == stage)
        .map(|s| s.wall.as_secs_f64())
        .sum()
}

/// The `synth.*` rows: the three heaviest stages and the rest of the wall
/// time (the catalog and population stages overlap, so "the rest" is wall
/// time, not a stage sum).
pub fn set_synth_rows(v: &mut crate::result::Values, t: &steam_synth::GenTimings) {
    let named = ["friendships", "evolve", "ownership"].map(|s| stage_secs(t, s));
    v.set("synth.friendships_s", named[0]);
    v.set("synth.evolve_s", named[1]);
    v.set("synth.ownership_s", named[2]);
    v.set(
        "synth.other_s",
        t.wall.as_secs_f64() - named.iter().sum::<f64>(),
    );
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    steam_obs::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

/// A scratch directory beside the benchmark's own build output, so a run
/// writes nowhere outside the checkout it was built in. Removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
        let base = exe.parent().ok_or("benchmark binary has no directory")?;
        let dir = base
            .join("perfbench-work")
            .join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Values rounded to four decimals, for the per-pass log lines.
pub fn rounded(values: &[f64]) -> Vec<f64> {
    values.iter().map(|x| (x * 1e4).round() / 1e4).collect()
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Whether a pass loop may stop: the budget is spent and enough passes ran
/// for a median.
pub fn done(start: Instant, passes: usize, args: &RunArgs, min_passes: usize) -> bool {
    passes >= min_passes && start.elapsed() >= args.budget()
}

/// Sum of a registry histogram (recorded in microseconds), in seconds.
pub fn histogram_secs(registry: &Registry, name: &str, labels: &[(&str, &str)]) -> f64 {
    registry.histogram(name, labels).sum() as f64 / 1e6
}

/// Median of a registry histogram recorded in microseconds, in ms.
pub fn histogram_p50_ms(registry: &Registry, name: &str, labels: &[(&str, &str)]) -> f64 {
    registry.histogram(name, labels).quantile(0.5) / 1e3
}

/// Adds histogram snapshots bucket by bucket.
pub fn merge(into: &mut Option<HistogramSnapshot>, add: HistogramSnapshot) {
    match into {
        None => *into = Some(add),
        Some(acc) => {
            for (a, b) in acc.buckets.iter_mut().zip(add.buckets) {
                *a += b;
            }
            acc.count += add.count;
            acc.sum += add.sum;
        }
    }
}

/// Cache hit ratio over servers' per-endpoint cache counters.
pub fn cache_hit_ratio(registries: &[&Registry]) -> f64 {
    const ENDPOINTS: [&str; 9] = [
        "summaries",
        "friends",
        "games",
        "groups",
        "applist",
        "appdetails",
        "achievements",
        "grouppage",
        "panel",
    ];
    let total = |name: &str| -> u64 {
        registries
            .iter()
            .flat_map(|r| {
                ENDPOINTS
                    .iter()
                    .map(move |&ep| r.counter(name, &[("endpoint", ep)]).get())
            })
            .sum()
    };
    let (hits, misses) = (
        total("api_cache_hits_total"),
        total("api_cache_misses_total"),
    );
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Request paths behind each `api.handler_p50_ms.*` metric.
pub const HANDLERS: [(&str, &str); 5] = [
    (
        "api.handler_p50_ms.summaries",
        "/ISteamUser/GetPlayerSummaries/v2",
    ),
    ("api.handler_p50_ms.friends", "/ISteamUser/GetFriendList/v1"),
    (
        "api.handler_p50_ms.games",
        "/IPlayerService/GetOwnedGames/v1",
    ),
    (
        "api.handler_p50_ms.groups",
        "/ISteamUser/GetUserGroupList/v1",
    ),
    ("api.handler_p50_ms.appdetails", "/api/appdetails"),
];

/// Share of a pool's checkouts that reused an idle connection.
pub fn reuse_ratio(pool: &steam_net::ConnectionPool) -> f64 {
    let (reuses, connects) = (pool.reuses() as f64, pool.connects() as f64);
    if reuses + connects > 0.0 {
        reuses / (reuses + connects)
    } else {
        0.0
    }
}

/// Time the reactor spent out of `epoll_wait` (processing events and
/// running handlers inline), in seconds.
pub fn reactor_busy_secs(registry: &Registry) -> f64 {
    histogram_secs(registry, "reactor_loop_iteration_duration_seconds", &[])
}

/// 64-bit FNV-1a, for printing report digests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// splitmix64: the seeded stream every generated input draws from.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}
