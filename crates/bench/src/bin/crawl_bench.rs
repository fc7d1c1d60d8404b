//! End-to-end serve→crawl throughput benchmark: runs the API server and the
//! crawler in-process and reports requests/sec plus p50/p99 fetch latency,
//! establishing the BENCH trajectory for the serving fast path.
//!
//! Three runs over the same synthetic snapshot:
//!
//! * `baseline` — wire cache off, one private connection per fetcher (the
//!   pre-fast-path configuration);
//! * `cold` — cache on but empty, crawler on a shared connection pool;
//! * `warm` — a second crawl against the *same* server, so every cacheable
//!   body is already serialized (a crawl fetches each body once, so only a
//!   re-crawl shows the cache at full effect).
//!
//! The crawled snapshot must be byte-identical across all three — the fast
//! path is not allowed to change a single wire byte.
//!
//! With `--trace`, two extra crawls run against a fresh uncached server —
//! one with span recording disabled, one with it on (the default) — and the
//! report gains a `trace_overhead` object with the req/s delta. The traced
//! and untraced snapshots must also be byte-identical: tracing is not
//! allowed to change the crawl either.
//!
//! ```text
//! cargo run --release -p steam-bench --bin crawl_bench
//! cargo run --release -p steam-bench --bin crawl_bench -- --users 600 --workers 8 --out BENCH_crawl.json
//! ```

use std::sync::Arc;
use std::time::Instant;

use steam_api::service::{serve_service, ApiService, RateLimit};
use steam_api::{Crawler, CrawlerConfig};
use steam_model::{codec, Snapshot};
use steam_net::Json;
use steam_synth::{Generator, SynthConfig};

struct Run {
    name: &'static str,
    requests: u64,
    elapsed_secs: f64,
    requests_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
}

impl Run {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.to_string())),
            ("requests", Json::Num(self.requests as f64)),
            ("elapsed_secs", Json::Num(self.elapsed_secs)),
            ("requests_per_sec", Json::Num(self.requests_per_sec)),
            ("p50_ms", Json::Num(self.p50_ms)),
            ("p99_ms", Json::Num(self.p99_ms)),
        ])
    }
}

fn crawl_once(
    name: &'static str,
    addr: std::net::SocketAddr,
    workers: usize,
    pooled: bool,
    trace: bool,
    original: &Snapshot,
) -> (Snapshot, Run) {
    let config = CrawlerConfig {
        empty_batches_to_stop: 2,
        workers,
        pool_size: if pooled { Some(workers) } else { None },
        trace,
        ..CrawlerConfig::default()
    };
    let mut crawler = Crawler::new(addr, config);
    let progress = crawler.progress();
    let start = Instant::now();
    let crawled = crawler.crawl(original.collected_at).expect("crawl failed");
    let elapsed = start.elapsed().as_secs_f64();
    let stats = crawler.stats();
    // request_latency records microseconds.
    let p50 = progress.request_latency().quantile(0.50) / 1000.0;
    let p99 = progress.request_latency().quantile(0.99) / 1000.0;
    let run = Run {
        name,
        requests: stats.requests,
        elapsed_secs: elapsed,
        requests_per_sec: stats.requests as f64 / elapsed.max(1e-9),
        p50_ms: p50,
        p99_ms: p99,
    };
    eprintln!(
        "# {name:<8} {:>7} reqs in {:>6.2}s = {:>9.0} req/s  p50 {:.3}ms  p99 {:.3}ms",
        run.requests, run.elapsed_secs, run.requests_per_sec, run.p50_ms, run.p99_ms
    );
    (crawled, run)
}

fn arg(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

fn main() {
    let users: usize = arg("--users").and_then(|s| s.parse().ok()).unwrap_or(300);
    let workers: usize = arg("--workers").and_then(|s| s.parse().ok()).unwrap_or(4);
    let out = arg("--out").unwrap_or_else(|| "BENCH_crawl.json".into());
    let seed: u64 = arg("--seed").and_then(|s| s.parse().ok()).unwrap_or(2016);
    let trace = std::env::args().any(|a| a == "--trace");

    let mut cfg = SynthConfig::small(seed);
    cfg.n_users = users;
    cfg.n_products = (users / 3).max(50);
    cfg.n_groups = (users / 12).max(10);
    eprintln!("# generating {users} users (seed {seed})...");
    let original = Arc::new(Generator::new(cfg).generate());

    // The server needs a worker per concurrent client connection (each
    // worker owns its connection until close), plus one for the crawler's
    // main fetcher.
    let server_workers = workers + 1;

    // Baseline: cache off, no pool — the pre-fast-path serve→crawl loop.
    let baseline_service =
        ApiService::new(Arc::clone(&original), RateLimit::default()).without_cache();
    let (baseline_server, _svc) =
        serve_service(baseline_service, "127.0.0.1:0", server_workers).expect("bind");
    let (baseline_snap, baseline) =
        crawl_once("baseline", baseline_server.addr(), workers, false, true, &original);
    drop(baseline_server);

    // Cold + warm share one cached server: the warm crawl hits what the
    // cold one populated.
    let cached_service = ApiService::new(Arc::clone(&original), RateLimit::default());
    let (cached_server, service) =
        serve_service(cached_service, "127.0.0.1:0", server_workers).expect("bind");
    let (cold_snap, cold) =
        crawl_once("cold", cached_server.addr(), workers, true, true, &original);
    let (warm_snap, warm) =
        crawl_once("warm", cached_server.addr(), workers, true, true, &original);
    let cache = service.cache().expect("cached service");
    let (cache_hits, cache_misses) = (cache.hits(), cache.misses());
    drop(cached_server);

    // The fast path must not change a single crawled byte.
    let baseline_bytes = codec::encode_snapshot_v3(&baseline_snap, 1);
    assert_eq!(
        baseline_bytes,
        codec::encode_snapshot_v3(&cold_snap, 1),
        "cold cached crawl diverged from baseline"
    );
    assert_eq!(
        baseline_bytes,
        codec::encode_snapshot_v3(&warm_snap, 1),
        "warm cached crawl diverged from baseline"
    );
    eprintln!("# snapshots byte-identical across baseline/cold/warm");

    // Tracing overhead: untraced vs traced crawl of the same uncached
    // server, so the only variable is span minting + recording.
    let mut trace_overhead = None;
    if trace {
        let service =
            ApiService::new(Arc::clone(&original), RateLimit::default()).without_cache();
        let (server, _svc) =
            serve_service(service, "127.0.0.1:0", server_workers).expect("bind");
        let (off_snap, off) =
            crawl_once("untraced", server.addr(), workers, false, false, &original);
        let (on_snap, on) =
            crawl_once("traced", server.addr(), workers, false, true, &original);
        assert_eq!(
            codec::encode_snapshot_v3(&off_snap, 1),
            codec::encode_snapshot_v3(&on_snap, 1),
            "tracing changed the crawled bytes"
        );
        let overhead_pct =
            (1.0 - on.requests_per_sec / off.requests_per_sec.max(1e-9)) * 100.0;
        eprintln!(
            "# tracing overhead: {:.0} -> {:.0} req/s ({overhead_pct:+.2}%)",
            off.requests_per_sec, on.requests_per_sec
        );
        trace_overhead = Some(Json::obj([
            ("requests_per_sec_untraced", Json::Num(off.requests_per_sec)),
            ("requests_per_sec_traced", Json::Num(on.requests_per_sec)),
            ("p99_ms_untraced", Json::Num(off.p99_ms)),
            ("p99_ms_traced", Json::Num(on.p99_ms)),
            ("overhead_pct", Json::Num(overhead_pct)),
            ("snapshots_identical", Json::Bool(true)),
        ]));
    }

    let mut report_fields = vec![
        ("bench", Json::Str("crawl".into())),
        ("users", Json::Num(users as f64)),
        ("workers", Json::Num(workers as f64)),
        ("seed", Json::Num(seed as f64)),
        (
            "runs",
            Json::Arr(vec![baseline.to_json(), cold.to_json(), warm.to_json()]),
        ),
        (
            "cache",
            Json::obj([
                ("hits", Json::Num(cache_hits as f64)),
                ("misses", Json::Num(cache_misses as f64)),
            ]),
        ),
        (
            "speedup_warm_vs_baseline",
            Json::Num(warm.requests_per_sec / baseline.requests_per_sec.max(1e-9)),
        ),
        ("snapshots_identical", Json::Bool(true)),
    ];
    if let Some(overhead) = trace_overhead {
        report_fields.push(("trace_overhead", overhead));
    }
    let report = Json::obj(report_fields);
    let text = report.to_text();
    std::fs::write(&out, &text).expect("write BENCH_crawl.json");
    println!("{text}");
    eprintln!("# wrote {out}");
}
