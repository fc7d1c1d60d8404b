//! # steam-api
//!
//! Emulation of the Steam Web API surface the paper crawled (§3.1), plus
//! the crawler that reconstructs a [`steam_model::Snapshot`] from it.
//!
//! * [`wire`] — the JSON shapes of each endpoint, with parsers;
//! * `endpoint` — the one route table: path matching, request
//!   validation, request targets and the metric label, shared by the
//!   service, the router and the crawler;
//! * [`service`] — the HTTP service over a store (a whole snapshot or one
//!   shard), with per-key token-bucket rate limiting and the batch-100
//!   profile endpoint;
//! * [`crawler`] — the three-phase collection pipeline (ID-space census →
//!   per-user harvest → catalog), self-throttled to a configurable rate and
//!   retrying transient failures with exponential backoff;
//! * [`shard`] — per-shard snapshot stores (`shard-split`), served by the
//!   same service;
//! * [`router`] — the scatter-gather front door over a shard fleet.
//!
//! The integration tests (and the `crawl_api` example) demonstrate the key
//! property: crawling the served snapshot reproduces it record-for-record —
//! whether served by one process or by a routed shard fleet.

pub mod cache;
pub mod checkpoint;
pub mod crawler;
mod endpoint;
pub mod router;
pub mod service;
pub mod shard;
pub mod wire;

pub use cache::{CacheKey, WireCache};
pub use checkpoint::{CheckpointStore, Record, Replay, UserRecord};
pub use crawler::{
    crawl_sharded, crawl_sharded_observed, CrawlProgress, CrawlStats, Crawler, CrawlerConfig,
};
pub use router::{serve_router_config, RouterConfig, RouterService};
pub use service::{
    serve, serve_service, serve_service_config, serve_service_faulty, ApiService,
    RateLimit, Service, SnapshotStore, Store,
};
pub use shard::{
    decode_shard, encode_shard, read_shard, serve_shard_config, shard_of, shard_of_app,
    shard_of_group, split_snapshot, write_shard, ShardService, ShardStore, StreamSplitter,
};
