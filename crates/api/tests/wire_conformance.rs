//! The served surface as real clients see it, at every front door.
//!
//! * A corpus of request shapes real Steam Web API clients send — Steam's
//!   zero-padded version spelling, a trailing slash, extra parameters such
//!   as `format=json` — answers with the canonical request's exact status
//!   and body on a direct server, a one-shard router and a two-shard
//!   router. A version that is not the endpoint's own stays a 404.
//! * Request metrics stay bounded however many distinct unknown paths and
//!   methods clients send: they are labeled from the route table, not from
//!   the raw request line.

use std::net::SocketAddr;
use std::sync::Arc;

use steam_api::{
    serve_router_config, serve_service_config, serve_shard_config, split_snapshot, ApiService,
    RateLimit, RouterConfig, RouterService, ShardService,
};
use steam_model::Snapshot;
use steam_net::http::Request;
use steam_net::{Handler, HttpClient, HttpServer, ServerConfig};
use steam_obs::Registry;
use steam_synth::{Generator, SynthConfig};

const KEY: &str = "0123456789ABCDEF0123456789ABCDEF";

fn tiny_snapshot() -> Arc<Snapshot> {
    let mut cfg = SynthConfig::small(11);
    cfg.n_users = 150;
    cfg.n_products = 60;
    cfg.n_groups = 12;
    Arc::new(Generator::new(cfg).generate())
}

fn config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        ..Default::default()
    }
}

/// A front door under test, with the servers that keep it up and its
/// metrics registry.
struct Door {
    name: String,
    addr: SocketAddr,
    registry: Arc<Registry>,
    _servers: Vec<HttpServer>,
}

fn direct(snap: &Arc<Snapshot>) -> Door {
    let registry = Arc::new(Registry::new());
    let (server, _) = serve_service_config(
        ApiService::new(Arc::clone(snap), RateLimit::default()),
        "127.0.0.1:0",
        config(),
        Some(Arc::clone(&registry)),
        None,
    )
    .unwrap();
    Door {
        name: "direct".into(),
        addr: server.addr(),
        registry,
        _servers: vec![server],
    }
}

fn routed(snap: &Snapshot, shards: usize) -> Door {
    let mut servers = Vec::new();
    for store in split_snapshot(snap, shards) {
        let service = ShardService::new(store, RateLimit::default());
        servers.push(
            serve_shard_config(service, "127.0.0.1:0", config(), None, None)
                .unwrap()
                .0,
        );
    }
    let registry = Arc::new(Registry::new());
    let addrs = servers.iter().map(HttpServer::addr).collect();
    let (router, _) = serve_router_config(
        RouterService::new(addrs, RouterConfig::default()),
        "127.0.0.1:0",
        config(),
        Some(Arc::clone(&registry)),
    )
    .unwrap();
    let addr = router.addr();
    servers.push(router);
    Door {
        name: format!("{shards}-shard router"),
        addr,
        registry,
        _servers: servers,
    }
}

#[test]
fn real_client_request_shapes_are_served_at_every_front_door() {
    let snap = tiny_snapshot();
    let reference = ApiService::new(Arc::clone(&snap), RateLimit::default());
    let (a, b) = (snap.accounts[0].id, snap.accounts[1].id);
    let app = snap.catalog[0].app_id.0;
    let gid = snap.groups[0].id.0;
    // (what a real client sends, the canonical request it means); `None`
    // means the shape must stay a 404 `unknown endpoint`.
    let corpus: Vec<(String, Option<String>)> = vec![
        (
            format!("/IPlayerService/GetOwnedGames/v0001/?key={KEY}&steamid={a}&format=json&include_appinfo=true"),
            Some(format!("/IPlayerService/GetOwnedGames/v1?steamid={a}")),
        ),
        (
            format!("/IPlayerService/GetOwnedGames/v0001?key={KEY}&steamid={b}&format=json"),
            Some(format!("/IPlayerService/GetOwnedGames/v1?steamid={b}")),
        ),
        (
            format!("/ISteamUser/GetPlayerSummaries/v0002/?key={KEY}&steamids={a},{b}&format=json"),
            Some(format!("/ISteamUser/GetPlayerSummaries/v2?steamids={a},{b}")),
        ),
        (
            format!("/ISteamUser/GetFriendList/v0001/?key={KEY}&steamid={a}&relationship=friend&format=json"),
            Some(format!("/ISteamUser/GetFriendList/v1?steamid={a}")),
        ),
        (
            format!("/ISteamUser/GetFriendList/v1/?key={KEY}&steamid={b}"),
            Some(format!("/ISteamUser/GetFriendList/v1?steamid={b}")),
        ),
        (
            format!("/ISteamUser/GetUserGroupList/v0001/?key={KEY}&steamid={a}&format=json"),
            Some(format!("/ISteamUser/GetUserGroupList/v1?steamid={a}")),
        ),
        (
            format!("/ISteamApps/GetAppList/v0002/?key={KEY}&format=json"),
            Some("/ISteamApps/GetAppList/v2".into()),
        ),
        (
            format!("/ISteamUserStats/GetGlobalAchievementPercentagesForApp/v0002/?gameid={app}&format=json"),
            Some(format!("/ISteamUserStats/GetGlobalAchievementPercentagesForApp/v2?gameid={app}")),
        ),
        (format!("/api/appdetails/?appids={app}&cc=us"), Some(format!("/api/appdetails?appids={app}"))),
        (format!("/community/group/{gid}/"), Some(format!("/community/group/{gid}"))),
        // A version that is not the endpoint's own names nothing.
        (format!("/ISteamUser/GetFriendList/v0002/?key={KEY}&steamid={a}"), None),
        (format!("/IPlayerService/GetOwnedGames/v2?steamid={a}"), None),
        (format!("/ISteamUser/GetFriendList/v1//?steamid={a}"), None),
    ];
    for door in [direct(&snap), routed(&snap, 1), routed(&snap, 2)] {
        let mut client = HttpClient::new(door.addr);
        for (sent, meant) in &corpus {
            let got = client.send(&Request::get(sent)).unwrap();
            match meant {
                Some(meant) => {
                    let want = reference.handle(Request::get(meant));
                    assert_eq!(want.status, 200, "{meant}");
                    assert_eq!(got.status, want.status, "{}: {sent}", door.name);
                    assert_eq!(got.body, want.body, "{}: {sent}", door.name);
                }
                None => {
                    assert_eq!(got.status, 404, "{}: {sent}", door.name);
                    assert_eq!(got.body_text(), "unknown endpoint", "{}: {sent}", door.name);
                }
            }
        }
        // A `v0001/` request is counted in the same series as `v1`.
        let text = door.registry.render_prometheus();
        let owned = r#"http_requests_total{endpoint="/IPlayerService/GetOwnedGames/v1",method="GET",status="200"} 2"#;
        assert!(text.contains(owned), "{}:\n{text}", door.name);
    }
}

#[test]
fn unknown_paths_and_methods_leave_a_bounded_number_of_series() {
    let snap = tiny_snapshot();
    for door in [direct(&snap), routed(&snap, 2)] {
        let mut client = HttpClient::new(door.addr);
        for i in 0..1000 {
            let mut req = Request::get(&format!("/probe{i}/x{i}?key=k"));
            if i % 2 == 1 {
                req.method = format!("M{i}");
            }
            let resp = client.send(&req).unwrap();
            assert!(
                resp.status == 404 || resp.status == 400,
                "{}: {}",
                door.name,
                resp.status
            );
        }
        // A known endpoint keeps its own series.
        assert_eq!(client.get("/ISteamApps/GetAppList/v2").unwrap().status, 200);
        let text = door.registry.render_prometheus();
        let series: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("http_requests_total{"))
            .collect();
        assert!(
            series.len() <= 3,
            "{}: {} series\n{}",
            door.name,
            series.len(),
            series.join("\n")
        );
        for line in [
            r#"http_requests_total{endpoint="unmatched",method="GET",status="404"} 500"#,
            r#"http_requests_total{endpoint="unmatched",method="other",status="400"} 500"#,
            r#"http_requests_total{endpoint="/ISteamApps/GetAppList/v2",method="GET",status="200"} 1"#,
        ] {
            assert!(
                series.contains(&line),
                "{}: missing {line}\n{}",
                door.name,
                series.join("\n")
            );
        }
        let histograms = text
            .lines()
            .filter(|l| l.starts_with("http_request_duration_seconds_count{"))
            .count();
        assert!(
            histograms <= 2,
            "{}: {histograms} latency histograms",
            door.name
        );
    }
}
