//! The one route table of the served surface, and its request parser.
//!
//! [`Route::of`] matches a request path to a [`Route`]; [`Route::parse`]
//! then validates the query (or the group id in the path) into a typed
//! [`Endpoint`]. The service answers from it, the router picks a shard
//! from it, the crawler builds its requests with [`Endpoint::target`], and
//! the service and router both label their metrics with [`label`], so none
//! of them can disagree about which requests name which endpoint.
//!
//! Real clients spell versions zero-padded and often end the path with a
//! slash (`/IPlayerService/GetOwnedGames/v0001/`); both spellings match the
//! canonical `…/v1`. A version that is not the endpoint's own
//! (`GetFriendList/v0002`) matches nothing.

use steam_model::{AppId, GroupId, SteamId};
use steam_net::http::{Request, Response};

/// Maximum Steam IDs accepted by the batch profile endpoint.
pub const MAX_BATCH_IDS: usize = 100;

/// The metric label of every path that names no endpoint: one fixed value,
/// so unknown paths cannot grow the label set.
pub const UNMATCHED: &str = "unmatched";

const GROUP_PREFIX: &str = "/community/group/";

/// An endpoint of the served surface, as named by the request path alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    Summaries,
    FriendList,
    OwnedGames,
    GroupList,
    AppList,
    AppDetails,
    Achievements,
    Panel,
    GroupPage,
    DebugCache,
    DebugLimiter,
}

/// A request validated against its route: the endpoint and its parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// The batch ids, de-duplicated in first-occurrence order.
    Summaries(Vec<SteamId>),
    FriendList(SteamId),
    OwnedGames(SteamId),
    GroupList(SteamId),
    AppList,
    AppDetails(AppId),
    Achievements(AppId),
    Panel(SteamId),
    GroupPage(GroupId),
    DebugCache,
    DebugLimiter,
}

/// The route table, in [`Route`] declaration order: each route's canonical
/// path, which is also its metric label. The group page's names its id
/// segment `:id`.
const ROUTES: [(Route, &str); 11] = [
    (Route::Summaries, "/ISteamUser/GetPlayerSummaries/v2"),
    (Route::FriendList, "/ISteamUser/GetFriendList/v1"),
    (Route::OwnedGames, "/IPlayerService/GetOwnedGames/v1"),
    (Route::GroupList, "/ISteamUser/GetUserGroupList/v1"),
    (Route::AppList, "/ISteamApps/GetAppList/v2"),
    (Route::AppDetails, "/api/appdetails"),
    (Route::Achievements, "/ISteamUserStats/GetGlobalAchievementPercentagesForApp/v2"),
    (Route::Panel, "/reproduction/panel"),
    (Route::GroupPage, "/community/group/:id"),
    (Route::DebugCache, "/debug/cache"),
    (Route::DebugLimiter, "/debug/limiter"),
];

impl Route {
    /// The canonical path.
    pub fn path(self) -> &'static str {
        ROUTES[self as usize].1
    }

    /// The route a path names, if any. Any path under `/community/group/`
    /// is a group page (a malformed id is a 400, not a 404).
    pub fn of(path: &str) -> Option<Route> {
        if path.starts_with(GROUP_PREFIX) {
            return Some(Route::GroupPage);
        }
        let path = path.strip_suffix('/').filter(|p| !p.is_empty()).unwrap_or(path);
        let exact = ROUTES.iter().find(|(_, c)| *c == path);
        exact
            .or_else(|| {
                // Steam's zero-padded version spelling: `…/v0001` names `…/v1`.
                let (stem, padded) = path.rsplit_once("/v").filter(|(_, v)| v.len() == 4)?;
                let version = padded.trim_start_matches('0');
                let version_of = |c: &'static str| c.strip_prefix(stem)?.strip_prefix("/v");
                ROUTES.iter().find(|(_, c)| version_of(c) == Some(version))
            })
            .map(|&(r, _)| r)
    }

    /// Validates the request's parameters for this route. The error is the
    /// 400 the client gets.
    pub fn parse(self, req: &Request) -> Result<Endpoint, Response> {
        let steamid = || match req.query_param("steamid") {
            None => Err(Response::error(400, "missing steamid")),
            Some(raw) => raw.parse().map_err(|_| Response::error(400, "malformed steamid")),
        };
        let app = |name: &str| {
            req.query_param(name)
                .and_then(|s| s.parse::<u32>().ok())
                .map(AppId)
                .ok_or_else(|| Response::error(400, &format!("missing or malformed {name}")))
        };
        Ok(match self {
            Route::Summaries => Endpoint::Summaries(batch(req.query_param("steamids"))?),
            Route::FriendList => Endpoint::FriendList(steamid()?),
            Route::OwnedGames => Endpoint::OwnedGames(steamid()?),
            Route::GroupList => Endpoint::GroupList(steamid()?),
            Route::AppList => Endpoint::AppList,
            Route::AppDetails => Endpoint::AppDetails(app("appids")?),
            Route::Achievements => Endpoint::Achievements(app("gameid")?),
            Route::Panel => Endpoint::Panel(steamid()?),
            Route::GroupPage => {
                let gid = req.path.strip_prefix(GROUP_PREFIX).unwrap_or_default();
                let gid = gid.strip_suffix('/').unwrap_or(gid);
                Endpoint::GroupPage(GroupId(
                    gid.parse().map_err(|_| Response::error(400, "malformed gid"))?,
                ))
            }
            Route::DebugCache => Endpoint::DebugCache,
            Route::DebugLimiter => Endpoint::DebugLimiter,
        })
    }
}

impl Endpoint {
    /// Matches and validates a request; `None` if its path names no
    /// endpoint or its parameters are invalid.
    pub fn parse(req: &Request) -> Option<Endpoint> {
        Route::of(&req.path)?.parse(req).ok()
    }

    /// The canonical request target a client sends for this endpoint, with
    /// `key=` first in the query when given.
    pub fn target(&self, key: Option<&str>) -> String {
        let param = |name, value: &dyn ToString| Some((name, value.to_string()));
        let (route, param) = match self {
            Endpoint::Summaries(ids) => {
                let ids: Vec<String> = ids.iter().map(SteamId::to_string).collect();
                (Route::Summaries, param("steamids", &ids.join(",")))
            }
            Endpoint::FriendList(id) => (Route::FriendList, param("steamid", id)),
            Endpoint::OwnedGames(id) => (Route::OwnedGames, param("steamid", id)),
            Endpoint::GroupList(id) => (Route::GroupList, param("steamid", id)),
            Endpoint::Panel(id) => (Route::Panel, param("steamid", id)),
            Endpoint::AppDetails(app) => (Route::AppDetails, param("appids", &app.0)),
            Endpoint::Achievements(app) => (Route::Achievements, param("gameid", &app.0)),
            Endpoint::AppList => (Route::AppList, None),
            Endpoint::GroupPage(_) => (Route::GroupPage, None),
            Endpoint::DebugCache => (Route::DebugCache, None),
            Endpoint::DebugLimiter => (Route::DebugLimiter, None),
        };
        let mut target = match self {
            Endpoint::GroupPage(gid) => format!("{GROUP_PREFIX}{}", gid.0),
            _ => route.path().to_string(),
        };
        let params = key.map(|key| ("key", key.to_string())).into_iter().chain(param);
        for (i, (name, value)) in params.enumerate() {
            target.push(if i == 0 { '?' } else { '&' });
            target.push_str(name);
            target.push('=');
            target.push_str(&value);
        }
        target
    }
}

/// The `endpoint` metric label of a request path: the canonical path of
/// the route it names, or [`UNMATCHED`].
pub fn label(path: &str) -> &'static str {
    Route::of(path).map_or(UNMATCHED, Route::path)
}

/// Parses the batch `steamids` parameter: at most [`MAX_BATCH_IDS`]
/// non-empty segments, de-duplicated in first-occurrence order. The order
/// is what both the service and the router's merge serve in.
fn batch(raw: Option<&str>) -> Result<Vec<SteamId>, Response> {
    let raw = raw.ok_or_else(|| Response::error(400, "missing steamids"))?;
    let segments: Vec<&str> = raw.split(',').filter(|s| !s.is_empty()).collect();
    if segments.len() > MAX_BATCH_IDS {
        return Err(Response::error(400, "too many steamids (max 100)"));
    }
    let mut ids: Vec<SteamId> = Vec::with_capacity(segments.len());
    for s in segments {
        let id: SteamId = s.parse().map_err(|_| Response::error(400, "malformed steamid"))?;
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_canonical_path_routes_to_itself() {
        for (i, (route, _)) in ROUTES.into_iter().enumerate() {
            assert_eq!(route as usize, i, "ROUTES is in declaration order");
            assert_eq!(Route::of(route.path()), Some(route), "{}", route.path());
            assert_eq!(label(route.path()), route.path());
        }
    }

    #[test]
    fn steam_version_spellings_and_one_trailing_slash_match() {
        let owned = Some(Route::OwnedGames);
        assert_eq!(Route::of("/IPlayerService/GetOwnedGames/v0001/"), owned);
        assert_eq!(Route::of("/IPlayerService/GetOwnedGames/v0001"), owned);
        assert_eq!(Route::of("/IPlayerService/GetOwnedGames/v1/"), owned);
        assert_eq!(Route::of("/ISteamApps/GetAppList/v0002/"), Some(Route::AppList));
        assert_eq!(Route::of("/api/appdetails/"), Some(Route::AppDetails));
        assert_eq!(label("/ISteamUser/GetFriendList/v0001/"), "/ISteamUser/GetFriendList/v1");
        for unknown in [
            "/ISteamUser/GetFriendList/v0002",
            "/ISteamUser/GetFriendList/v2",
            "/ISteamUser/GetFriendList/v01",
            "/ISteamUser/GetFriendList/v00001",
            "/ISteamUser/GetFriendList/v1//",
            "/ISteamUser/GetFriendList",
            "/",
            "",
        ] {
            assert_eq!(Route::of(unknown), None, "{unknown}");
            assert_eq!(label(unknown), UNMATCHED);
        }
    }

    #[test]
    fn group_pages_route_by_prefix_and_parse_the_id() {
        let page = |target: &str| Route::GroupPage.parse(&Request::get(target));
        assert_eq!(page("/community/group/42").ok(), Some(Endpoint::GroupPage(GroupId(42))));
        assert_eq!(page("/community/group/42/").ok(), Some(Endpoint::GroupPage(GroupId(42))));
        assert_eq!(page("/community/group/x").unwrap_err().status, 400);
        assert_eq!(page("/community/group/").unwrap_err().status, 400);
        assert_eq!(label("/community/group/anything"), "/community/group/:id");
    }

    #[test]
    fn targets_parse_back_to_their_endpoint() {
        let id = SteamId::from_index(7);
        for endpoint in [
            Endpoint::Summaries(vec![id, SteamId::from_index(2)]),
            Endpoint::FriendList(id),
            Endpoint::OwnedGames(id),
            Endpoint::GroupList(id),
            Endpoint::AppList,
            Endpoint::AppDetails(AppId(440)),
            Endpoint::Achievements(AppId(570)),
            Endpoint::Panel(id),
            Endpoint::GroupPage(GroupId(9)),
            Endpoint::DebugCache,
            Endpoint::DebugLimiter,
        ] {
            for key in [None, Some("k")] {
                let req = Request::get(&endpoint.target(key));
                assert_eq!(Endpoint::parse(&req), Some(endpoint.clone()), "{}", req.path);
                assert_eq!(req.query_param("key"), key);
            }
        }
        assert_eq!(
            Endpoint::FriendList(id).target(Some("k")),
            format!("/ISteamUser/GetFriendList/v1?key=k&steamid={id}")
        );
    }

    #[test]
    fn batches_dedupe_in_first_occurrence_order() {
        let a = SteamId::from_index(3);
        let b = SteamId::from_index(1);
        let got = batch(Some(&format!("{a},,{b},{a},"))).unwrap();
        assert_eq!(got, vec![a, b]);
        assert_eq!(batch(Some("")).unwrap(), vec![]);
        assert_eq!(batch(None).unwrap_err().body_text(), "missing steamids");
        let many: Vec<String> = (0..101).map(|i| SteamId::from_index(i).to_string()).collect();
        assert_eq!(batch(Some(&many.join(","))).unwrap_err().status, 400);
        assert_eq!(batch(Some("1,banana")).unwrap_err().status, 400);
    }
}
