//! Sharded snapshot stores, served by the same [`Service`] as a whole
//! snapshot.
//!
//! A [`Snapshot`] cannot be cut into N servable pieces directly: its
//! friendship edges are *account-index* pairs, and an edge endpoint usually
//! lives on another shard. `shard-split` therefore resolves every
//! cross-account reference while the whole snapshot is still in one piece —
//! each account's friend list becomes `(SteamId, since)` pairs in exactly
//! the order [`ApiService`](crate::service::ApiService) would serve them —
//! and writes one self-contained [`ShardStore`] per shard.
//!
//! A shard is served by [`ShardService`], which is [`Service`] over a
//! [`ShardStore`]: the handlers, rate limiter and wire cache are the
//! unsharded service's own. Because the store answers every list in serve
//! order (the [`Store`] contract), a shard's response for an entity it owns
//! is byte-identical to the unsharded one.
//!
//! Assignment is residue-class by SteamID: account `id` lives on shard
//! `id.index() % n`, groups on `gid % n`, apps on `app_id % n` (the catalog
//! is small and replicated to every shard, so any shard *can* answer any
//! app; the router spreads the load by residue). Residue classes — rather
//! than contiguous index ranges — keep every shard's census workable: a
//! range split would give every shard but the first an enormous prefix of
//! ids it does not own, tripping the crawler's consecutive-empty-batch stop
//! rule long before the shard's own accounts begin.
//!
//! The on-disk format is magic + version + header, then per-section
//! checksummed blocks (the idiom of the retired v2 snapshot container, kept
//! here because shard files are small and always read whole), so a torn or
//! bit-rotten shard file fails loudly at load time instead of serving
//! silently wrong bytes.

use std::borrow::Cow;
use std::collections::HashMap;
use std::path::Path;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use steam_model::codec::{
    checksum32, get_account, get_game, get_group, get_vari64, get_varu64, put_account, put_game,
    put_group, put_vari64, put_varu64, write_atomic,
};
use steam_model::{
    Account, AppId, Game, Group, GroupId, ModelError, OwnedGame, SimTime, Snapshot, SteamId,
};

use crate::service::{adjacency, RateLimit, Service, Store};

/// Binds a shard's server: [`serve_service_config`](crate::service::serve_service_config)
/// under the name shard fleets are set up with.
pub use crate::service::serve_service_config as serve_shard_config;

/// Magic prefix of a shard store file.
pub const SHARD_MAGIC: &[u8; 4] = b"CSHD";
/// Version byte following [`SHARD_MAGIC`].
pub const SHARD_VERSION: u8 = 1;

/// The shard that owns account `id` in an `n_shards`-way split.
pub fn shard_of(id: SteamId, n_shards: usize) -> usize {
    (id.index() % n_shards as u64) as usize
}

/// The shard that owns group `gid` in an `n_shards`-way split.
pub fn shard_of_group(gid: GroupId, n_shards: usize) -> usize {
    gid.0 as usize % n_shards
}

/// The shard that answers for app `app_id`. Every shard holds the full
/// catalog; this just spreads catalog traffic across the fleet.
pub fn shard_of_app(app_id: AppId, n_shards: usize) -> usize {
    app_id.0 as usize % n_shards
}

/// One shard's self-contained slice of a snapshot: the accounts it owns
/// with every cross-account reference pre-resolved, the groups it owns, and
/// a replicated catalog.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardStore {
    pub shard_index: u32,
    pub shard_count: u32,
    pub collected_at: SimTime,
    pub scanned_id_space: u64,
    /// Accounts owned by this shard, sorted by id.
    pub accounts: Vec<Account>,
    /// Per owned account: friend `(id, since)` pairs, in the order the
    /// unsharded service serves them (ascending global account index).
    pub friends: Vec<Vec<(SteamId, SimTime)>>,
    /// Per owned account: owned games, snapshot order.
    pub games: Vec<Vec<OwnedGame>>,
    /// Per owned account: member group ids, in the order the unsharded
    /// service serves them (ascending global group index).
    pub member_gids: Vec<Vec<GroupId>>,
    /// Groups owned by this shard (`gid % n == shard_index`).
    pub groups: Vec<Group>,
    /// Full catalog, replicated to every shard.
    pub catalog: Vec<Game>,
}

/// Cuts a snapshot into `n_shards` self-contained stores. Every account,
/// group, and catalog byte the unsharded service would emit is reachable
/// from exactly the shard the router would ask.
pub fn split_snapshot(snap: &Snapshot, n_shards: usize) -> Vec<ShardStore> {
    assert!(n_shards >= 1, "need at least one shard");
    let adjacency = adjacency(snap);
    let mut shards: Vec<ShardStore> = (0..n_shards)
        .map(|i| ShardStore {
            shard_index: i as u32,
            shard_count: n_shards as u32,
            collected_at: snap.collected_at,
            scanned_id_space: snap.scanned_id_space,
            accounts: Vec::new(),
            friends: Vec::new(),
            games: Vec::new(),
            member_gids: Vec::new(),
            groups: Vec::new(),
            catalog: snap.catalog.clone(),
        })
        .collect();
    for (u, acct) in snap.accounts.iter().enumerate() {
        let shard = &mut shards[shard_of(acct.id, n_shards)];
        shard.accounts.push(acct.clone());
        shard.friends.push(
            adjacency[u]
                .iter()
                .map(|&(v, since)| (snap.accounts[v as usize].id, since))
                .collect(),
        );
        shard.games.push(snap.ownerships[u].clone());
        shard.member_gids.push(
            snap.memberships[u].iter().map(|&g| snap.groups[g as usize].id).collect(),
        );
    }
    for g in &snap.groups {
        shards[shard_of_group(g.id, n_shards)].groups.push(g.clone());
    }
    shards
}

/// Streaming shard-split over a chunked (v3) snapshot file: builds one
/// [`ShardStore`] at a time from a [`SnapshotReader`] without ever decoding
/// the full snapshot. Resident state between shards is only the SteamId
/// column (8 bytes/user) plus the small replicated sections (groups,
/// catalog); each `shard()` call streams the account, friendship, library
/// and membership chunks once and keeps just the records the shard owns.
///
/// Every store is byte-identical (through [`encode_shard`]) to the
/// corresponding element of [`split_snapshot`]: accounts are visited in
/// global index order, adjacency is accumulated in edge order and stably
/// sorted by the friend's global index — the same order the in-memory split
/// produces.
pub struct StreamSplitter<'a> {
    reader: &'a steam_model::SnapshotReader,
    n_shards: usize,
    /// SteamId per global account index (friend lists reference these).
    ids: Vec<SteamId>,
    groups: Vec<Group>,
    catalog: Vec<Game>,
}

impl<'a> StreamSplitter<'a> {
    pub fn new(
        reader: &'a steam_model::SnapshotReader,
        n_shards: usize,
    ) -> Result<Self, ModelError> {
        assert!(n_shards >= 1, "need at least one shard");
        let mut ids = Vec::with_capacity(reader.n_users());
        for k in 0..reader.n_account_chunks() {
            for a in reader.account_chunk(k)? {
                ids.push(a.id);
            }
        }
        Ok(StreamSplitter {
            reader,
            n_shards,
            ids,
            groups: reader.groups()?,
            catalog: reader.catalog()?,
        })
    }

    /// Builds shard `index` with four chunk passes (accounts, friendships,
    /// libraries, memberships).
    pub fn shard(&self, index: usize) -> Result<ShardStore, ModelError> {
        assert!(index < self.n_shards);
        let r = self.reader;
        let mut accounts = Vec::new();
        // Slot of each owned account, keyed by global index.
        let mut slot_of: HashMap<u32, u32> = HashMap::new();
        for k in 0..r.n_account_chunks() {
            let base = r.account_chunk_start(k);
            for (i, a) in r.account_chunk(k)?.into_iter().enumerate() {
                if shard_of(a.id, self.n_shards) == index {
                    slot_of.insert((base + i) as u32, accounts.len() as u32);
                    accounts.push(a);
                }
            }
        }

        // Adjacency in service order: both edge directions in edge order,
        // then a stable sort by the friend's global index — exactly what
        // `split_snapshot` computes, restricted to owned endpoints.
        let mut adjacency: Vec<Vec<(u32, SimTime)>> = vec![Vec::new(); accounts.len()];
        for k in 0..r.n_friendship_chunks() {
            for e in r.friendship_chunk(k)? {
                if let Some(&s) = slot_of.get(&e.a) {
                    adjacency[s as usize].push((e.b, e.created_at));
                }
                if let Some(&s) = slot_of.get(&e.b) {
                    adjacency[s as usize].push((e.a, e.created_at));
                }
            }
        }
        let friends: Vec<Vec<(SteamId, SimTime)>> = adjacency
            .into_iter()
            .map(|mut list| {
                list.sort_by_key(|(v, _)| *v);
                list.into_iter().map(|(v, since)| (self.ids[v as usize], since)).collect()
            })
            .collect();

        let mut games: Vec<Vec<OwnedGame>> = vec![Vec::new(); accounts.len()];
        for k in 0..r.n_library_chunks() {
            let base = r.library_chunk_start(k);
            for (i, lib) in r.library_chunk(k)?.into_iter().enumerate() {
                if let Some(&s) = slot_of.get(&((base + i) as u32)) {
                    games[s as usize] = lib;
                }
            }
        }

        let mut member_gids: Vec<Vec<GroupId>> = vec![Vec::new(); accounts.len()];
        for k in 0..r.n_membership_chunks() {
            let base = r.membership_chunk_start(k);
            for (i, ms) in r.membership_chunk(k)?.into_iter().enumerate() {
                if let Some(&s) = slot_of.get(&((base + i) as u32)) {
                    member_gids[s as usize] =
                        ms.iter().map(|&g| self.groups[g as usize].id).collect();
                }
            }
        }

        Ok(ShardStore {
            shard_index: index as u32,
            shard_count: self.n_shards as u32,
            collected_at: r.collected_at(),
            scanned_id_space: r.scanned_id_space(),
            accounts,
            friends,
            games,
            member_gids,
            groups: self
                .groups
                .iter()
                .filter(|g| shard_of_group(g.id, self.n_shards) == index)
                .cloned()
                .collect(),
            catalog: self.catalog.clone(),
        })
    }
}

// --- codec ------------------------------------------------------------------

const SECTION_ACCOUNTS: u8 = 1;
const SECTION_GROUPS: u8 = 2;
const SECTION_CATALOG: u8 = 3;

fn put_section(buf: &mut BytesMut, id: u8, payload: &BytesMut) {
    buf.put_u8(id);
    put_varu64(buf, payload.len() as u64);
    buf.put_u32_le(checksum32(payload));
    buf.put_slice(payload);
}

fn get_section(buf: &mut Bytes, want: u8) -> Result<Bytes, ModelError> {
    if !buf.has_remaining() {
        return Err(ModelError::Codec(format!("missing shard section {want}")));
    }
    let id = buf.get_u8();
    if id != want {
        return Err(ModelError::Codec(format!("expected shard section {want}, found {id}")));
    }
    let len = get_varu64(buf)? as usize;
    if buf.remaining() < 4 + len {
        return Err(ModelError::Codec(format!("truncated shard section {want}")));
    }
    let want_sum = buf.get_u32_le();
    let payload = buf.split_to(len);
    if checksum32(&payload) != want_sum {
        return Err(ModelError::Codec(format!("shard section {want} checksum mismatch")));
    }
    Ok(payload)
}

/// Serializes a shard store.
pub fn encode_shard(s: &ShardStore) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + s.accounts.len() * 48 + s.catalog.len() * 64);
    buf.put_slice(SHARD_MAGIC);
    buf.put_u8(SHARD_VERSION);
    put_varu64(&mut buf, u64::from(s.shard_index));
    put_varu64(&mut buf, u64::from(s.shard_count));
    put_vari64(&mut buf, s.collected_at.unix());
    put_varu64(&mut buf, s.scanned_id_space);

    let mut accounts = BytesMut::new();
    put_varu64(&mut accounts, s.accounts.len() as u64);
    for (u, a) in s.accounts.iter().enumerate() {
        put_account(&mut accounts, a);
        put_varu64(&mut accounts, s.friends[u].len() as u64);
        for &(id, since) in &s.friends[u] {
            put_varu64(&mut accounts, id.index());
            put_vari64(&mut accounts, since.unix());
        }
        put_varu64(&mut accounts, s.games[u].len() as u64);
        for g in &s.games[u] {
            put_varu64(&mut accounts, u64::from(g.app_id.0));
            put_varu64(&mut accounts, u64::from(g.playtime_forever_min));
            put_varu64(&mut accounts, u64::from(g.playtime_2weeks_min));
        }
        put_varu64(&mut accounts, s.member_gids[u].len() as u64);
        for gid in &s.member_gids[u] {
            put_varu64(&mut accounts, u64::from(gid.0));
        }
    }
    put_section(&mut buf, SECTION_ACCOUNTS, &accounts);

    let mut groups = BytesMut::new();
    put_varu64(&mut groups, s.groups.len() as u64);
    for g in &s.groups {
        put_group(&mut groups, g);
    }
    put_section(&mut buf, SECTION_GROUPS, &groups);

    let mut catalog = BytesMut::new();
    put_varu64(&mut catalog, s.catalog.len() as u64);
    for g in &s.catalog {
        put_game(&mut catalog, g);
    }
    put_section(&mut buf, SECTION_CATALOG, &catalog);

    buf.freeze()
}

fn get_u32(buf: &mut Bytes, what: &str) -> Result<u32, ModelError> {
    u32::try_from(get_varu64(buf)?).map_err(|_| ModelError::Codec(format!("{what} overflow")))
}

/// Deserializes a shard store written by [`encode_shard`].
pub fn decode_shard(mut buf: Bytes) -> Result<ShardStore, ModelError> {
    if buf.remaining() < 5 || &buf.split_to(4)[..] != SHARD_MAGIC {
        return Err(ModelError::Codec("not a shard store (bad magic)".into()));
    }
    let version = buf.get_u8();
    if version != SHARD_VERSION {
        return Err(ModelError::Codec(format!("unsupported shard version {version}")));
    }
    let shard_index = get_u32(&mut buf, "shard index")?;
    let shard_count = get_u32(&mut buf, "shard count")?;
    if shard_count == 0 || shard_index >= shard_count {
        return Err(ModelError::Codec(format!(
            "invalid shard header {shard_index}/{shard_count}"
        )));
    }
    let collected_at = SimTime::from_unix(get_vari64(&mut buf)?);
    let scanned_id_space = get_varu64(&mut buf)?;

    let mut accounts_buf = get_section(&mut buf, SECTION_ACCOUNTS)?;
    let n = get_varu64(&mut accounts_buf)? as usize;
    let mut accounts = Vec::with_capacity(n);
    let mut friends = Vec::with_capacity(n);
    let mut games = Vec::with_capacity(n);
    let mut member_gids = Vec::with_capacity(n);
    for _ in 0..n {
        accounts.push(get_account(&mut accounts_buf)?);
        let nf = get_varu64(&mut accounts_buf)? as usize;
        let mut fl = Vec::with_capacity(nf);
        for _ in 0..nf {
            let id = SteamId::from_index(get_varu64(&mut accounts_buf)?);
            let since = SimTime::from_unix(get_vari64(&mut accounts_buf)?);
            fl.push((id, since));
        }
        friends.push(fl);
        let ng = get_varu64(&mut accounts_buf)? as usize;
        let mut gl = Vec::with_capacity(ng);
        for _ in 0..ng {
            gl.push(OwnedGame {
                app_id: AppId(get_u32(&mut accounts_buf, "app id")?),
                playtime_forever_min: get_u32(&mut accounts_buf, "playtime")?,
                playtime_2weeks_min: get_u32(&mut accounts_buf, "playtime")?,
            });
        }
        games.push(gl);
        let nm = get_varu64(&mut accounts_buf)? as usize;
        let mut ml = Vec::with_capacity(nm);
        for _ in 0..nm {
            ml.push(GroupId(get_u32(&mut accounts_buf, "group id")?));
        }
        member_gids.push(ml);
    }

    let mut groups_buf = get_section(&mut buf, SECTION_GROUPS)?;
    let n = get_varu64(&mut groups_buf)? as usize;
    let mut groups = Vec::with_capacity(n);
    for _ in 0..n {
        groups.push(get_group(&mut groups_buf)?);
    }

    let mut catalog_buf = get_section(&mut buf, SECTION_CATALOG)?;
    let n = get_varu64(&mut catalog_buf)? as usize;
    let mut catalog = Vec::with_capacity(n);
    for _ in 0..n {
        catalog.push(get_game(&mut catalog_buf)?);
    }

    Ok(ShardStore {
        shard_index,
        shard_count,
        collected_at,
        scanned_id_space,
        accounts,
        friends,
        games,
        member_gids,
        groups,
        catalog,
    })
}

/// Atomically writes a shard store to `path`.
pub fn write_shard(path: &Path, s: &ShardStore) -> Result<(), ModelError> {
    write_atomic(path, &encode_shard(s))
}

/// Reads a shard store from `path`.
pub fn read_shard(path: &Path) -> Result<ShardStore, ModelError> {
    decode_shard(Bytes::from(std::fs::read(path)?))
}

// --- shard-side service -----------------------------------------------------

impl Store for ShardStore {
    fn accounts(&self) -> &[Account] {
        &self.accounts
    }

    fn friends(&self, i: u32) -> Cow<'_, [(SteamId, SimTime)]> {
        Cow::Borrowed(&self.friends[i as usize])
    }

    fn games(&self, i: u32) -> &[OwnedGame] {
        &self.games[i as usize]
    }

    fn group_ids(&self, i: u32) -> Cow<'_, [GroupId]> {
        Cow::Borrowed(&self.member_gids[i as usize])
    }

    fn groups(&self) -> &[Group] {
        &self.groups
    }

    fn catalog(&self) -> &[Game] {
        &self.catalog
    }

    fn shard(&self) -> Option<u32> {
        Some(self.shard_index)
    }
}

/// The API service over one [`ShardStore`]: the same [`Service`] as the
/// unsharded [`ApiService`](crate::service::ApiService), so every response
/// for an entity this shard owns is byte-identical to the unsharded one.
pub type ShardService = Service<ShardStore>;

impl ShardService {
    pub fn new(store: ShardStore, limits: RateLimit) -> Self {
        Service::with_store(store, limits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::service::ApiService;
    use steam_net::http::Request;
    use steam_net::server::Handler;
    use steam_synth::{Generator, SynthConfig};

    fn tiny_snapshot() -> Arc<Snapshot> {
        let mut cfg = SynthConfig::small(77);
        cfg.n_users = 400;
        cfg.n_products = 120;
        cfg.n_groups = 30;
        Arc::new(Generator::new(cfg).generate())
    }

    #[test]
    fn split_covers_every_account_group_exactly_once() {
        let snap = tiny_snapshot();
        let shards = split_snapshot(&snap, 4);
        assert_eq!(shards.iter().map(|s| s.accounts.len()).sum::<usize>(), snap.n_users());
        assert_eq!(
            shards.iter().map(|s| s.groups.len()).sum::<usize>(),
            snap.groups.len()
        );
        for shard in &shards {
            for a in &shard.accounts {
                assert_eq!(shard_of(a.id, 4), shard.shard_index as usize);
            }
            assert!(shard.accounts.windows(2).all(|w| w[0].id < w[1].id), "sorted by id");
            assert_eq!(shard.catalog, snap.catalog, "catalog is replicated verbatim");
            assert_eq!(shard.scanned_id_space, snap.scanned_id_space);
        }
    }

    #[test]
    fn streamed_split_matches_in_memory_split_byte_for_byte() {
        let snap = tiny_snapshot();
        let dir = std::env::temp_dir().join(format!("shard-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("world.snap");
        steam_model::codec::write_snapshot_v3(&path, &snap, 2).unwrap();
        let reader = steam_model::SnapshotReader::open(&path).unwrap();
        for n in [1usize, 3] {
            let in_memory = split_snapshot(&snap, n);
            let splitter = StreamSplitter::new(&reader, n).unwrap();
            for (i, expected) in in_memory.iter().enumerate() {
                let streamed = splitter.shard(i).unwrap();
                assert_eq!(&streamed, expected, "shard {i}/{n}");
                assert_eq!(
                    encode_shard(&streamed),
                    encode_shard(expected),
                    "shard {i}/{n} encoded bytes"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_store_roundtrips_through_the_codec() {
        let snap = tiny_snapshot();
        for store in split_snapshot(&snap, 3) {
            let decoded = decode_shard(encode_shard(&store)).unwrap();
            assert_eq!(decoded, store);
        }
    }

    #[test]
    fn corrupt_shard_bytes_fail_loudly() {
        let snap = tiny_snapshot();
        let store = &split_snapshot(&snap, 2)[0];
        let bytes = encode_shard(store);
        // Flip one byte mid-payload: a section checksum must catch it.
        let mut corrupt = bytes.to_vec();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xff;
        assert!(decode_shard(Bytes::from(corrupt)).is_err());
        // Truncation fails too.
        let short = bytes.slice(0..bytes.len() - 3);
        assert!(decode_shard(short).is_err());
    }

    #[test]
    fn shard_service_serves_the_same_bytes_as_the_unsharded_service() {
        let snap = tiny_snapshot();
        let unsharded = ApiService::new(Arc::clone(&snap), RateLimit::default());
        let n = 4;
        let services: Vec<ShardService> = split_snapshot(&snap, n)
            .into_iter()
            .map(|s| ShardService::new(s, RateLimit::default()))
            .collect();
        let ask = |svc: &dyn Handler, target: &str| svc.handle(Request::get(target));
        for acct in snap.accounts.iter().take(40) {
            let shard = &services[shard_of(acct.id, n)];
            for target in [
                format!("/ISteamUser/GetPlayerSummaries/v2?steamids={}", acct.id),
                format!("/ISteamUser/GetFriendList/v1?steamid={}", acct.id),
                format!("/IPlayerService/GetOwnedGames/v1?steamid={}", acct.id),
                format!("/ISteamUser/GetUserGroupList/v1?steamid={}", acct.id),
            ] {
                let a = ask(&unsharded, &target);
                let b = ask(shard, &target);
                assert_eq!(a.status, b.status, "{target}");
                assert_eq!(a.body, b.body, "{target}");
            }
        }
        for g in snap.groups.iter().take(10) {
            let target = format!("/community/group/{}", g.id.0);
            let shard = &services[shard_of_group(g.id, n)];
            assert_eq!(ask(&unsharded, &target).body, ask(shard, &target).body, "{target}");
        }
        for game in snap.catalog.iter().take(10) {
            let shard = &services[shard_of_app(game.app_id, n)];
            for target in [
                format!("/api/appdetails?appids={}", game.app_id.0),
                format!(
                    "/ISteamUserStats/GetGlobalAchievementPercentagesForApp/v2?gameid={}",
                    game.app_id.0
                ),
            ] {
                assert_eq!(ask(&unsharded, &target).body, ask(shard, &target).body, "{target}");
            }
        }
        // Any shard serves the full app list, byte-identical.
        let target = "/ISteamApps/GetAppList/v2";
        for shard in &services {
            assert_eq!(ask(&unsharded, target).body, ask(shard, target).body);
        }

        // Error paths: every shard — the owner of the named entity, and
        // shard 0, where the router sends what it cannot parse — answers
        // with the unsharded status and body.
        let id = snap.accounts[0].id;
        let ghost = SteamId::from_index(987_654_321);
        let too_many: Vec<String> =
            (0..101).map(|i| SteamId::from_index(i).to_string()).collect();
        let missing_gid = snap.groups.iter().map(|g| g.id.0).max().unwrap() + 1;
        let mut post = Request::get(&format!("/ISteamUser/GetFriendList/v1?steamid={id}"));
        post.method = "POST".into();
        let mut errors: Vec<Request> = [
            "/ISteamUser/GetFriendList/v1".to_string(),
            "/ISteamUser/GetFriendList/v1?steamid=banana".to_string(),
            "/IPlayerService/GetOwnedGames/v1?steamid=".to_string(),
            "/ISteamUser/GetPlayerSummaries/v2".to_string(),
            "/ISteamUser/GetPlayerSummaries/v2?steamids=1,banana".to_string(),
            format!("/ISteamUser/GetPlayerSummaries/v2?steamids={}", too_many.join(",")),
            format!("/ISteamUser/GetUserGroupList/v1?steamid={ghost}"),
            "/api/appdetails".to_string(),
            "/api/appdetails?appids=99999999".to_string(),
            "/ISteamUserStats/GetGlobalAchievementPercentagesForApp/v2?gameid=99999999"
                .to_string(),
            format!("/community/group/{missing_gid}"),
            "/community/group/banana".to_string(),
            format!("/reproduction/panel?steamid={id}"),
            "/reproduction/panel?steamid=banana".to_string(),
            "/nope".to_string(),
            format!("/ISteamUser/GetFriendList/v0002/?steamid={id}"),
        ]
        .iter()
        .map(|t| Request::get(t))
        .collect();
        errors.push(post);
        for req in &errors {
            let want = unsharded.handle(req.clone());
            assert!(want.status >= 400, "{} {}: {}", req.method, req.path, want.status);
            for shard in &services {
                let got = shard.handle(req.clone());
                assert_eq!(got.status, want.status, "{} {}", req.method, req.path);
                assert_eq!(got.body, want.body, "{} {}", req.method, req.path);
            }
        }

        // A throttled key gets the same 429 and `Retry-After` from both.
        let tight = RateLimit { per_key_rps: 0.001, burst: 1.0 };
        let direct = ApiService::new(Arc::clone(&snap), tight);
        let shard = ShardService::new(split_snapshot(&snap, n).swap_remove(2), tight);
        let (direct_reg, shard_reg) = (steam_obs::Registry::new(), steam_obs::Registry::new());
        direct.attach_registry(&direct_reg);
        shard.attach_registry(&shard_reg);
        for svc in [&direct as &dyn Handler, &shard] {
            assert_eq!(ask(svc, target).status, 200);
        }
        let (a, b) = (ask(&direct, target), ask(&shard, target));
        assert_eq!((a.status, &a.body), (429, &b.body));
        assert_eq!(b.status, 429);
        assert!(a.header("retry-after").is_some());
        assert_eq!(a.header("retry-after"), b.header("retry-after"));

        // The limiter gauge is unlabeled on a direct server and carries
        // the shard index on a shard.
        let direct_text = direct_reg.render_prometheus();
        assert!(direct_text.contains("\napi_rate_limiter_keys 1\n"), "{direct_text}");
        assert!(!direct_text.contains("api_rate_limiter_keys{"), "{direct_text}");
        let shard_text = shard_reg.render_prometheus();
        assert!(shard_text.contains("\napi_rate_limiter_keys{shard=\"2\"} 1\n"), "{shard_text}");
    }
}
