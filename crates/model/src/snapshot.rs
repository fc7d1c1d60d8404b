//! The dataset container: one full crawl of the (emulated) Steam network.
//!
//! A [`Snapshot`] corresponds to what the paper calls a "snapshot": profile
//! data for every valid account in the ID space, the friendship edge list,
//! game ownership + playtime per account, group memberships, and the product
//! catalog. Accounts are referenced by dense `u32` indices everywhere (the
//! population may be millions of users; 64-bit Steam IDs live only on the
//! `Account` records).

use std::collections::HashMap;

use crate::account::Account;
use crate::error::ModelError;
use crate::game::{AppId, Game};
use crate::group::Group;
use crate::ownership::{OwnedGame, MAX_TWO_WEEK_MINUTES};
use crate::time::SimTime;

/// A reciprocal friendship between two accounts, by dense account index.
///
/// Invariant: `a < b` (each undirected edge is stored exactly once).
/// `created_at` carries the friendship timestamp Steam records since
/// September 2008; edges formed earlier have a sentinel time before that.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Friendship {
    pub a: u32,
    pub b: u32,
    pub created_at: SimTime,
}

impl Friendship {
    /// Canonicalizes endpoint order.
    pub fn new(x: u32, y: u32, created_at: SimTime) -> Self {
        let (a, b) = if x <= y { (x, y) } else { (y, x) };
        Friendship { a, b, created_at }
    }
}

/// Per-day playtime minutes for a sampled user over one week (Figure 12).
#[derive(Clone, Debug, Default)]
pub struct WeekPanel {
    /// Dense account indices of the sampled users.
    pub users: Vec<u32>,
    /// `daily_minutes[i][d]` = minutes user `users[i]` played on day `d`.
    pub daily_minutes: Vec<[u32; 7]>,
}

impl WeekPanel {
    pub fn len(&self) -> usize {
        self.users.len()
    }

    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }
}

/// One complete crawl of the network.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Nominal time the snapshot represents (end of collection).
    pub collected_at: SimTime,
    /// Size of the ID space that was scanned (valid + invalid IDs); the
    /// paper found density below 50% early in the range and above 90% after
    /// the first 21.5%.
    pub scanned_id_space: u64,
    /// Every valid account, sorted by Steam ID (i.e. by creation order).
    pub accounts: Vec<Account>,
    /// Undirected friendship edges, each stored once with `a < b`.
    pub friendships: Vec<Friendship>,
    /// `ownerships[i]` = library of `accounts[i]`, sorted by app id.
    pub ownerships: Vec<Vec<OwnedGame>>,
    /// The group universe.
    pub groups: Vec<Group>,
    /// `memberships[i]` = indices into `groups` for `accounts[i]`.
    pub memberships: Vec<Vec<u32>>,
    /// The product catalog, sorted by app id.
    pub catalog: Vec<Game>,
}

impl Snapshot {
    /// Number of valid accounts.
    pub fn n_users(&self) -> usize {
        self.accounts.len()
    }

    /// Number of friendship edges (each reciprocal pair counted once).
    pub fn n_friendships(&self) -> usize {
        self.friendships.len()
    }

    /// Total group-membership records (the paper reports 81.3 M).
    pub fn n_memberships(&self) -> usize {
        self.memberships.iter().map(Vec::len).sum()
    }

    /// Total owned-game records (the paper reports 384.3 M).
    pub fn n_owned_games(&self) -> usize {
        self.ownerships.iter().map(Vec::len).sum()
    }

    /// Builds an `AppId -> catalog index` lookup.
    pub fn catalog_index(&self) -> HashMap<AppId, u32> {
        self.catalog
            .iter()
            .enumerate()
            .map(|(i, g)| (g.app_id, i as u32))
            .collect()
    }

    /// Looks up a game by app id via binary search (catalog is sorted).
    pub fn game(&self, app: AppId) -> Option<&Game> {
        self.catalog
            .binary_search_by_key(&app, |g| g.app_id)
            .ok()
            .map(|i| &self.catalog[i])
    }

    /// Per-account friend degree.
    pub fn degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.n_users()];
        for e in &self.friendships {
            deg[e.a as usize] += 1;
            deg[e.b as usize] += 1;
        }
        deg
    }

    /// Total lifetime playtime across the network, in minutes.
    pub fn total_playtime_minutes(&self) -> u64 {
        self.ownerships
            .iter()
            .flatten()
            .map(|o| u64::from(o.playtime_forever_min))
            .sum()
    }

    /// Market value of one account's library in cents, priced from the
    /// catalog (the paper's §6 approximation: current storefront price of
    /// every owned game).
    pub fn account_value_cents(&self, user: u32, app_index: &HashMap<AppId, u32>) -> u64 {
        self.ownerships[user as usize]
            .iter()
            .filter_map(|o| app_index.get(&o.app_id))
            .map(|&gi| u64::from(self.catalog[gi as usize].price_cents))
            .sum()
    }

    /// The part of this snapshot that a crawl of its served API can observe.
    /// A crawl finds groups only through their members' group lists, so
    /// groups nobody belongs to are dropped (the rest keep their order) and
    /// memberships are remapped to the remaining indices; everything else
    /// is kept as is. A crawl of the served snapshot must give back exactly
    /// this, byte for byte.
    pub fn observable(&self) -> Snapshot {
        let mut remap: Vec<Option<u32>> = vec![None; self.groups.len()];
        for &g in self.memberships.iter().flatten() {
            remap[g as usize] = Some(0);
        }
        let mut groups = Vec::new();
        for (slot, group) in remap.iter_mut().zip(&self.groups) {
            if slot.is_some() {
                *slot = Some(groups.len() as u32);
                groups.push(group.clone());
            }
        }
        let memberships = self
            .memberships
            .iter()
            .map(|m| m.iter().map(|&g| remap[g as usize].expect("a member's group")).collect())
            .collect();
        Snapshot { groups, memberships, ..self.clone() }
    }

    /// Checks all structural invariants; returns the first violation found.
    ///
    /// * parallel arrays have matching lengths;
    /// * accounts sorted by id, catalog sorted by app id;
    /// * edges have `a < b`, endpoints in range, no duplicate edges;
    /// * degrees never exceed the per-account friend cap;
    /// * ownership entries reference catalog apps and respect the two-week
    ///   ceiling and `2weeks <= forever`;
    /// * memberships reference existing groups, without duplicates.
    pub fn validate(&self) -> Result<(), ModelError> {
        let n = self.n_users() as u32;
        if self.ownerships.len() != self.n_users() || self.memberships.len() != self.n_users() {
            return Err(ModelError::Codec(format!(
                "parallel array mismatch: {} accounts, {} ownerships, {} memberships",
                self.n_users(),
                self.ownerships.len(),
                self.memberships.len()
            )));
        }
        if self.scanned_id_space < self.n_users() as u64 {
            return Err(ModelError::Codec(
                "scanned id space smaller than account count".into(),
            ));
        }
        for w in self.accounts.windows(2) {
            if w[0].id >= w[1].id {
                return Err(ModelError::Codec("accounts not sorted by steam id".into()));
            }
        }
        for w in self.catalog.windows(2) {
            if w[0].app_id >= w[1].app_id {
                return Err(ModelError::Codec("catalog not sorted by app id".into()));
            }
        }
        let mut seen = std::collections::HashSet::with_capacity(self.friendships.len());
        let mut deg = vec![0u32; self.n_users()];
        for e in &self.friendships {
            if e.a >= e.b {
                return Err(ModelError::Codec(format!("edge not canonical: {e:?}")));
            }
            if e.b >= n {
                return Err(ModelError::DanglingReference(format!(
                    "edge endpoint {} out of range ({n} users)",
                    e.b
                )));
            }
            if !seen.insert((e.a, e.b)) {
                return Err(ModelError::Codec(format!("duplicate edge ({}, {})", e.a, e.b)));
            }
            deg[e.a as usize] += 1;
            deg[e.b as usize] += 1;
        }
        for (i, (acct, d)) in self.accounts.iter().zip(&deg).enumerate() {
            if *d > acct.friend_cap() {
                return Err(ModelError::Codec(format!(
                    "user {i} degree {d} exceeds cap {}",
                    acct.friend_cap()
                )));
            }
        }
        let index = self.catalog_index();
        for (i, lib) in self.ownerships.iter().enumerate() {
            for w in lib.windows(2) {
                if w[0].app_id >= w[1].app_id {
                    return Err(ModelError::Codec(format!("library {i} not sorted/deduped")));
                }
            }
            for o in lib {
                if !index.contains_key(&o.app_id) {
                    return Err(ModelError::DanglingReference(format!(
                        "user {i} owns unknown app {}",
                        o.app_id
                    )));
                }
                if o.playtime_2weeks_min > MAX_TWO_WEEK_MINUTES {
                    return Err(ModelError::Codec(format!(
                        "user {i} app {} two-week playtime {} exceeds ceiling",
                        o.app_id, o.playtime_2weeks_min
                    )));
                }
                if o.playtime_2weeks_min > o.playtime_forever_min {
                    return Err(ModelError::Codec(format!(
                        "user {i} app {} two-week playtime exceeds lifetime",
                        o.app_id
                    )));
                }
            }
        }
        let n_groups = self.groups.len() as u32;
        for (i, ms) in self.memberships.iter().enumerate() {
            let mut prev: Option<u32> = None;
            for &g in ms {
                if g >= n_groups {
                    return Err(ModelError::DanglingReference(format!(
                        "user {i} member of unknown group {g}"
                    )));
                }
                if prev == Some(g) {
                    return Err(ModelError::Codec(format!("user {i} duplicate membership {g}")));
                }
                if let Some(p) = prev {
                    if g < p {
                        return Err(ModelError::Codec(format!("user {i} memberships unsorted")));
                    }
                }
                prev = Some(g);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::Visibility;
    use crate::game::{AppType, GenreSet};
    use crate::id::SteamId;

    fn account(i: u64) -> Account {
        Account {
            id: SteamId::from_index(i),
            created_at: SimTime::from_ymd(2010, 1, 1),
            visibility: Visibility::Public,
            country: None,
            city: None,
            level: 0,
            facebook_linked: false,
        }
    }

    fn game(id: u32, cents: u32) -> Game {
        Game {
            app_id: AppId(id),
            name: format!("game-{id}"),
            app_type: AppType::Game,
            genres: GenreSet::EMPTY,
            price_cents: cents,
            multiplayer: false,
            release_date: SimTime::from_ymd(2009, 1, 1),
            metacritic: None,
            achievements: Vec::new(),
        }
    }

    fn tiny() -> Snapshot {
        Snapshot {
            collected_at: SimTime::from_ymd(2013, 11, 5),
            scanned_id_space: 4,
            accounts: vec![account(0), account(1), account(2)],
            friendships: vec![
                Friendship::new(1, 0, SimTime::from_ymd(2011, 3, 3)),
                Friendship::new(1, 2, SimTime::from_ymd(2012, 3, 3)),
            ],
            ownerships: vec![
                vec![OwnedGame { app_id: AppId(10), playtime_forever_min: 120, playtime_2weeks_min: 30 }],
                vec![],
                vec![
                    OwnedGame { app_id: AppId(10), playtime_forever_min: 0, playtime_2weeks_min: 0 },
                    OwnedGame { app_id: AppId(20), playtime_forever_min: 10, playtime_2weeks_min: 10 },
                ],
            ],
            groups: vec![Group {
                id: crate::group::GroupId(1),
                kind: crate::group::GroupKind::SingleGame,
                name: "g".into(),
            }],
            memberships: vec![vec![0], vec![], vec![0]],
            catalog: vec![game(10, 999), game(20, 1999)],
        }
    }

    #[test]
    fn observable_drops_only_groups_without_members() {
        let s = tiny();
        assert_eq!(s.observable().groups, s.groups, "every group has a member");
        let empty = |id: u32| Group {
            id: crate::group::GroupId(id),
            kind: crate::group::GroupKind::SpecialInterest,
            name: format!("empty {id}"),
        };
        // One member-less group before the joined one (shifting its index)
        // and one after it.
        let mut padded = tiny();
        padded.groups.insert(0, empty(0));
        padded.groups.push(empty(2));
        for m in &mut padded.memberships {
            for g in m.iter_mut() {
                *g += 1;
            }
        }
        padded.validate().unwrap();
        let seen = padded.observable();
        assert_eq!(seen.groups, s.groups);
        assert_eq!(seen.memberships, s.memberships);
        assert_eq!(seen.accounts, s.accounts);
        assert_eq!(seen.friendships, s.friendships);
        assert_eq!(seen.ownerships, s.ownerships);
        assert_eq!(seen.catalog, s.catalog);
        assert_eq!(seen.scanned_id_space, s.scanned_id_space);
        seen.validate().unwrap();
    }

    #[test]
    fn counts() {
        let s = tiny();
        assert_eq!(s.n_users(), 3);
        assert_eq!(s.n_friendships(), 2);
        assert_eq!(s.n_memberships(), 2);
        assert_eq!(s.n_owned_games(), 3);
        assert_eq!(s.total_playtime_minutes(), 130);
    }

    #[test]
    fn friendship_canonicalizes() {
        let e = Friendship::new(5, 2, SimTime(0));
        assert_eq!((e.a, e.b), (2, 5));
    }

    #[test]
    fn degrees_counts_both_endpoints() {
        assert_eq!(tiny().degrees(), vec![1, 2, 1]);
    }

    #[test]
    fn account_value_prices_from_catalog() {
        let s = tiny();
        let idx = s.catalog_index();
        assert_eq!(s.account_value_cents(0, &idx), 999);
        assert_eq!(s.account_value_cents(2, &idx), 999 + 1999);
        assert_eq!(s.account_value_cents(1, &idx), 0);
    }

    #[test]
    fn game_lookup() {
        let s = tiny();
        assert_eq!(s.game(AppId(20)).unwrap().price_cents, 1999);
        assert!(s.game(AppId(30)).is_none());
    }

    #[test]
    fn valid_snapshot_validates() {
        tiny().validate().unwrap();
    }

    #[test]
    fn validate_rejects_duplicate_edges() {
        let mut s = tiny();
        s.friendships.push(Friendship::new(0, 1, SimTime(0)));
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_rejects_out_of_range_edges() {
        let mut s = tiny();
        s.friendships.push(Friendship::new(0, 9, SimTime(0)));
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_rejects_unknown_app() {
        let mut s = tiny();
        s.ownerships[1].push(OwnedGame { app_id: AppId(77), playtime_forever_min: 0, playtime_2weeks_min: 0 });
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_rejects_two_week_over_lifetime() {
        let mut s = tiny();
        s.ownerships[0][0].playtime_2weeks_min = 9999;
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_rejects_cap_violation() {
        let mut s = tiny();
        // Give user 1 a zero cap by hacking level/facebook is impossible (base
        // is 250), so instead add 251 fake users all befriending user 0.
        for i in 3..260u64 {
            s.accounts.push(account(i));
            s.ownerships.push(vec![]);
            s.memberships.push(vec![]);
        }
        s.scanned_id_space = 300;
        for i in 3..260u32 {
            s.friendships.push(Friendship::new(0, i, SimTime(0)));
        }
        let err = s.validate().unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
    }
}
