//! Group universe and membership generation.
//!
//! Calibration targets:
//! * group sizes heavy-tailed, membership counts per user long-tailed
//!   (Table 3: 2 / 7 / 13 / 22 / 62 among members; §4.2);
//! * the top-250 groups mix per Table 2 (Game Server 45.6%, ...);
//! * game-focused groups whose members actually play the focal game, giving
//!   Figure 3's spread of distinct-games-played per group.
//!
//! Three seed streams: `groups.universe` (sequential — the group list and
//! the popularity shuffle are tiny), `groups.memberships` (fanned out over
//! user chunks; users join independently given the shared group table), and
//! `groups.recruit` (sequential — the devotee pass mutates many users'
//! membership lists, and is a scan over groups, not users).

use rand::rngs::StdRng;
use rand::Rng;
use steam_model::{Group, GroupId, GroupKind, OwnedGame};
use steam_par::run_chunks;

use crate::catalog::CatalogModel;
use crate::config::SynthConfig;
use crate::par::USERS_CHUNK;
use crate::samplers::{categorical, chance, lognormal, zipf_weights, AliasTable};
use crate::seed::stage_rng;

/// The group universe plus per-user membership lists (sorted, deduped).
#[derive(Clone, Debug)]
pub struct GroupModel {
    pub groups: Vec<Group>,
    /// Per-user indices into `groups`, parallel to the population.
    pub memberships: Vec<Vec<u32>>,
    /// Focal game (index into `catalog.game_indices`) for game-centric
    /// groups.
    pub focal_game: Vec<Option<u32>>,
}

fn pick_kind(rng: &mut StdRng) -> GroupKind {
    // Table 2 describes the *largest* groups; the full universe skews more
    // toward small single-game and special-interest groups, but using the
    // same mix keeps the top-250 breakdown on target.
    let shares: Vec<f64> = GroupKind::TABLE2_SHARES.iter().map(|(_, s)| *s).collect();
    GroupKind::TABLE2_SHARES[categorical(rng, &shares)].0
}

/// One user's membership list (sorted, deduped).
fn join_groups(
    rng: &mut StdRng,
    cfg: &SynthConfig,
    lib: &[OwnedGame],
    groups_of_game: &[Vec<u32>],
    group_table: &AliasTable,
    game_index_of_app: &std::collections::HashMap<steam_model::AppId, u32>,
) -> Vec<u32> {
    if !chance(rng, cfg.group_member_rate) {
        return Vec::new();
    }
    // Lognormal body with a small Pareto tail (Table 3's membership
    // ladder runs 2 / 7 / 13 / 22 / 62 — too heavy for a lognormal
    // alone).
    let raw = if chance(rng, 0.05) {
        crate::samplers::pareto(rng, 10.0, 1.5)
    } else {
        lognormal(rng, cfg.membership_mu, cfg.membership_sigma)
    };
    let n_m = (raw.round() as usize).clamp(1, 400);
    let played: Vec<u32> = lib
        .iter()
        .filter(|o| o.played())
        .filter_map(|o| game_index_of_app.get(&o.app_id).copied())
        .collect();
    let mut mine: Vec<u32> = Vec::with_capacity(n_m);
    let mut attempts = 0;
    while mine.len() < n_m && attempts < n_m * 10 {
        attempts += 1;
        let g = if !played.is_empty() && chance(rng, cfg.game_directed_membership) {
            // Join a group focused on a game I actually play.
            let game = played[rng.gen_range(0..played.len())] as usize;
            let candidates = &groups_of_game[game];
            if candidates.is_empty() {
                group_table.sample(rng) as u32
            } else {
                candidates[rng.gen_range(0..candidates.len())]
            }
        } else {
            group_table.sample(rng) as u32
        };
        if !mine.contains(&g) {
            mine.push(g);
        }
    }
    mine.sort_unstable();
    mine
}

/// Generates groups and memberships.
pub fn generate_groups(
    cfg: &SynthConfig,
    ownerships: &[Vec<OwnedGame>],
    catalog: &CatalogModel,
    jobs: usize,
) -> GroupModel {
    let n_groups = cfg.n_groups;
    let n_games = catalog.game_indices.len();

    // --- the group universe ---------------------------------------------------
    let rng = &mut stage_rng(cfg.seed, "groups.universe", 0);
    let mut groups = Vec::with_capacity(n_groups);
    let mut focal_game = Vec::with_capacity(n_groups);
    // Focal games follow popularity so big games host big server groups.
    let popularity_table = AliasTable::new(&catalog.popularity);
    for i in 0..n_groups {
        let kind = pick_kind(rng);
        let focal = match kind {
            GroupKind::GameServer | GroupKind::SingleGame => {
                Some(popularity_table.sample(rng) as u32)
            }
            // Gaming communities are multi-game; publishers/steam/special
            // interest are not game-scoped.
            _ => None,
        };
        groups.push(Group {
            id: GroupId(1000 + i as u32),
            kind,
            name: format!("{} group {i:05}", kind.as_str()),
        });
        focal_game.push(focal);
    }

    // Map: game -> groups focal on it (for the game-directed join path).
    let mut groups_of_game: Vec<Vec<u32>> = vec![Vec::new(); n_games];
    for (gi, focal) in focal_game.iter().enumerate() {
        if let Some(game) = focal {
            groups_of_game[*game as usize].push(gi as u32);
        }
    }
    // Global popularity of groups: Zipf over a shuffled order.
    let mut shuffled: Vec<usize> = (0..n_groups).collect();
    for i in (1..n_groups).rev() {
        let j = rng.gen_range(0..=i);
        shuffled.swap(i, j);
    }
    let zipf = zipf_weights(n_groups, 1.05);
    let mut group_weight = vec![0.0; n_groups];
    for (rank, &g) in shuffled.iter().enumerate() {
        group_weight[g] = zipf[rank];
    }
    let group_table = AliasTable::new(&group_weight);

    // Map from app id to game index for the directed path.
    let mut game_index_of_app = std::collections::HashMap::new();
    for (gi, &pi) in catalog.game_indices.iter().enumerate() {
        game_index_of_app.insert(catalog.products[pi as usize].app_id, gi as u32);
    }

    // --- memberships ----------------------------------------------------------
    let chunks = run_chunks(jobs, ownerships.len(), USERS_CHUNK, |c, range| {
        let mut rng = stage_rng(cfg.seed, "groups.memberships", c as u64);
        range
            .map(|u| {
                join_groups(
                    &mut rng,
                    cfg,
                    &ownerships[u],
                    &groups_of_game,
                    &group_table,
                    &game_index_of_app,
                )
            })
            .collect::<Vec<_>>()
    });
    let mut memberships = Vec::with_capacity(ownerships.len());
    for mut c in chunks {
        memberships.append(&mut c);
    }

    // --- dedicated-community recruitment ---------------------------------------
    // §4.2: 4.97% of the large groups have members who devote ≥90% of their
    // collective playtime to a single game. The user-driven join loop cannot
    // produce such groups (members bring their whole libraries); these
    // communities recruit the *devotees* of their game — users whose own
    // playtime is already concentrated on it. A slice of single-game groups
    // does exactly that here.
    let mut devotees_of_game: Vec<Vec<u32>> = vec![Vec::new(); n_games];
    for (u, lib) in ownerships.iter().enumerate() {
        let total: u64 = lib.iter().map(|o| u64::from(o.playtime_forever_min)).sum();
        if total == 0 {
            continue;
        }
        if let Some(top) = lib.iter().max_by_key(|o| o.playtime_forever_min) {
            if u64::from(top.playtime_forever_min) * 10 >= total * 9 {
                if let Some(&gi) = game_index_of_app.get(&top.app_id) {
                    devotees_of_game[gi as usize].push(u as u32);
                }
            }
        }
    }
    let rng = &mut stage_rng(cfg.seed, "groups.recruit", 0);
    for (g, focal) in focal_game.iter().enumerate() {
        let Some(game) = focal else { continue };
        // A small slice of single-game groups are dedicated communities —
        // calibrated so ~5% of the ≥100-member groups end up ≥90% focused.
        if groups[g].kind != GroupKind::SingleGame || !chance(rng, 0.03) {
            continue;
        }
        let pool = &devotees_of_game[*game as usize];
        if pool.len() < 110 {
            continue;
        }
        // Recruit a bounded slice of the devotee pool; only existing group
        // joiners sign up, so the overall member rate is unchanged.
        let quota = rng.gen_range(110..=pool.len().min(400));
        let mut recruited = 0usize;
        for &u in pool.iter() {
            if recruited >= quota {
                break;
            }
            let ms = &mut memberships[u as usize];
            if ms.is_empty() || ms.len() >= 400 {
                continue;
            }
            if let Err(pos) = ms.binary_search(&(g as u32)) {
                ms.insert(pos, g as u32);
                recruited += 1;
            }
        }
    }

    GroupModel { groups, memberships, focal_game }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounts::generate_population;
    use crate::catalog::generate_catalog;
    use crate::ownership::generate_ownership;

    fn build_libs(cfg: &SynthConfig) -> (Vec<Vec<OwnedGame>>, CatalogModel) {
        let catalog = generate_catalog(cfg, 1);
        let pop = generate_population(cfg, 1);
        let libs = generate_ownership(cfg, &pop, &catalog, 1);
        (libs, catalog)
    }

    fn build() -> (GroupModel, SynthConfig) {
        let cfg = SynthConfig::small(23);
        let (libs, catalog) = build_libs(&cfg);
        (generate_groups(&cfg, &libs, &catalog, 1), cfg)
    }

    #[test]
    fn structure_valid() {
        let (gm, cfg) = build();
        assert_eq!(gm.groups.len(), cfg.n_groups);
        assert_eq!(gm.focal_game.len(), cfg.n_groups);
        for ms in &gm.memberships {
            for pair in ms.windows(2) {
                assert!(pair[0] < pair[1], "memberships sorted + unique");
            }
            for &g in ms {
                assert!((g as usize) < cfg.n_groups);
            }
        }
    }

    #[test]
    fn member_rate_near_config() {
        let (gm, cfg) = build();
        let members = gm.memberships.iter().filter(|m| !m.is_empty()).count() as f64;
        let rate = members / gm.memberships.len() as f64;
        assert!((rate - cfg.group_member_rate).abs() < 0.04, "member rate = {rate}");
    }

    #[test]
    fn membership_percentiles_near_paper() {
        let (gm, _) = build();
        let mut counts: Vec<usize> = gm
            .memberships
            .iter()
            .filter(|m| !m.is_empty())
            .map(Vec::len)
            .collect();
        counts.sort_unstable();
        let p = |q: f64| counts[((counts.len() - 1) as f64 * q) as usize];
        // Paper: 2 / 7 / 13 / 22 / 62.
        assert!((1..=4).contains(&p(0.5)), "p50 = {}", p(0.5));
        assert!((4..=12).contains(&p(0.8)), "p80 = {}", p(0.8));
        assert!((30..=120).contains(&p(0.99)), "p99 = {}", p(0.99));
    }

    #[test]
    fn group_sizes_heavy_tailed() {
        let (gm, cfg) = build();
        let mut sizes = vec![0u64; cfg.n_groups];
        for ms in &gm.memberships {
            for &g in ms {
                sizes[g as usize] += 1;
            }
        }
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = sizes.iter().sum();
        let top10: u64 = sizes[..cfg.n_groups / 10].iter().sum();
        assert!(
            top10 as f64 / total as f64 > 0.5,
            "top-10% groups hold {} of members",
            top10 as f64 / total as f64
        );
    }

    #[test]
    fn game_scoped_kinds_have_focal_games() {
        let (gm, _) = build();
        for (g, focal) in gm.groups.iter().zip(&gm.focal_game) {
            match g.kind {
                GroupKind::GameServer | GroupKind::SingleGame => {
                    assert!(focal.is_some(), "{:?} needs a focal game", g.kind)
                }
                _ => assert!(focal.is_none()),
            }
        }
    }

    #[test]
    fn table2_mix_roughly_respected() {
        let (gm, cfg) = build();
        let server = gm
            .groups
            .iter()
            .filter(|g| g.kind == GroupKind::GameServer)
            .count() as f64;
        let frac = server / cfg.n_groups as f64;
        assert!((frac - 0.456).abs() < 0.05, "game-server share = {frac}");
    }

    #[test]
    fn jobs_invariant() {
        let cfg = SynthConfig::small(23);
        let (libs, catalog) = build_libs(&cfg);
        let serial = generate_groups(&cfg, &libs, &catalog, 1);
        let parallel = generate_groups(&cfg, &libs, &catalog, 4);
        assert_eq!(serial.groups, parallel.groups);
        assert_eq!(serial.memberships, parallel.memberships);
        assert_eq!(serial.focal_game, parallel.focal_game);
    }
}
