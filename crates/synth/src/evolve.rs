//! Second-snapshot evolution (§8).
//!
//! The paper re-crawled game data for the *same* 108.7 M users roughly a
//! year later and found the tails exploding while the 80th percentiles
//! barely moved: max library 2,148 → 3,919 games but 80th percentile only
//! 10 → 15; max account value $24,315 → $46,634 but 80th percentile
//! $150.88 → $224.93. The mechanism we implement: growth is multiplicative
//! in the current holdings (collectors keep collecting at their rate), so a
//! year multiplies the tail while barely moving the body.
//!
//! Two seed streams: `evolve.catalog` (sequential — the store extension is
//! ~2k games) and `evolve.users` (fanned out over user chunks; each user's
//! year of acquisitions and playtime growth is independent given the
//! extended popularity table).

use rand::rngs::StdRng;
use rand::Rng;
use steam_model::{Game, OwnedGame, Snapshot};
use steam_par::run_chunks;

use crate::accounts::{Archetype, Latents};
use crate::catalog::CatalogModel;
use crate::config::SynthConfig;
use crate::par::USERS_CHUNK;
use crate::samplers::{chance, truncated_power_law_bounded, AliasTable};
use crate::seed::stage_rng;

/// Evolves one user's library by a year. `lib` is the user's first-snapshot
/// library, already cloned; `owned_scratch` is a reusable buffer.
#[allow(clippy::too_many_arguments)]
fn evolve_library(
    rng: &mut StdRng,
    cfg: &SynthConfig,
    catalog: &CatalogModel,
    table: &AliasTable,
    owned_scratch: &mut std::collections::HashSet<u32>,
    lat: &Latents,
    u: usize,
    lib: &mut Vec<OwnedGame>,
) {
    let arch = lat.archetype[u];
    let engagement = lat.engagement[u];

    // --- new acquisitions -------------------------------------------------
    // Multiplicative growth: a user acquires in proportion to what they
    // already hold (plus a base trickle). Collectors grow ~80%/year.
    let current = lib.len() as f64;
    let base = if chance(rng, 0.35 * engagement.sqrt().min(1.8)) { 1.0 } else { 0.0 };
    // Collectors keep collecting at a high, *reliable* rate (a floor plus
    // noise): the §8 tail-vs-body asymmetry is driven by the very top
    // library, which must not stall on one unlucky draw. Ordinary users
    // get a fully noisy yearly trickle.
    let exp_noise = -(rng.gen::<f64>().max(1e-12)).ln();
    let mean_new = match arch {
        Archetype::Collector => current * (0.45 + 0.37 * exp_noise) + base,
        _ => (current * 0.28 + base) * exp_noise,
    };
    let n_new = (mean_new.round() as usize)
        .min(catalog.game_indices.len().saturating_sub(lib.len()));

    if n_new > 0 {
        owned_scratch.clear();
        for o in lib.iter() {
            // Map app id back to game index space via binary search over
            // products (catalog is sorted by app id).
            if let Ok(pi) = catalog
                .products
                .binary_search_by_key(&o.app_id, |g| g.app_id)
            {
                // game_indices is sorted, so find its position.
                if let Ok(gi) = catalog.game_indices.binary_search(&(pi as u32)) {
                    owned_scratch.insert(gi as u32);
                }
            }
        }
        let mut added = 0;
        let mut attempts = 0;
        while added < n_new && attempts < n_new * 30 {
            attempts += 1;
            let gi = table.sample(rng) as u32;
            if owned_scratch.insert(gi) {
                let app_id =
                    catalog.products[catalog.game_indices[gi as usize] as usize].app_id;
                // Fresh acquisitions start unplayed; a year of backlog
                // pressure means most stay unplayed (§5).
                let minutes = if arch != Archetype::Collector && chance(rng, 0.45) {
                    rng.gen_range(10..3_000)
                } else {
                    0
                };
                lib.push(OwnedGame {
                    app_id,
                    playtime_forever_min: minutes,
                    playtime_2weeks_min: 0,
                });
                added += 1;
            }
        }
        lib.sort_by_key(|o| o.app_id);
    }

    // --- another year of playtime ------------------------------------------
    for o in lib.iter_mut() {
        if o.playtime_forever_min > 0 {
            // Played games accrue proportional growth with noise.
            let factor = 1.0 + 0.4 * rng.gen::<f64>() * engagement.min(3.0);
            o.playtime_forever_min =
                ((f64::from(o.playtime_forever_min) * factor) as u32).max(o.playtime_forever_min);
        }
        o.playtime_2weeks_min = 0;
    }

    // --- a fresh two-week window --------------------------------------------
    let farmer = arch == Archetype::IdleFarmer;
    let played_any = lib.iter().any(|o| o.played());
    let active = farmer
        || (played_any && chance(rng, cfg.active_two_week_rate * engagement.sqrt().min(2.2)));
    if active && !lib.is_empty() {
        let total = if farmer {
            rng.gen_range(
                (steam_model::ownership::MAX_TWO_WEEK_MINUTES * 4 / 5)
                    ..=steam_model::ownership::MAX_TWO_WEEK_MINUTES,
            ) as f64
        } else {
            truncated_power_law_bounded(
                rng,
                30.0,
                f64::from(steam_model::ownership::MAX_TWO_WEEK_MINUTES),
                cfg.two_week_alpha,
                cfg.two_week_scale,
            )
        };
        // Concentrate on the most-played title plus a couple of others.
        let mut order: Vec<usize> = (0..lib.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(lib[i].playtime_forever_min));
        let spread = order.len().min(3);
        for (slot, &i) in order[..spread].iter().enumerate() {
            let share = match slot {
                0 => 0.7,
                1 => 0.2,
                _ => 0.1,
            };
            let recent = (total * share).round() as u32;
            if recent > 0 {
                lib[i].playtime_2weeks_min =
                    recent.min(steam_model::ownership::MAX_TWO_WEEK_MINUTES);
                lib[i].playtime_forever_min = lib[i]
                    .playtime_forever_min
                    .max(lib[i].playtime_2weeks_min);
            }
        }
    }
}

/// Produces the second snapshot from the first: same accounts, friendships
/// and groups; libraries and playtimes grown by ~one year. The base
/// catalog's latents (`game_indices`, `popularity`, parallel to the games
/// inside `first.catalog`) are passed separately because the first
/// snapshot owns only the product list.
pub fn evolve_snapshot(
    cfg: &SynthConfig,
    first: &Snapshot,
    lat: &Latents,
    base_game_indices: &[u32],
    base_popularity: &[f64],
    jobs: usize,
) -> Snapshot {
    // Between the crawls the store itself grew substantially; without this
    // the completionist collectors would already be pinned at the catalog
    // ceiling and the tail could not outgrow the body.
    let catalog = crate::catalog::extend_catalog(
        &mut stage_rng(cfg.seed, "evolve.catalog", 0),
        cfg,
        &first.catalog,
        base_game_indices,
        base_popularity,
        0.85,
    );
    let catalog = &catalog;
    let table = AliasTable::new(&catalog.popularity);

    let chunks = run_chunks(jobs, first.ownerships.len(), USERS_CHUNK, |c, range| {
        let mut rng = stage_rng(cfg.seed, "evolve.users", c as u64);
        let mut owned_scratch: std::collections::HashSet<u32> = std::collections::HashSet::new();
        range
            .map(|u| {
                let mut lib = first.ownerships[u].clone();
                evolve_library(&mut rng, cfg, catalog, &table, &mut owned_scratch, lat, u, &mut lib);
                lib
            })
            .collect::<Vec<_>>()
    });
    let mut ownerships = Vec::with_capacity(first.ownerships.len());
    for mut c in chunks {
        ownerships.append(&mut c);
    }

    let second_catalog: Vec<Game> = catalog.products.clone();
    Snapshot {
        collected_at: steam_model::SimTime::from_ymd(2014, 10, 3),
        scanned_id_space: first.scanned_id_space,
        accounts: first.accounts.clone(),
        friendships: first.friendships.clone(),
        ownerships,
        groups: first.groups.clone(),
        memberships: first.memberships.clone(),
        catalog: second_catalog,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::Generator;

    #[test]
    fn tails_grow_faster_than_percentiles() {
        let cfg = SynthConfig::small(29);
        let gen = Generator::new(cfg.clone());
        let world = gen.generate_world();
        let first = &world.snapshot;
        let second = &world.second_snapshot;

        let sizes = |s: &Snapshot| {
            let mut v: Vec<usize> =
                s.ownerships.iter().filter(|l| !l.is_empty()).map(Vec::len).collect();
            v.sort_unstable();
            v
        };
        let s1 = sizes(first);
        let s2 = sizes(second);
        let max1 = *s1.last().unwrap() as f64;
        let max2 = *s2.last().unwrap() as f64;
        let p80_1 = s1[(s1.len() - 1) * 8 / 10] as f64;
        let p80_2 = s2[(s2.len() - 1) * 8 / 10] as f64;

        // §8: the max grows by a substantially larger factor than the 80th
        // percentile.
        assert!(max2 > max1, "max should grow: {max1} -> {max2}");
        let tail_factor = max2 / max1;
        let body_factor = p80_2 / p80_1.max(1.0);
        assert!(
            tail_factor > body_factor,
            "tail ×{tail_factor:.2} should outgrow body ×{body_factor:.2}"
        );
    }

    #[test]
    fn same_accounts_and_friendships() {
        let world = Generator::new(SynthConfig::small(31)).generate_world();
        assert_eq!(
            world.snapshot.accounts.len(),
            world.second_snapshot.accounts.len()
        );
        assert_eq!(
            world.snapshot.friendships.len(),
            world.second_snapshot.friendships.len()
        );
        assert_eq!(world.snapshot.groups.len(), world.second_snapshot.groups.len());
    }

    #[test]
    fn libraries_never_shrink_and_stay_valid() {
        let world = Generator::new(SynthConfig::small(37)).generate_world();
        for (l1, l2) in world.snapshot.ownerships.iter().zip(&world.second_snapshot.ownerships) {
            assert!(l2.len() >= l1.len(), "library shrank: {} -> {}", l1.len(), l2.len());
        }
        world.second_snapshot.validate().unwrap();
    }

    #[test]
    fn jobs_invariant() {
        let cfg = SynthConfig::small(29);
        let serial = Generator::new(cfg.clone()).generate_world_jobs(1);
        let parallel = Generator::new(cfg).generate_world_jobs(4);
        assert_eq!(serial.second_snapshot.ownerships, parallel.second_snapshot.ownerships);
        assert_eq!(serial.second_snapshot.catalog, parallel.second_snapshot.catalog);
    }
}
