//! Catalog generation: products, genres, prices, multiplayer flags,
//! achievements, and the popularity weights that drive ownership/playtime.
//!
//! Calibration targets from the paper:
//! * 6,156 products, of which a minority are games proper (the top collector
//!   owned 2,148 games = "90.3% of the games currently available");
//! * Action ≈ 38.1% of the catalog, 48.7% of games multiplayer;
//! * achievements per game: mode 12, median 24, mean 33.1, max 1,629, with
//!   a moderate coupling to playtime on the 1–90 band (§9, R = 0.53);
//! * Adventure games complete ≈ 19% of achievements on average, Strategy 11%.

use rand::rngs::StdRng;
use rand::Rng;
use steam_model::{Achievement, AppId, AppType, Game, Genre, GenreSet, SimTime};
use steam_par::run_chunks;

use crate::config::SynthConfig;
use crate::par::{GAMES_CHUNK, PRODUCTS_CHUNK};
use crate::samplers::{chance, lognormal, normal, pareto};
use crate::seed::stage_rng;

/// Catalog plus the latent per-game state the rest of the generator uses.
#[derive(Clone, Debug)]
pub struct CatalogModel {
    /// All products, sorted by app id. Non-game products exist only to make
    /// the catalog realistic; ownership draws exclusively from games.
    pub products: Vec<Game>,
    /// Indices into `products` that are games.
    pub game_indices: Vec<u32>,
    /// Popularity weight per game (parallel to `game_indices`).
    pub popularity: Vec<f64>,
}

/// Primary-genre weights, tuned so Action lands near 38% of games after
/// secondary labels are added.
const GENRE_WEIGHTS: [(Genre, f64); 12] = [
    // With up to two secondary draws at 35% each (≈1.7 labels/game), a
    // primary weight of 0.245 puts Action on ≈38% of games, matching §5.
    (Genre::Action, 0.245),
    (Genre::Indie, 0.175),
    (Genre::Strategy, 0.135),
    (Genre::Adventure, 0.100),
    (Genre::Rpg, 0.085),
    (Genre::Casual, 0.085),
    (Genre::Simulation, 0.070),
    (Genre::Sports, 0.035),
    (Genre::Racing, 0.032),
    (Genre::FreeToPlay, 0.020),
    (Genre::MassivelyMultiplayer, 0.013),
    (Genre::EarlyAccess, 0.005),
];

/// Storefront price points in cents with choice weights (non-free games).
const PRICE_POINTS: [(u32, f64); 12] = [
    (199, 0.06),
    (299, 0.07),
    (499, 0.15),
    (699, 0.10),
    (999, 0.22),
    (1499, 0.13),
    (1999, 0.12),
    (2499, 0.05),
    (2999, 0.05),
    (3999, 0.02),
    (4999, 0.02),
    (5999, 0.01),
];

/// Mean achievement completion percentage by genre (§9).
fn genre_completion_base(genres: GenreSet) -> f64 {
    if genres.contains(Genre::Adventure) {
        19.0
    } else if genres.contains(Genre::Strategy) {
        11.0
    } else {
        14.5
    }
}

fn pick_genres(rng: &mut StdRng) -> GenreSet {
    let mut set = GenreSet::new();
    // Primary label.
    let x: f64 = rng.gen();
    let mut acc = 0.0;
    let mut primary = Genre::Action;
    for (g, w) in GENRE_WEIGHTS {
        acc += w;
        if x < acc {
            primary = g;
            break;
        }
    }
    set.insert(primary);
    // Up to two secondary labels.
    for _ in 0..2 {
        if chance(rng, 0.35) {
            let y: f64 = rng.gen();
            let mut acc = 0.0;
            for (g, w) in GENRE_WEIGHTS {
                acc += w;
                if y < acc {
                    set.insert(g);
                    break;
                }
            }
        }
    }
    set
}

fn pick_price(rng: &mut StdRng, genres: GenreSet) -> u32 {
    if genres.contains(Genre::FreeToPlay) {
        return 0;
    }
    let x: f64 = rng.gen();
    let mut acc = 0.0;
    for (cents, w) in PRICE_POINTS {
        acc += w;
        if x < acc {
            return cents;
        }
    }
    PRICE_POINTS.last().unwrap().0
}

/// Achievement count for one game, coupled to its popularity percentile
/// (`0.0` = least popular game, `1.0` = most popular).
///
/// §9 found cumulative playtime and achievement count correlate at R ≈ 0.53
/// on the 1–90 band and not at all beyond: popular games invest in
/// achievements, while the >90 monsters are idiosyncratic. The coupling
/// strength is `cfg.achievement_popularity_coupling`.
fn achievement_count(rng: &mut StdRng, cfg: &SynthConfig, popularity_pct: f64) -> usize {
    if chance(rng, cfg.no_achievements_rate) {
        return 0;
    }
    if chance(rng, 0.012) {
        // Rare completionist monsters (the paper's max is 1,629),
        // independent of popularity.
        return (pareto(rng, 90.0, 1.2) as usize).min(1_650);
    }
    // Lognormal with median rising from ~13 (obscure) to ~48 (top) —
    // overall median ≈ 24, mode ≈ 12, mean ≈ 33 as in §9.
    let mu = 12f64.ln() + cfg.achievement_popularity_coupling * popularity_pct;
    (lognormal(rng, mu, 0.55).round() as usize).clamp(1, 1_650)
}

fn achievements_for(rng: &mut StdRng, genres: GenreSet, count: usize) -> Vec<Achievement> {
    if count == 0 {
        return Vec::new();
    }
    let base = genre_completion_base(genres);
    // Per-game difficulty multiplier: lognormal so the distribution of mean
    // completion is right-skewed (mode ≈ 5%, mean ≈ 14-15%).
    let difficulty = lognormal(rng, 0.0, 0.75);
    let game_base = (base * difficulty * 0.6).clamp(0.5, 80.0);
    (0..count)
        .map(|i| {
            // Earlier achievements are easier; completion decays with rank.
            let rank_factor = 1.0 / (1.0 + 0.06 * i as f64);
            let noise = (0.3 * normal(rng)).exp();
            let pct = (game_base * rank_factor * noise * 2.0).clamp(0.1, 98.0);
            Achievement { name: format!("ach_{i:04}"), global_completion_pct: pct as f32 }
        })
        .collect()
}

fn release_date(rng: &mut StdRng) -> SimTime {
    // Catalog skews recent: quadratic bias toward 2013.
    let u: f64 = rng.gen::<f64>().sqrt();
    let year = 2003 + (u * 10.0) as i32;
    let month = rng.gen_range(1..=12);
    let day = rng.gen_range(1..=28);
    SimTime::from_ymd(year.min(2013), month, day)
}

/// Generates the product catalog. Product attributes fan out over
/// `PRODUCTS_CHUNK`-sized chunks of the `catalog.products` stream; the
/// popularity permutation is one short sequential pass on its own stream;
/// achievements fan out over `GAMES_CHUNK` chunks of `catalog.achievements`.
pub fn generate_catalog(cfg: &SynthConfig, jobs: usize) -> CatalogModel {
    // --- products -------------------------------------------------------------
    let chunks = run_chunks(jobs, cfg.n_products, PRODUCTS_CHUNK, |c, range| {
        let mut rng = stage_rng(cfg.seed, "catalog.products", c as u64);
        let mut products = Vec::with_capacity(range.len());
        let mut game_indices = Vec::new();
        for i in range {
            // App ids are sparse and ascending, like Steam's.
            let app_id = AppId(10 + (i as u32) * 10 + (i as u32 % 7));
            let is_game = chance(&mut rng, cfg.game_fraction);
            let app_type = if is_game {
                AppType::Game
            } else {
                match rng.gen_range(0..4u8) {
                    0 => AppType::Demo,
                    1 => AppType::Trailer,
                    2 => AppType::Dlc,
                    _ => AppType::Tool,
                }
            };
            let genres = pick_genres(&mut rng);
            let price_cents = if is_game { pick_price(&mut rng, genres) } else { 0 };
            let multiplayer = is_game && chance(&mut rng, cfg.multiplayer_fraction);
            let game = Game {
                app_id,
                name: format!("{} {i:04}", if is_game { "Game" } else { "Extra" }),
                app_type,
                genres,
                price_cents,
                multiplayer,
                release_date: release_date(&mut rng),
                metacritic: if is_game && chance(&mut rng, 0.55) {
                    Some(rng.gen_range(40..=96))
                } else {
                    None
                },
                // Achievements are assigned after popularity is known (§9's
                // playtime coupling).
                achievements: Vec::new(),
            };
            if is_game {
                game_indices.push(i as u32);
            }
            products.push(game);
        }
        (products, game_indices)
    });
    let mut products = Vec::with_capacity(cfg.n_products);
    let mut game_indices = Vec::new();
    for (mut p, mut g) in chunks {
        products.append(&mut p);
        game_indices.append(&mut g);
    }

    // --- popularity -----------------------------------------------------------
    // Zipf over a random permutation of games (so popularity is independent
    // of app id), boosted by Action membership (drives the §6.2 playtime
    // share) and by achievement count on the 1-90 band (§9). The permutation
    // and noise are one short sequential pass (~n_games draws).
    let n_games = game_indices.len();
    let mut rank: Vec<usize> = (0..n_games).collect();
    let mut rank_rng = stage_rng(cfg.seed, "catalog.popularity", 0);
    // Fisher-Yates on a dedicated stream keeps everything deterministic.
    for i in (1..n_games).rev() {
        let j = rank_rng.gen_range(0..=i);
        rank.swap(i, j);
    }
    let mut popularity = vec![0.0; n_games];
    for (game_pos, &r) in rank.iter().enumerate() {
        let g = &products[game_indices[game_pos] as usize];
        let zipf = 1.0 / ((r + 1) as f64).powf(cfg.popularity_zipf);
        let action_boost = if g.genres.contains(Genre::Action) { 1.6 } else { 1.0 };
        let mp_boost = if g.multiplayer { 1.25 } else { 1.0 };
        let noise = (0.25 * normal(&mut rank_rng)).exp();
        popularity[game_pos] = zipf * action_boost * mp_boost * noise;
    }

    // --- achievements ----------------------------------------------------------
    // Coupled to the popularity percentile (§9); per-game draws are
    // independent given the rank, so games fan out in chunks.
    let ach_chunks = run_chunks(jobs, n_games, GAMES_CHUNK, |c, range| {
        let mut rng = stage_rng(cfg.seed, "catalog.achievements", c as u64);
        range
            .map(|game_pos| {
                let r = rank[game_pos];
                let pct = 1.0 - (r as f64 + 0.5) / n_games.max(1) as f64;
                let pi = game_indices[game_pos] as usize;
                let count = achievement_count(&mut rng, cfg, pct);
                achievements_for(&mut rng, products[pi].genres, count)
            })
            .collect::<Vec<_>>()
    });
    let mut game_pos = 0usize;
    for chunk in ach_chunks {
        for ach in chunk {
            products[game_indices[game_pos] as usize].achievements = ach;
            game_pos += 1;
        }
    }

    // Deterministic calibration of the popularity mass. Ownership and
    // playtime follow popularity, so two target shares reproduce the
    // paper's overrepresentation findings independent of which side of the
    // coin the Zipf head landed:
    // * multiplayer games → ~60% of mass (Figure 10: 57.7% of total and
    //   67.7% of two-week playtime vs 48.7% of the catalog);
    // * Action games → ~51% of mass (§6.2: 49.2% of playtime and 51.9% of
    //   value vs 38.3% of the catalog).
    // The two rescales interact (many Action games are multiplayer), so
    // alternate a few rounds of proportional fitting.
    const MP_POPULARITY_SHARE: f64 = 0.56;
    const ACTION_POPULARITY_SHARE: f64 = 0.56;
    let rescale_class = |popularity: &mut [f64], in_class: &dyn Fn(usize) -> bool, target: f64| {
        let class_mass: f64 = popularity
            .iter()
            .enumerate()
            .filter(|&(gp, _)| in_class(gp))
            .map(|(_, w)| w)
            .sum();
        let total: f64 = popularity.iter().sum();
        let rest = total - class_mass;
        if class_mass > 0.0 && rest > 0.0 {
            let factor = target / (1.0 - target) * rest / class_mass;
            for (gp, w) in popularity.iter_mut().enumerate() {
                if in_class(gp) {
                    *w *= factor;
                }
            }
        }
    };
    let is_mp = |gp: usize| products[game_indices[gp] as usize].multiplayer;
    let is_action =
        |gp: usize| products[game_indices[gp] as usize].genres.contains(Genre::Action);
    for _ in 0..4 {
        rescale_class(&mut popularity, &is_mp, MP_POPULARITY_SHARE);
        rescale_class(&mut popularity, &is_action, ACTION_POPULARITY_SHARE);
    }

    CatalogModel { products, game_indices, popularity }
}

/// Extends a catalog with `growth` × (current game count) newly released
/// games, for the second snapshot (§8): between the two crawls the Steam
/// store itself nearly doubled, which is what lets the top collector go
/// from 2,148 to 3,919 games. Sequential on the caller's stream — the
/// extension is ~2k games, a rounding error next to the per-user stages.
pub fn extend_catalog(
    rng: &mut StdRng,
    cfg: &SynthConfig,
    base_products: &[Game],
    base_game_indices: &[u32],
    base_popularity: &[f64],
    growth: f64,
) -> CatalogModel {
    let mut out = CatalogModel {
        products: base_products.to_vec(),
        game_indices: base_game_indices.to_vec(),
        popularity: base_popularity.to_vec(),
    };
    let n_new = ((base_game_indices.len() as f64) * growth) as usize;
    let max_app = base_products.last().map_or(0, |g| g.app_id.0);
    for i in 0..n_new {
        let genres = pick_genres(rng);
        // New releases land mid-popularity; give them a mid-range coupling.
        let pct = 0.3 + 0.4 * rng.gen::<f64>();
        let ach_count = achievement_count(rng, cfg, pct);
        let multiplayer = chance(rng, cfg.multiplayer_fraction);
        out.game_indices.push(out.products.len() as u32);
        out.products.push(Game {
            app_id: steam_model::AppId(max_app + 10 + (i as u32) * 10),
            name: format!("New Game {i:04}"),
            app_type: AppType::Game,
            genres,
            price_cents: pick_price(rng, genres),
            multiplayer,
            release_date: SimTime::from_ymd(2014, 1 + (i % 9) as u32, 1 + (i % 28) as u32),
            metacritic: None,
            achievements: achievements_for(rng, genres, ach_count),
        });
        // New releases enter mid-popularity.
        let zipf = 1.0 / (((i % 500) + 30) as f64).powf(cfg.popularity_zipf);
        out.popularity.push(zipf);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CatalogModel {
        generate_catalog(&SynthConfig::small(7), 1)
    }

    #[test]
    fn catalog_size_and_sorting() {
        let m = model();
        assert_eq!(m.products.len(), 6_156);
        for w in m.products.windows(2) {
            assert!(w[0].app_id < w[1].app_id);
        }
        assert_eq!(m.popularity.len(), m.game_indices.len());
    }

    #[test]
    fn game_fraction_near_config() {
        let m = model();
        let frac = m.game_indices.len() as f64 / m.products.len() as f64;
        assert!((frac - 0.39).abs() < 0.03, "game fraction = {frac}");
        // The paper's collector owned 2,148 games ≈ 90% of games available.
        let n_games = m.game_indices.len();
        assert!((2_000..2_800).contains(&n_games), "n_games = {n_games}");
    }

    #[test]
    fn action_share_matches_paper() {
        let m = model();
        let action = m
            .game_indices
            .iter()
            .filter(|&&i| m.products[i as usize].genres.contains(Genre::Action))
            .count() as f64
            / m.game_indices.len() as f64;
        assert!((action - 0.381).abs() < 0.05, "action share = {action}");
    }

    #[test]
    fn multiplayer_share_matches_paper() {
        let m = model();
        let mp = m
            .game_indices
            .iter()
            .filter(|&&i| m.products[i as usize].multiplayer)
            .count() as f64
            / m.game_indices.len() as f64;
        assert!((mp - 0.487).abs() < 0.05, "multiplayer share = {mp}");
    }

    #[test]
    fn achievement_stats_match_paper() {
        let m = model();
        let counts: Vec<u32> = m
            .game_indices
            .iter()
            .map(|&i| m.products[i as usize].achievement_count() as u32)
            .collect();
        let with: Vec<u32> = counts.iter().copied().filter(|&c| c > 0).collect();
        let zero_rate = 1.0 - with.len() as f64 / counts.len() as f64;
        assert!((zero_rate - 0.25).abs() < 0.06, "zero rate = {zero_rate}");

        let mut sorted = with.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        assert!((15..=35).contains(&median), "median = {median}");
        let mean: f64 = with.iter().map(|&c| f64::from(c)).sum::<f64>() / with.len() as f64;
        assert!((22.0..50.0).contains(&mean), "mean = {mean}");
        let max = *sorted.last().unwrap();
        assert!(max <= 1_650, "max = {max}");
    }

    #[test]
    fn adventure_completes_more_than_strategy() {
        let m = model();
        let mean_for = |genre: Genre| {
            let vals: Vec<f64> = m
                .game_indices
                .iter()
                .map(|&i| &m.products[i as usize])
                .filter(|g| {
                    g.genres.contains(genre)
                        && (genre == Genre::Adventure || !g.genres.contains(Genre::Adventure))
                })
                .filter_map(|g| g.mean_completion_pct())
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        let adventure = mean_for(Genre::Adventure);
        let strategy = mean_for(Genre::Strategy);
        assert!(
            adventure > strategy + 2.0,
            "adventure {adventure:.1}% vs strategy {strategy:.1}%"
        );
    }

    #[test]
    fn prices_are_point_values() {
        let m = model();
        let valid: std::collections::HashSet<u32> =
            PRICE_POINTS.iter().map(|(c, _)| *c).chain([0]).collect();
        for &gi in &m.game_indices {
            assert!(valid.contains(&m.products[gi as usize].price_cents));
        }
        // Free-to-play games are free.
        for &gi in &m.game_indices {
            let g = &m.products[gi as usize];
            if g.genres.contains(Genre::FreeToPlay) {
                assert_eq!(g.price_cents, 0);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = SynthConfig::small(42);
        let a = generate_catalog(&cfg, 1);
        let b = generate_catalog(&cfg, 1);
        assert_eq!(a.products, b.products);
        assert_eq!(a.popularity, b.popularity);
    }

    #[test]
    fn jobs_invariant() {
        let cfg = SynthConfig::small(42);
        let serial = generate_catalog(&cfg, 1);
        let parallel = generate_catalog(&cfg, 4);
        assert_eq!(serial.products, parallel.products);
        assert_eq!(serial.game_indices, parallel.game_indices);
        assert_eq!(serial.popularity, parallel.popularity);
    }

    #[test]
    fn popularity_positive_and_skewed() {
        let m = model();
        assert!(m.popularity.iter().all(|&p| p > 0.0));
        let total: f64 = m.popularity.iter().sum();
        let mut sorted = m.popularity.clone();
        sorted.sort_by(|a, b| b.total_cmp(a));
        let top20: f64 = sorted[..sorted.len() / 5].iter().sum();
        assert!(top20 / total > 0.5, "popularity should concentrate: {}", top20 / total);
    }
}
