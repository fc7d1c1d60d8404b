//! Library and playtime generation.
//!
//! Calibration targets:
//! * game ownership long-tailed: 4 / 10 / 21 / 39 / 115 at the standard
//!   percentiles among owners; ~90% of owners below 20 games (§4.2);
//! * played-vs-owned gap: 80th percentiles 10 owned vs 7 played (Figure 4),
//!   with genre-specific unplayed shares (Action ≈ 41%, RPG ≈ 24%, Figure 5);
//! * collectors: libraries of 500–2,148 games, almost none played, producing
//!   the ownership uptick at 1,268–1,290 games and the market-value bump at
//!   $14.7k–15.3k (Figures 4 and 8);
//! * total playtime lognormal-ish (median 34 h, 99th ≈ 2,660 h among
//!   players); two-week playtime truncated-power-law with ~80% zeros and a
//!   hard 336 h ceiling (Figures 6–7);
//! * multiplayer games draw 57.7% of total and 67.7% of two-week playtime
//!   despite being 48.7% of the catalog (Figure 10).
//!
//! Users are independent given the shared popularity table, so the whole
//! stage fans out over fixed user chunks of the `ownership` seed stream;
//! each chunk carries its own dedupe scratch buffer.

use rand::rngs::StdRng;
use rand::Rng;
use steam_model::{Genre, OwnedGame, MAX_TWO_WEEK_MINUTES};
use steam_par::run_chunks;

use crate::accounts::{Archetype, Population};
use crate::catalog::CatalogModel;
use crate::config::SynthConfig;
use crate::par::USERS_CHUNK;
use crate::samplers::{chance, lognormal, pareto, sigmoid, truncated_power_law_bounded, AliasTable};
use crate::seed::stage_rng;

/// Per-copy probability that an owned game of this genre is never launched
/// (primary-genre approximation of Figure 5's shares).
fn unplayed_prob(genres: steam_model::GenreSet) -> f64 {
    if genres.contains(Genre::Action) {
        0.40
    } else if genres.contains(Genre::Indie) {
        0.32
    } else if genres.contains(Genre::Strategy) {
        0.29
    } else if genres.contains(Genre::Rpg) {
        0.24
    } else {
        0.30
    }
}

/// Draws a library size for a typical owner, using the user's stored
/// library propensity (which also feeds the friendship matching key).
fn library_size(
    rng: &mut StdRng,
    cfg: &SynthConfig,
    engagement: f64,
    z_library: f64,
    max: usize,
) -> usize {
    let coupling = cfg.library_engagement_coupling * engagement.ln();
    // The organic Pareto tail is capped well below collector territory —
    // the paper's manual validation found the extreme libraries belong to
    // collectors who play almost nothing, not to whales who play a lot.
    let raw = if chance(rng, cfg.library_tail_rate) {
        pareto(rng, cfg.library_tail_xmin, cfg.library_tail_alpha).min(800.0)
    } else {
        (cfg.library_mu + coupling + cfg.library_sigma * z_library).exp()
    };
    (raw.round() as usize).clamp(1, max)
}

/// Draws a collector's library size: the bulk in the hundreds, a cluster at
/// 1,268–1,290 (the invite-only collector-group thresholds the paper
/// hypothesizes), and a few all-but-complete collections.
fn collector_size(rng: &mut StdRng, n_games: usize) -> usize {
    let max = ((n_games as f64) * 0.903) as usize;
    let x: f64 = rng.gen();
    let size = if x < 0.50 {
        pareto(rng, 500.0, 1.8) as usize
    } else if x < 0.85 {
        rng.gen_range(1_268..=1_290)
    } else {
        rng.gen_range(max.saturating_sub(300)..=max)
    };
    size.clamp(1, max.max(1))
}

/// Generates one user's library. `picked` is a reusable all-false scratch
/// buffer of `n_games` flags; it is restored to all-false before returning.
#[allow(clippy::too_many_arguments)]
fn generate_library(
    rng: &mut StdRng,
    cfg: &SynthConfig,
    pop: &Population,
    catalog: &CatalogModel,
    table: &AliasTable,
    picked: &mut [bool],
    owner_bias: f64,
    u: usize,
) -> Vec<OwnedGame> {
    let n_games = catalog.game_indices.len();
    let lat = &pop.latents;
    let arch = lat.archetype[u];
    // The gate runs on the same latent that sets library size, so the
    // value-zero users sit at the bottom of the value-propensity scale
    // instead of being scattered across it.
    let lib_latent = cfg.library_engagement_coupling * lat.engagement[u].ln()
        + cfg.library_sigma * lat.z_library[u];
    let p_owner = sigmoid(owner_bias + 1.2 * lib_latent);
    let is_owner = arch != Archetype::Typical || chance(rng, p_owner);
    if !is_owner {
        return Vec::new();
    }
    let engagement = lat.engagement[u];
    let size = match arch {
        Archetype::Collector => collector_size(rng, n_games),
        _ => library_size(rng, cfg, engagement, lat.z_library[u], (n_games * 9) / 10),
    };

    // --- pick games ------------------------------------------------------
    let mut games: Vec<u32> = Vec::with_capacity(size);
    if size * 3 >= n_games {
        // Huge libraries: sample by inclusion instead of rejection.
        let p = size as f64 / n_games as f64;
        for gi in 0..n_games {
            if chance(rng, p) {
                games.push(gi as u32);
            }
        }
    } else {
        let mut attempts = 0usize;
        while games.len() < size && attempts < size * 20 {
            attempts += 1;
            let gi = table.sample(rng);
            if !picked[gi] {
                picked[gi] = true;
                games.push(gi as u32);
            }
        }
        for &gi in &games {
            picked[gi as usize] = false;
        }
    }
    games.sort_unstable();

    // --- played / unplayed -------------------------------------------------
    // A per-user backlog factor: some users play almost everything they
    // own, some almost nothing. A slice of collectors are pure
    // collectors who never launch anything — the paper manually verified
    // 29 accounts with ≥500 games and zero playtime.
    let backlog = lognormal(rng, 0.0, 0.45);
    let pure_collector = arch == Archetype::Collector && chance(rng, 0.40);
    let played: Vec<bool> = games
        .iter()
        .map(|&gi| {
            let g = &catalog.products[catalog.game_indices[gi as usize] as usize];
            let mut p_unplayed = unplayed_prob(g.genres) * backlog;
            if arch == Archetype::Collector {
                p_unplayed = if pure_collector { 1.0 } else { 0.97 };
            }
            !chance(rng, p_unplayed.min(1.0))
        })
        .collect();

    // --- total playtime -----------------------------------------------------
    let n_played = played.iter().filter(|&&p| p).count();
    let mut lib: Vec<OwnedGame> = Vec::with_capacity(games.len());
    let mut weights: Vec<f64> = Vec::with_capacity(games.len());
    let mut total_minutes = 0f64;
    if n_played > 0 {
        let coupling = cfg.playtime_engagement_coupling * engagement.ln();
        // The stored playtime propensity replaces the lognormal's inner
        // normal draw, tying total playtime to the matching key.
        let z = lat.z_playtime[u];
        total_minutes = if chance(rng, cfg.playtime_heavy_rate) {
            (cfg.playtime_heavy_mu + coupling + cfg.playtime_heavy_sigma * z).exp()
        } else {
            (cfg.playtime_casual_mu + coupling + cfg.playtime_casual_sigma * z).exp()
        };
        if arch == Archetype::Collector {
            total_minutes = total_minutes.min(3_000.0);
        }
        // Cap at 16 h/day since account creation — nobody can have played
        // longer than their account has existed.
        let age_days = (steam_model::SimTime::from_ymd(2013, 11, 5)
            .days_since(pop.accounts[u].created_at))
        .max(30) as f64;
        total_minutes = total_minutes.min(age_days * 16.0 * 60.0);
    }

    // Allocation weights: popularity × multiplayer boost × noise.
    let mut weight_sum = 0.0;
    for (&gi, &p) in games.iter().zip(&played) {
        let w = if p {
            let g = &catalog.products[catalog.game_indices[gi as usize] as usize];
            let mp = if g.multiplayer { cfg.multiplayer_boost } else { 1.0 };
            let noise = -(rng.gen::<f64>().max(1e-12)).ln(); // Exp(1)
            catalog.popularity[gi as usize] * mp * noise
        } else {
            0.0
        };
        weights.push(w);
        weight_sum += w;
    }

    for ((&gi, &p), &w) in games.iter().zip(&played).zip(&weights) {
        let minutes = if p && weight_sum > 0.0 {
            ((total_minutes * w / weight_sum).round() as u32).max(1)
        } else {
            0
        };
        lib.push(OwnedGame {
            app_id: catalog.products[catalog.game_indices[gi as usize] as usize].app_id,
            playtime_forever_min: minutes,
            playtime_2weeks_min: 0,
        });
    }

    // --- two-week window ------------------------------------------------------
    let farmer = arch == Archetype::IdleFarmer;
    let active = farmer
        || (n_played > 0
            && chance(rng, cfg.active_two_week_rate * engagement.sqrt().min(2.2)));
    if active {
        let two_week_total = if farmer {
            rng.gen_range((MAX_TWO_WEEK_MINUTES * 4 / 5)..=MAX_TWO_WEEK_MINUTES) as f64
        } else {
            truncated_power_law_bounded(
                rng,
                30.0,
                f64::from(MAX_TWO_WEEK_MINUTES),
                cfg.two_week_alpha,
                cfg.two_week_scale,
            )
        };
        // Spread over the played games, biased to the most-played ones;
        // each game's recent playtime also adds to its lifetime total.
        if weight_sum > 0.0 {
            // Recent play tilts further toward multiplayer titles
            // (Figure 10: 67.7% of two-week vs 57.7% of total playtime).
            let weights2: Vec<f64> = games
                .iter()
                .zip(&weights)
                .map(|(&gi, &w)| {
                    let g = &catalog.products[catalog.game_indices[gi as usize] as usize];
                    if g.multiplayer {
                        w * 1.9
                    } else {
                        w
                    }
                })
                .collect();
            let weight2_sum: f64 = weights2.iter().sum();
            for (entry, &w) in lib.iter_mut().zip(&weights2) {
                let recent = (two_week_total * w / weight2_sum).round() as u32;
                let recent = recent.min(MAX_TWO_WEEK_MINUTES);
                if recent > 0 {
                    entry.playtime_2weeks_min = recent;
                    entry.playtime_forever_min =
                        entry.playtime_forever_min.max(recent).saturating_add(recent / 4);
                }
            }
        } else if farmer && !lib.is_empty() {
            // A farmer with zero played games idles their first title.
            let recent = two_week_total.round() as u32;
            lib[0].playtime_2weeks_min = recent;
            lib[0].playtime_forever_min = lib[0].playtime_forever_min.max(recent);
        }
    }
    lib
}

/// Generates every user's library with playtimes. Returns per-user
/// `Vec<OwnedGame>` sorted by app id, parallel to `pop.accounts`.
pub fn generate_ownership(
    cfg: &SynthConfig,
    pop: &Population,
    catalog: &CatalogModel,
    jobs: usize,
) -> Vec<Vec<OwnedGame>> {
    let n_games = catalog.game_indices.len();
    let table = AliasTable::new(&catalog.popularity);

    // Owning games correlates with engagement: the paper's strong homophily
    // in market value (§7, ρ=0.77) requires that who owns anything at all is
    // itself socially structured, not a uniform coin flip.
    let owner_bias = (cfg.owner_rate / (1.0 - cfg.owner_rate)).ln();
    let chunks = run_chunks(jobs, pop.accounts.len(), USERS_CHUNK, |c, range| {
        let mut rng = stage_rng(cfg.seed, "ownership", c as u64);
        let mut picked = vec![false; n_games]; // per-chunk dedupe scratch
        range
            .map(|u| {
                generate_library(&mut rng, cfg, pop, catalog, &table, &mut picked, owner_bias, u)
            })
            .collect::<Vec<_>>()
    });
    let mut out = Vec::with_capacity(pop.accounts.len());
    for mut c in chunks {
        out.append(&mut c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounts::generate_population;
    use crate::catalog::generate_catalog;

    struct World {
        pop: Population,
        libs: Vec<Vec<OwnedGame>>,
    }

    fn build() -> World {
        let cfg = SynthConfig::small(17);
        let catalog = generate_catalog(&cfg, 1);
        let pop = generate_population(&cfg, 1);
        let libs = generate_ownership(&cfg, &pop, &catalog, 1);
        World { pop, libs }
    }

    #[test]
    fn structure_is_valid() {
        let w = build();
        assert_eq!(w.libs.len(), w.pop.accounts.len());
        for lib in &w.libs {
            for pair in lib.windows(2) {
                assert!(pair[0].app_id < pair[1].app_id, "library must be sorted+deduped");
            }
            for o in lib {
                assert!(o.playtime_2weeks_min <= MAX_TWO_WEEK_MINUTES);
                assert!(o.playtime_2weeks_min <= o.playtime_forever_min);
            }
        }
    }

    #[test]
    fn owner_rate_near_config() {
        let w = build();
        let owners = w.libs.iter().filter(|l| !l.is_empty()).count() as f64;
        let rate = owners / w.libs.len() as f64;
        let cfg = SynthConfig::small(17);
        assert!((rate - cfg.owner_rate).abs() < 0.05, "owner rate = {rate}");
    }

    #[test]
    fn library_percentiles_near_paper() {
        let w = build();
        let mut sizes: Vec<usize> =
            w.libs.iter().filter(|l| !l.is_empty()).map(Vec::len).collect();
        sizes.sort_unstable();
        let p = |q: f64| sizes[((sizes.len() - 1) as f64 * q) as usize];
        // Paper: 4 / 10 / 21 / 39 / 115.
        let (p50, p80, p90, p99) = (p(0.5), p(0.8), p(0.9), p(0.99));
        assert!((2..=7).contains(&p50), "p50 = {p50}");
        assert!((7..=16).contains(&p80), "p80 = {p80}");
        assert!((14..=32).contains(&p90), "p90 = {p90}");
        assert!((60..=220).contains(&p99), "p99 = {p99}");
        // §4.2: ~90% of owners own fewer than 20 games.
        let under20 = sizes.iter().filter(|&&s| s < 20).count() as f64 / sizes.len() as f64;
        assert!((0.80..0.96).contains(&under20), "under-20 share = {under20}");
    }

    #[test]
    fn played_gap_exists() {
        let w = build();
        let mut owned = 0u64;
        let mut unplayed = 0u64;
        for lib in &w.libs {
            owned += lib.len() as u64;
            unplayed += lib.iter().filter(|o| !o.played()).count() as u64;
        }
        let share = unplayed as f64 / owned as f64;
        // Figure 5: genre unplayed shares range 24–41%.
        assert!((0.18..0.45).contains(&share), "unplayed share = {share}");
    }

    #[test]
    fn two_week_mostly_zero() {
        let w = build();
        let owners: Vec<&Vec<OwnedGame>> =
            w.libs.iter().filter(|l| !l.is_empty()).collect();
        let active = owners
            .iter()
            .filter(|l| l.iter().any(|o| o.playtime_2weeks_min > 0))
            .count() as f64;
        let rate = active / owners.len() as f64;
        // Figure 6: >80% of gamers idle over any two-week window.
        assert!((0.08..0.30).contains(&rate), "active rate = {rate}");
    }


    #[test]
    fn multiplayer_overrepresented_in_playtime() {
        // A single small world has roughly +/-0.08 draw spread on this
        // share, so judge the calibration on a few-seed average.
        let mut mp_total = 0u64;
        let mut total = 0u64;
        for seed in [17, 18, 19] {
            let cfg = SynthConfig::small(seed);
            let catalog = generate_catalog(&cfg, 1);
            let pop = generate_population(&cfg, 1);
            let libs = generate_ownership(&cfg, &pop, &catalog, 1);
            let index = {
                let mut m = std::collections::HashMap::new();
                for g in &catalog.products {
                    m.insert(g.app_id, g.multiplayer);
                }
                m
            };
            for lib in &libs {
                for o in lib {
                    total += u64::from(o.playtime_forever_min);
                    if index[&o.app_id] {
                        mp_total += u64::from(o.playtime_forever_min);
                    }
                }
            }
        }
        let share = mp_total as f64 / total as f64;
        // Figure 10: 57.7% of total playtime on multiplayer games (48.7% of
        // the catalog).
        assert!((0.50..0.75).contains(&share), "multiplayer share = {share}");
    }

    #[test]
    fn collectors_have_huge_unplayed_libraries() {
        // Collectors are ~1.5e-4 of users, so scan a few seeds to see some.
        let mut found = 0;
        for seed in [17, 18, 19, 20] {
            let cfg = SynthConfig::small(seed);
            let catalog = generate_catalog(&cfg, 1);
            let pop = generate_population(&cfg, 1);
            let libs = generate_ownership(&cfg, &pop, &catalog, 1);
            for (u, lib) in libs.iter().enumerate() {
                if pop.latents.archetype[u] == Archetype::Collector {
                    found += 1;
                    assert!(lib.len() >= 100, "collector library = {}", lib.len());
                    let played = lib.iter().filter(|o| o.played()).count() as f64;
                    assert!(
                        played / lib.len() as f64 <= 0.2,
                        "collector played {played} of {}",
                        lib.len()
                    );
                }
            }
        }
        // 4 seeds × 30k users × 1.5e-4 ≈ 18 expected.
        assert!(found >= 1, "no collectors in sample");
    }

    #[test]
    fn total_playtime_distribution_reasonable() {
        let w = build();
        let mut hours: Vec<f64> = w
            .libs
            .iter()
            .map(|l| l.iter().map(|o| f64::from(o.playtime_forever_min)).sum::<f64>() / 60.0)
            .filter(|&h| h > 0.0)
            .collect();
        hours.sort_by(f64::total_cmp);
        let p = |q: f64| hours[((hours.len() - 1) as f64 * q) as usize];
        // Paper: 34 h median, 336 h at p80, 2,660 h at p99 (among players).
        let (p50, p80, p99) = (p(0.5), p(0.8), p(0.99));
        assert!((10.0..90.0).contains(&p50), "p50 = {p50}");
        assert!((120.0..700.0).contains(&p80), "p80 = {p80}");
        assert!((1_200.0..6_000.0).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn deterministic() {
        let cfg = SynthConfig::small(19);
        let run = || {
            let catalog = generate_catalog(&cfg, 1);
            let pop = generate_population(&cfg, 1);
            generate_ownership(&cfg, &pop, &catalog, 1)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn jobs_invariant() {
        let cfg = SynthConfig::small(19);
        let catalog = generate_catalog(&cfg, 1);
        let pop = generate_population(&cfg, 1);
        let serial = generate_ownership(&cfg, &pop, &catalog, 1);
        let parallel = generate_ownership(&cfg, &pop, &catalog, 4);
        assert_eq!(serial, parallel);
    }
}
