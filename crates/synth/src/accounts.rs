//! Account generation: ID-space layout, creation-time growth curve,
//! self-reported locations, and the latent per-user state that couples the
//! behavioral dimensions.

use rand::Rng;
use steam_model::{Account, CountryCode, SimTime, SteamId, Visibility};
use steam_par::run_chunks;

use crate::config::SynthConfig;
use crate::par::USERS_CHUNK;
use crate::samplers::{categorical, chance, normal};
use crate::seed::stage_rng;

/// Behavioral archetypes (§5 and §6.1's extreme behaviors).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Archetype {
    /// Ordinary player: everything drawn from the calibrated distributions.
    Typical,
    /// Acquires huge libraries and plays almost none of it (§5).
    Collector,
    /// Leaves games running; two-week playtime near the 336-hour cap (§6.1).
    IdleFarmer,
}

/// Latent per-user state used by downstream stages. Kept separate from the
/// accounts so the snapshot can take ownership of the account vector while
/// the world keeps the latents — no second copy of the population.
#[derive(Clone, Debug)]
pub struct Latents {
    /// Latent engagement per user; log-scale factor shared by friendship,
    /// library, and playtime couplings (this is what makes friends/games/
    /// playtime mutually correlated, §7).
    pub engagement: Vec<f64>,
    pub archetype: Vec<Archetype>,
    /// True country of every user — the profile only *reports* it for
    /// `country_report_rate` of them, but friendship locality (§4.1) acts on
    /// where people actually live.
    pub true_country: Vec<CountryCode>,
    /// True city (index within the country) of every user.
    pub true_city: Vec<u16>,
    /// Idiosyncratic (standard-normal) propensity latents. These are drawn
    /// once so that friendship matching can happen on the *composite* of a
    /// user's behavioral dimensions — §7's homophily is strong in every
    /// dimension even though the dimensions are only weakly correlated with
    /// each other, which requires friends to be matched on all of them, not
    /// on a single scalar.
    pub z_degree: Vec<f64>,
    pub z_library: Vec<f64>,
    pub z_playtime: Vec<f64>,
}

/// The population plus latent state used by downstream stages.
#[derive(Clone, Debug)]
pub struct Population {
    pub accounts: Vec<Account>,
    /// Size of the scanned ID space (valid + invalid IDs).
    pub scanned_id_space: u64,
    pub latents: Latents,
}

/// Year the Steam service launched / the first accounts appear.
pub const FIRST_YEAR: i32 = 2003;
/// Nominal end of the first crawl (the paper: March 2013 census).
pub const SNAPSHOT_YEAR: i32 = 2013;

/// Exponential user-growth rate per year (Becker et al. observed
/// exponential growth; this reproduces Figure 1's convex user curve).
const GROWTH_RATE: f64 = 0.38;

/// Per-year share of account creations for `FIRST_YEAR..=SNAPSHOT_YEAR`.
fn year_shares() -> Vec<f64> {
    let n = (SNAPSHOT_YEAR - FIRST_YEAR + 1) as usize;
    let raw: Vec<f64> = (0..n).map(|i| (GROWTH_RATE * i as f64).exp()).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|x| x / total).collect()
}

/// Lays out `n_users` valid IDs across a sparse ID space with the density
/// profile of §3.1 (low density early, high density late).
fn id_layout(cfg: &SynthConfig) -> (Vec<u64>, u64) {
    let n = cfg.n_users as f64;
    let overall = cfg.early_density * cfg.density_break
        + cfg.late_density * (1.0 - cfg.density_break);
    let scanned = (n / overall).ceil() as u64;
    let break_at = (scanned as f64 * cfg.density_break) as u64;

    let mut ids = Vec::with_capacity(cfg.n_users);
    // Fractional stepping fills each segment at its density exactly.
    let mut pos = 0.0f64;
    while (pos as u64) < break_at && ids.len() < cfg.n_users {
        ids.push(pos as u64);
        pos += 1.0 / cfg.early_density;
    }
    let mut pos = break_at as f64;
    while ids.len() < cfg.n_users {
        ids.push(pos as u64);
        pos += 1.0 / cfg.late_density;
    }
    // The scanned space ends exactly at the last valid ID + 1: the paper's
    // crawl ran "until the API returned accounts created just seconds before
    // the moment of collection", i.e. it ended on a valid account.
    let scanned = ids.last().map_or(scanned, |&last| last + 1);
    (ids, scanned)
}

/// Creation instant of every user, in ID order. RNG-free: timestamps ascend
/// with ID (sequential assignment, §3.1), users spread uniformly within
/// their year, and the final (crawl) year only runs through mid-March.
fn creation_times(cfg: &SynthConfig) -> Vec<SimTime> {
    let shares = year_shares();
    let mut out = Vec::with_capacity(cfg.n_users);
    let mut year_cursor = 0usize;
    let mut year_budget = shares[0] * cfg.n_users as f64;
    let mut year_start_index = 0usize;
    for i in 0..cfg.n_users {
        while (i as f64) > year_budget && year_cursor + 1 < shares.len() {
            year_cursor += 1;
            year_budget += shares[year_cursor] * cfg.n_users as f64;
            year_start_index = i;
        }
        let year = FIRST_YEAR + year_cursor as i32;
        // Position within the year, in creation order.
        let year_span = (year_budget - year_start_index as f64).max(1.0);
        let frac = ((i - year_start_index) as f64 / year_span).clamp(0.0, 0.999);
        // The crawl ended March 18, 2013; the final year holds only its
        // first ~76 days.
        let days_in_year = if year >= SNAPSHOT_YEAR { 75.0 } else { 364.0 };
        let day_of_year = (frac * days_in_year) as i64;
        out.push(SimTime::from_ymd(year, 1, 1) + day_of_year * steam_model::time::DAY);
    }
    out
}

/// One chunk's worth of users; merged in chunk order.
struct Chunk {
    accounts: Vec<Account>,
    engagement: Vec<f64>,
    archetype: Vec<Archetype>,
    true_country: Vec<CountryCode>,
    true_city: Vec<u16>,
    z_degree: Vec<f64>,
    z_library: Vec<f64>,
    z_playtime: Vec<f64>,
}

/// Generates the population. Accounts come out sorted by Steam ID with
/// creation times increasing (IDs are assigned sequentially, §3.1). Each
/// `USERS_CHUNK`-sized chunk of users draws from its own `accounts` seed
/// stream, so the result is identical for every `jobs`.
pub fn generate_population(cfg: &SynthConfig, jobs: usize) -> Population {
    let (id_indices, scanned_id_space) = id_layout(cfg);
    let created = creation_times(cfg);
    let country_shares: Vec<f64> = CountryCode::TABLE1_SHARES
        .iter()
        .map(|(_, s)| *s)
        .chain([CountryCode::OTHER_SHARE])
        .collect();

    let chunks = run_chunks(jobs, cfg.n_users, USERS_CHUNK, |c, range| {
        let mut rng = stage_rng(cfg.seed, "accounts", c as u64);
        let mut out = Chunk {
            accounts: Vec::with_capacity(range.len()),
            engagement: Vec::with_capacity(range.len()),
            archetype: Vec::with_capacity(range.len()),
            true_country: Vec::with_capacity(range.len()),
            true_city: Vec::with_capacity(range.len()),
            z_degree: Vec::with_capacity(range.len()),
            z_library: Vec::with_capacity(range.len()),
            z_playtime: Vec::with_capacity(range.len()),
        };
        for i in range {
            // Everyone lives somewhere; Table 1's shares are the residence
            // marginals. Whether a profile *reports* it is a separate flip.
            let resident = {
                let c = categorical(&mut rng, &country_shares);
                if c < CountryCode::NAMED {
                    CountryCode::TABLE1_SHARES[c].0
                } else {
                    // Spread the "other" mass over 226 countries, Zipf-ish.
                    let o = (rng.gen::<f64>().powf(2.0)
                        * f64::from(CountryCode::OTHER_COUNT)) as u8;
                    CountryCode::Other(o.min(CountryCode::OTHER_COUNT - 1))
                }
            };
            let home_city = rng.gen_range(0..cfg.cities_per_country);
            let country = chance(&mut rng, cfg.country_report_rate).then_some(resident);
            // City reporting implies country reporting.
            let city = (country.is_some()
                && chance(&mut rng, cfg.city_report_rate / cfg.country_report_rate))
            .then_some(home_city);

            let e = (0.9 * normal(&mut rng)).exp();
            let arch = if chance(&mut rng, cfg.collector_rate) {
                Archetype::Collector
            } else if chance(&mut rng, cfg.idle_farmer_rate) {
                Archetype::IdleFarmer
            } else {
                Archetype::Typical
            };

            // Steam level loosely follows engagement (levels come from
            // playing and trading); it feeds the friend cap (+5 slots per
            // level). Most users never level up, so the default 250-friend
            // cap stays the dominant cliff in Figure 2.
            let level = if chance(&mut rng, 0.18) { ((e * 2.5) as u16).min(60) } else { 0 };

            out.accounts.push(Account {
                id: SteamId::from_index(id_indices[i]),
                created_at: created[i],
                visibility: if chance(&mut rng, cfg.private_rate) {
                    Visibility::Private
                } else {
                    Visibility::Public
                },
                country,
                city,
                level,
                facebook_linked: chance(&mut rng, cfg.facebook_rate),
            });
            out.engagement.push(e);
            out.archetype.push(arch);
            out.true_country.push(resident);
            out.true_city.push(home_city);
            out.z_degree.push(normal(&mut rng));
            out.z_library.push(normal(&mut rng));
            out.z_playtime.push(normal(&mut rng));
        }
        out
    });

    let mut accounts = Vec::with_capacity(cfg.n_users);
    let mut latents = Latents {
        engagement: Vec::with_capacity(cfg.n_users),
        archetype: Vec::with_capacity(cfg.n_users),
        true_country: Vec::with_capacity(cfg.n_users),
        true_city: Vec::with_capacity(cfg.n_users),
        z_degree: Vec::with_capacity(cfg.n_users),
        z_library: Vec::with_capacity(cfg.n_users),
        z_playtime: Vec::with_capacity(cfg.n_users),
    };
    for mut c in chunks {
        accounts.append(&mut c.accounts);
        latents.engagement.append(&mut c.engagement);
        latents.archetype.append(&mut c.archetype);
        latents.true_country.append(&mut c.true_country);
        latents.true_city.append(&mut c.true_city);
        latents.z_degree.append(&mut c.z_degree);
        latents.z_library.append(&mut c.z_library);
        latents.z_playtime.append(&mut c.z_playtime);
    }

    Population { accounts, scanned_id_space, latents }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn population() -> (Population, SynthConfig) {
        let cfg = SynthConfig::small(3);
        (generate_population(&cfg, 1), cfg)
    }

    #[test]
    fn accounts_sorted_and_counted() {
        let (p, cfg) = population();
        assert_eq!(p.accounts.len(), cfg.n_users);
        for w in p.accounts.windows(2) {
            assert!(w[0].id < w[1].id, "ids must ascend");
            assert!(w[0].created_at <= w[1].created_at, "creation must ascend");
        }
        assert_eq!(p.latents.engagement.len(), cfg.n_users);
        assert_eq!(p.latents.archetype.len(), cfg.n_users);
    }

    #[test]
    fn id_space_density_profile() {
        let (p, cfg) = population();
        assert!(p.scanned_id_space > cfg.n_users as u64);
        let break_at = (p.scanned_id_space as f64 * cfg.density_break) as u64;
        let early =
            p.accounts.iter().filter(|a| a.id.index() < break_at).count() as f64;
        let late = cfg.n_users as f64 - early;
        let early_density = early / break_at as f64;
        let late_density = late / (p.scanned_id_space - break_at) as f64;
        assert!((early_density - cfg.early_density).abs() < 0.05, "{early_density}");
        assert!((late_density - cfg.late_density).abs() < 0.05, "{late_density}");
    }

    #[test]
    fn growth_is_convex() {
        let (p, _) = population();
        let mut per_year = std::collections::BTreeMap::new();
        for a in &p.accounts {
            *per_year.entry(a.created_at.year()).or_insert(0u64) += 1;
        }
        // Later years must dominate earlier ones.
        assert!(per_year[&2012] > per_year[&2008]);
        assert!(per_year[&2008] > per_year[&2004]);
        // Monotone non-decreasing yearly creations.
        let counts: Vec<u64> = per_year.values().copied().collect();
        for w in counts.windows(2) {
            assert!(w[1] >= w[0], "growth should not shrink: {per_year:?}");
        }
    }

    #[test]
    fn location_report_rates() {
        let (p, cfg) = population();
        let n = p.accounts.len() as f64;
        let with_country = p.accounts.iter().filter(|a| a.country.is_some()).count() as f64;
        let with_city = p.accounts.iter().filter(|a| a.city.is_some()).count() as f64;
        assert!((with_country / n - cfg.country_report_rate).abs() < 0.01);
        assert!((with_city / n - cfg.city_report_rate).abs() < 0.01);
        // City reporters always report a country.
        assert!(p.accounts.iter().all(|a| a.city.is_none() || a.country.is_some()));
    }

    #[test]
    fn us_is_top_reported_country() {
        let (p, _) = population();
        let mut counts = std::collections::HashMap::new();
        for a in p.accounts.iter().filter_map(|a| a.country) {
            *counts.entry(a).or_insert(0u32) += 1;
        }
        let (&top, _) = counts.iter().max_by_key(|(_, &c)| c).unwrap();
        assert_eq!(top, CountryCode::UnitedStates);
    }

    #[test]
    fn archetypes_are_rare() {
        let (p, _) = population();
        let collectors =
            p.latents.archetype.iter().filter(|a| **a == Archetype::Collector).count();
        let farmers =
            p.latents.archetype.iter().filter(|a| **a == Archetype::IdleFarmer).count();
        assert!(collectors < 40, "{collectors} collectors in 30k users");
        assert!(farmers < 60, "{farmers} idle farmers in 30k users");
    }

    #[test]
    fn deterministic() {
        let cfg = SynthConfig::small(5);
        let a = generate_population(&cfg, 1);
        let b = generate_population(&cfg, 1);
        assert_eq!(a.latents.engagement, b.latents.engagement);
        assert_eq!(a.accounts.len(), b.accounts.len());
        assert!(a
            .accounts
            .iter()
            .zip(&b.accounts)
            .all(|(x, y)| x.id == y.id && x.country == y.country));
    }

    #[test]
    fn jobs_invariant() {
        let cfg = SynthConfig::small(5);
        let serial = generate_population(&cfg, 1);
        let parallel = generate_population(&cfg, 4);
        assert_eq!(serial.accounts, parallel.accounts);
        assert_eq!(serial.latents.engagement, parallel.latents.engagement);
        assert_eq!(serial.latents.z_playtime, parallel.latents.z_playtime);
    }
}
