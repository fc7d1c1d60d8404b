//! Friendship-graph growth: heavy-tailed target degrees, engagement
//! homophily, country/city locality, Steam's friend caps, and creation
//! timestamps.
//!
//! Calibration targets:
//! * mean degree ≈ 3.6 over all users, long-tailed per-user distribution
//!   (Table 3: 4 / 15 / 29 / 50 / 122 at the 50/80/90/95/99th percentiles
//!   among users with friends);
//! * a visible pile-up just below the 250 and 300 caps (§4.1);
//! * strong degree homophily (§7: ρ = 0.62 between a user's degree and the
//!   mean degree of their friends);
//! * ≈ 30% of friendships international among country-reporting pairs,
//!   ≈ 80% inter-city among city-reporting pairs (§4.1);
//! * friendships forming faster than users join (Figure 1).
//!
//! Parallel structure: target degrees and per-node stub emission fan out
//! over fixed user chunks (streams `friends.targets` / `friends.stubs`);
//! the sort+pairing passes are RNG-free and stay sequential; timestamps fan
//! out over fixed edge chunks of the sorted pair list (`friends.times`).

use std::collections::HashSet;

use rand::Rng;
use steam_model::{Friendship, SimTime};
use steam_par::run_chunks;

use crate::accounts::Population;
use crate::config::SynthConfig;
use crate::par::{EDGES_CHUNK, USERS_CHUNK};
use crate::samplers::{chance, pareto};
use crate::seed::stage_rng;

#[derive(Clone, Copy)]
struct Stub {
    noisy_key: f64,
    user: u32,
}

/// One chunk's stub emissions, split by locality layer. Merged in chunk
/// order, which (chunks being contiguous user ranges) equals user order.
struct StubChunk {
    global: Vec<Stub>,
    by_country: Vec<(u32, Stub)>,
    by_city: Vec<((u32, u16), Stub)>,
}

/// Generates the undirected friendship edge list (canonical `a < b`, deduped).
pub fn generate_friendships(
    cfg: &SynthConfig,
    pop: &Population,
    jobs: usize,
) -> Vec<Friendship> {
    let n = pop.accounts.len();
    let lat = &pop.latents;

    // --- Target degrees -----------------------------------------------------
    let caps: Vec<u32> = pop.accounts.iter().map(|a| a.friend_cap()).collect();
    // Having friends at all correlates with engagement (like owning games);
    // this keeps homophily visible through the zero-inflated attributes.
    let social_bias = (cfg.social_rate / (1.0 - cfg.social_rate)).ln();
    let target_chunks = run_chunks(jobs, n, USERS_CHUNK, |c, range| {
        let mut rng = stage_rng(cfg.seed, "friends.targets", c as u64);
        let mut out = Vec::with_capacity(range.len());
        for u in range {
            // Gate on the degree latent itself (see the ownership gate note).
            let deg_latent =
                1.0 * lat.engagement[u].ln() + cfg.degree_sigma * lat.z_degree[u];
            let p_social = crate::samplers::sigmoid(social_bias + 0.9 * deg_latent);
            if !chance(&mut rng, p_social) {
                out.push(0u32);
                continue;
            }
            let coupling = 1.0 * lat.engagement[u].ln();
            let mut t = if chance(&mut rng, cfg.degree_tail_rate) {
                pareto(&mut rng, cfg.degree_tail_xmin, cfg.degree_tail_alpha)
            } else {
                // Uses the stored degree propensity so the matching key below
                // can see it.
                (cfg.degree_mu + coupling + cfg.degree_sigma * lat.z_degree[u]).exp()
            };
            if t < 1.0 {
                t = 1.0;
            }
            // The cap produces the cliff at 250/300 the paper observes.
            out.push((t.round() as u32).min(caps[u]));
        }
        out
    });
    let mut target = Vec::with_capacity(n);
    for mut c in target_chunks {
        target.append(&mut c);
    }

    // --- Homophily by noisy stub matching ------------------------------------
    // Each social user emits `target` stubs carrying their composite
    // behavioral key plus per-stub noise; stubs sorted by noisy key are
    // paired with near neighbors. Pairing adjacency in key space makes
    // friends similar along every behavioral dimension at once (the §7
    // homophily ladder, including the *positive* degree assortativity that
    // initiator/acceptor schemes invert), and realized degrees track targets
    // so the cap cliffs at 250/300 survive.
    if target.iter().filter(|&&t| t > 0).count() < 2 {
        return Vec::new();
    }
    let keys: Vec<f64> = composite_keys(cfg, pop);

    // Locality is layered over the key matching: a stub is city-local,
    // country-local, or global; each layer is matched separately so a
    // country-local stub can only pair within its country.
    //
    // Stub noise: how tightly pairs match in key space. Smaller = stronger
    // homophily.
    let tau = cfg.matching_noise;
    let stub_chunks = run_chunks(jobs, n, USERS_CHUNK, |c, range| {
        let mut rng = stage_rng(cfg.seed, "friends.stubs", c as u64);
        let mut out = StubChunk {
            global: Vec::new(),
            by_country: Vec::new(),
            by_city: Vec::new(),
        };
        for u in range {
            let t = target[u];
            if t == 0 {
                continue;
            }
            for _ in 0..t {
                let stub = Stub {
                    noisy_key: keys[u] + tau * crate::samplers::normal(&mut rng),
                    user: u as u32,
                };
                if chance(&mut rng, cfg.same_country_bias) {
                    let c = lat.true_country[u].dense_index() as u32;
                    if chance(&mut rng, cfg.same_city_bias) {
                        out.by_city.push(((c, lat.true_city[u]), stub));
                    } else {
                        out.by_country.push((c, stub));
                    }
                } else {
                    out.global.push(stub);
                }
            }
        }
        out
    });

    let n_countries = steam_model::CountryCode::universe_size();
    let mut global: Vec<Stub> = Vec::new();
    let mut by_country: Vec<Vec<Stub>> = vec![Vec::new(); n_countries];
    let mut by_city: std::collections::HashMap<(u32, u16), Vec<Stub>> =
        std::collections::HashMap::new();
    for mut chunk in stub_chunks {
        global.append(&mut chunk.global);
        for (c, stub) in chunk.by_country {
            by_country[c as usize].push(stub);
        }
        for (key, stub) in chunk.by_city {
            by_city.entry(key).or_default().push(stub);
        }
    }

    let mut deg = vec![0u32; n];
    let mut edges: HashSet<(u32, u32)> = HashSet::with_capacity(global.len());

    let match_layer = |stubs: &mut Vec<Stub>,
                           edges: &mut HashSet<(u32, u32)>,
                           deg: &mut Vec<u32>| {
        stubs.sort_by(|a, b| {
            a.noisy_key
                .total_cmp(&b.noisy_key)
                .then(a.user.cmp(&b.user))
        });
        let m = stubs.len();
        let mut used = vec![false; m];
        for i in 0..m {
            if used[i] {
                continue;
            }
            let a = stubs[i];
            if deg[a.user as usize] >= caps[a.user as usize] {
                used[i] = true;
                continue;
            }
            // Pair with the nearest unused stub ahead from a different user
            // that doesn't duplicate an edge or bust a cap.
            for j in (i + 1)..m.min(i + 24) {
                if used[j] {
                    continue;
                }
                let b = stubs[j];
                if b.user == a.user || deg[b.user as usize] >= caps[b.user as usize] {
                    continue;
                }
                let key = (a.user.min(b.user), a.user.max(b.user));
                if edges.contains(&key) {
                    continue;
                }
                edges.insert(key);
                deg[a.user as usize] += 1;
                deg[b.user as usize] += 1;
                used[i] = true;
                used[j] = true;
                break;
            }
        }
    };

    match_layer(&mut global, &mut edges, &mut deg);
    for list in &mut by_country {
        if list.len() >= 2 {
            match_layer(list, &mut edges, &mut deg);
        }
    }
    // Deterministic order over city layers.
    let mut city_keys: Vec<(u32, u16)> = by_city.keys().copied().collect();
    city_keys.sort_unstable();
    for ck in city_keys {
        let list = by_city.get_mut(&ck).unwrap();
        if list.len() >= 2 {
            match_layer(list, &mut edges, &mut deg);
        }
    }

    // --- Timestamps -----------------------------------------------------------
    // An edge forms some time after both accounts exist; waiting times are
    // exponential with a ~14-month mean, truncated at the crawl date. Since
    // the user base grows exponentially, edges concentrate in later years
    // and the friendship curve rises faster than the user curve (Figure 1).
    let snapshot = SimTime::from_ymd(2013, 3, 18);
    // HashSet iteration order is seeded per-process; sort the pairs before
    // drawing timestamps so the whole generator stays deterministic. The
    // sorted pair list is also the fixed frame the timestamp chunks index.
    let mut pairs: Vec<(u32, u32)> = edges.into_iter().collect();
    pairs.sort_unstable();
    let time_chunks = run_chunks(jobs, pairs.len(), EDGES_CHUNK, |c, range| {
        let mut rng = stage_rng(cfg.seed, "friends.times", c as u64);
        let mut out: Vec<Friendship> = Vec::with_capacity(range.len());
        for &(a, b) in &pairs[range] {
            let born = pop.accounts[a as usize]
                .created_at
                .max(pop.accounts[b as usize].created_at);
            let wait_days = -(rng.gen::<f64>().max(1e-12)).ln() * 300.0;
            let mut at = born.unix() + (wait_days * 86_400.0) as i64;
            if at > snapshot.unix() {
                // Would have formed after the crawl: it must instead have
                // formed somewhere in the observable window (uniformly), not
                // pile up on the crawl date.
                let span = (snapshot.unix() - born.unix()).max(1);
                at = born.unix() + (rng.gen::<f64>() * span as f64) as i64;
            }
            out.push(Friendship::new(a, b, SimTime::from_unix(at)));
        }
        out
    });
    let mut out = Vec::with_capacity(pairs.len());
    for mut c in time_chunks {
        out.append(&mut c);
    }
    out
}

/// Standardized composite of the three behavioral propensities.
fn composite_keys(cfg: &SynthConfig, pop: &Population) -> Vec<f64> {
    let n = pop.accounts.len();
    let lat = &pop.latents;
    let ln_e: Vec<f64> = lat.engagement.iter().map(|e| e.ln()).collect();
    let raw = |i: usize| -> [f64; 3] {
        [
            cfg.degree_mu + 1.0 * ln_e[i] + cfg.degree_sigma * lat.z_degree[i],
            cfg.library_mu
                + cfg.library_engagement_coupling * ln_e[i]
                + cfg.library_sigma * lat.z_library[i],
            cfg.playtime_engagement_coupling * ln_e[i] + 1.0 * lat.z_playtime[i],
        ]
    };
    // Standardize each dimension over the population.
    let mut mean = [0.0f64; 3];
    let mut var = [0.0f64; 3];
    for i in 0..n {
        let v = raw(i);
        for d in 0..3 {
            mean[d] += v[d];
        }
    }
    for m in &mut mean {
        *m /= n as f64;
    }
    for i in 0..n {
        let v = raw(i);
        for d in 0..3 {
            var[d] += (v[d] - mean[d]) * (v[d] - mean[d]);
        }
    }
    let sd: Vec<f64> = var.iter().map(|v| (v / n as f64).sqrt().max(1e-9)).collect();
    (0..n)
        .map(|i| {
            let v = raw(i);
            (0..3).map(|d| (v[d] - mean[d]) / sd[d]).sum::<f64>() / 3.0
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounts::generate_population;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build() -> (Population, Vec<Friendship>, SynthConfig) {
        let cfg = SynthConfig::small(11);
        let pop = generate_population(&cfg, 1);
        let edges = generate_friendships(&cfg, &pop, 1);
        (pop, edges, cfg)
    }

    fn degrees(n: usize, edges: &[Friendship]) -> Vec<u32> {
        let mut deg = vec![0u32; n];
        for e in edges {
            deg[e.a as usize] += 1;
            deg[e.b as usize] += 1;
        }
        deg
    }

    #[test]
    fn edges_canonical_and_unique() {
        let (pop, edges, _) = build();
        let mut seen = HashSet::new();
        for e in &edges {
            assert!(e.a < e.b);
            assert!((e.b as usize) < pop.accounts.len());
            assert!(seen.insert((e.a, e.b)), "duplicate edge");
        }
    }

    #[test]
    fn mean_degree_near_paper() {
        let (pop, edges, _) = build();
        let mean = 2.0 * edges.len() as f64 / pop.accounts.len() as f64;
        // Paper: 196.37M edges / 108.7M users → mean ≈ 3.6.
        assert!((2.2..5.2).contains(&mean), "mean degree = {mean}");
    }

    #[test]
    fn degrees_respect_caps() {
        let (pop, edges, _) = build();
        let deg = degrees(pop.accounts.len(), &edges);
        for (d, a) in deg.iter().zip(&pop.accounts) {
            assert!(*d <= a.friend_cap(), "degree {d} over cap {}", a.friend_cap());
        }
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let (pop, edges, _) = build();
        let mut deg: Vec<u32> = degrees(pop.accounts.len(), &edges)
            .into_iter()
            .filter(|&d| d > 0)
            .collect();
        deg.sort_unstable();
        let p = |q: f64| deg[((deg.len() - 1) as f64 * q) as usize];
        let median = p(0.50);
        let p99 = p(0.99);
        assert!((2..=7).contains(&median), "median = {median}");
        assert!(p99 >= 40, "p99 = {p99} (want heavy tail)");
        assert!(p99 < 500, "p99 = {p99}");
    }

    #[test]
    fn timestamps_after_both_accounts() {
        let (pop, edges, _) = build();
        for e in edges.iter().take(5000) {
            let born = pop.accounts[e.a as usize]
                .created_at
                .max(pop.accounts[e.b as usize].created_at);
            assert!(e.created_at >= born);
            assert!(e.created_at <= SimTime::from_ymd(2013, 3, 18));
        }
    }

    #[test]
    fn friendships_grow_faster_than_users() {
        let (pop, edges, _) = build();
        let users_by = |y: i32| {
            pop.accounts.iter().filter(|a| a.created_at.year() <= y).count() as f64
        };
        let edges_by = |y: i32| {
            edges.iter().filter(|e| e.created_at.year() <= y).count() as f64
        };
        // Between 2010 and 2013 the edge curve must outgrow the user curve.
        let user_growth = users_by(2013) / users_by(2010).max(1.0);
        let edge_growth = edges_by(2013) / edges_by(2010).max(1.0);
        assert!(
            edge_growth > user_growth,
            "edges ×{edge_growth:.2} vs users ×{user_growth:.2}"
        );
    }

    #[test]
    fn homophily_in_engagement() {
        let (pop, edges, _) = build();
        // Mean |ln-engagement gap| across edges must be far below the gap of
        // random pairs.
        let mut rng = StdRng::seed_from_u64(5);
        let n = pop.accounts.len();
        let eng = &pop.latents.engagement;
        let edge_gap: f64 = edges
            .iter()
            .map(|e| (eng[e.a as usize].ln() - eng[e.b as usize].ln()).abs())
            .sum::<f64>()
            / edges.len() as f64;
        let rand_gap: f64 = (0..edges.len())
            .map(|_| {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                (eng[a].ln() - eng[b].ln()).abs()
            })
            .sum::<f64>()
            / edges.len() as f64;
        assert!(
            edge_gap < rand_gap * 0.6,
            "edge gap {edge_gap:.3} vs random {rand_gap:.3}"
        );
    }

    #[test]
    fn country_locality_near_target() {
        let (pop, edges, _) = build();
        let same = edges
            .iter()
            .filter(|e| {
                pop.latents.true_country[e.a as usize]
                    == pop.latents.true_country[e.b as usize]
            })
            .count() as f64;
        let frac = same / edges.len() as f64;
        // §4.1: 30.34% international → ≈ 70% same-country.
        assert!((0.55..0.85).contains(&frac), "same-country = {frac}");
    }

    #[test]
    fn deterministic() {
        let cfg = SynthConfig::small(13);
        let run = || {
            let pop = generate_population(&cfg, 1);
            generate_friendships(&cfg, &pop, 1)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn jobs_invariant() {
        let cfg = SynthConfig::small(13);
        let pop = generate_population(&cfg, 1);
        let serial = generate_friendships(&cfg, &pop, 1);
        let parallel = generate_friendships(&cfg, &pop, 4);
        assert_eq!(serial, parallel);
    }
}
