//! The week-long playtime panel (Figure 12).
//!
//! The paper sampled 0.5% of users uniformly across the lifetime-playtime
//! ordering and recorded daily playtime for one week (Nov 1–7, 2014). The
//! headline observation: day-to-day behavior is bursty — many users who
//! played nothing on day one played substantially on later days — yet the
//! heavy players stay heavier on average.
//!
//! Two seed streams: `panel.sample` (a single offset draw picks the
//! stride's phase) and `panel.days` (fanned out over chunks of the selected
//! panel users; each user's seven diary days are independent).

use rand::rngs::StdRng;
use rand::Rng;
use steam_model::{Snapshot, WeekPanel};
use steam_par::run_chunks;

use crate::par::PANEL_CHUNK;
use crate::samplers::{chance, lognormal};
use crate::seed::stage_rng;

/// Fraction of users sampled into the panel (the paper used 0.5%).
pub const PANEL_FRACTION: f64 = 0.005;

/// Draws one panel user's seven diary days.
fn diary_week(rng: &mut StdRng, snapshot: &Snapshot, u: u32) -> [u32; 7] {
    // Daily propensity scales with the user's recent activity; users
    // with no two-week playtime still have a small chance of playing.
    let two_week: u64 = snapshot.ownerships[u as usize]
        .iter()
        .map(|o| u64::from(o.playtime_2weeks_min))
        .sum();
    let daily_mean = (two_week as f64 / 14.0).max(0.0);
    let mut days = [0u32; 7];
    for (d, out) in days.iter_mut().enumerate() {
        // Play probability: actives play most days; inactives rarely.
        let p_play: f64 = if two_week > 0 { 0.60 } else { 0.05 };
        // Weekend boost (days 0 and 6 — the paper's window started on a
        // Saturday).
        let weekend = if d == 0 || d == 6 { 1.5 } else { 1.0 };
        if chance(rng, (p_play * weekend).min(0.95)) {
            // Bursty lognormal around the personal mean; recently-idle
            // users who do play put in a short session.
            // A session is at least ~half an hour; heavy players scale
            // with their personal mean.
            let mean = daily_mean.max(30.0);
            let minutes = lognormal(rng, mean.ln(), 0.9);
            *out = (minutes.round() as u32).min(24 * 60);
        }
    }
    days
}

/// Builds the panel from a snapshot: stratified-uniform sample over the
/// total-playtime ordering, then seven days of bursty play per user.
pub fn generate_panel(seed: u64, snapshot: &Snapshot, jobs: usize) -> WeekPanel {
    let n = snapshot.n_users();
    // Order users by lifetime playtime (the paper's sampling frame).
    let totals: Vec<u64> = snapshot
        .ownerships
        .iter()
        .map(|lib| lib.iter().map(|o| u64::from(o.playtime_forever_min)).sum())
        .collect();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&u| totals[u as usize]);

    // Uniform stride over the ordering = uniform random sample across the
    // playtime spectrum.
    let step = (1.0 / PANEL_FRACTION) as usize;
    let offset = stage_rng(seed, "panel.sample", 0).gen_range(0..step.max(1));

    let users: Vec<u32> = (offset..n).step_by(step.max(1)).map(|pos| order[pos]).collect();
    let chunks = run_chunks(jobs, users.len(), PANEL_CHUNK, |c, range| {
        let mut rng = stage_rng(seed, "panel.days", c as u64);
        range
            .map(|i| diary_week(&mut rng, snapshot, users[i]))
            .collect::<Vec<_>>()
    });
    let mut daily_minutes = Vec::with_capacity(users.len());
    for mut c in chunks {
        daily_minutes.append(&mut c);
    }
    WeekPanel { users, daily_minutes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SynthConfig;
    use crate::generate::Generator;

    fn build() -> (Snapshot, WeekPanel) {
        let world = Generator::new(SynthConfig::small(41)).generate_world();
        // The panel is generated off the *second* snapshot (Nov 2014 in the
        // paper's timeline), so activity comparisons must use it too.
        (world.second_snapshot, world.panel)
    }

    #[test]
    fn sample_fraction_near_half_percent() {
        let (snap, panel) = build();
        let frac = panel.len() as f64 / snap.n_users() as f64;
        assert!((frac - PANEL_FRACTION).abs() < 0.002, "fraction = {frac}");
        assert_eq!(panel.users.len(), panel.daily_minutes.len());
    }

    #[test]
    fn users_unique_and_in_range() {
        let (snap, panel) = build();
        let set: std::collections::HashSet<u32> = panel.users.iter().copied().collect();
        assert_eq!(set.len(), panel.users.len());
        assert!(panel.users.iter().all(|&u| (u as usize) < snap.n_users()));
    }

    #[test]
    fn daily_minutes_bounded_by_day_length() {
        let (_, panel) = build();
        for days in &panel.daily_minutes {
            for &m in days {
                assert!(m <= 24 * 60);
            }
        }
    }

    #[test]
    fn jobs_invariant() {
        let world = Generator::new(SynthConfig::small(41)).generate_world();
        let serial = generate_panel(41, &world.second_snapshot, 1);
        let parallel = generate_panel(41, &world.second_snapshot, 4);
        assert_eq!(serial.users, parallel.users);
        assert_eq!(serial.daily_minutes, parallel.daily_minutes);
    }

    #[test]
    fn behavior_is_bursty_but_ordered() {
        let (snap, panel) = build();
        // (1) Some users idle on day one play later in the week (the paper's
        // headline for Figure 12).
        let late_bloomers = panel
            .daily_minutes
            .iter()
            .filter(|d| d[0] == 0 && d[1..].iter().any(|&m| m > 0))
            .count();
        assert!(late_bloomers > 0, "panel shows no day-to-day burstiness");

        // (2) Recent-active users still average more weekly minutes than
        // inactive ones.
        let mut active_sum = 0.0;
        let mut active_n = 0.0;
        let mut idle_sum = 0.0;
        let mut idle_n = 0.0;
        for (&u, days) in panel.users.iter().zip(&panel.daily_minutes) {
            let week: u32 = days.iter().sum();
            let recent: u64 = snap.ownerships[u as usize]
                .iter()
                .map(|o| u64::from(o.playtime_2weeks_min))
                .sum();
            if recent > 0 {
                active_sum += f64::from(week);
                active_n += 1.0;
            } else {
                idle_sum += f64::from(week);
                idle_n += 1.0;
            }
        }
        if active_n > 5.0 && idle_n > 5.0 {
            assert!(
                active_sum / active_n > idle_sum / idle_n,
                "recent actives should play more during the panel week: \
                 active {:.1} min (n={active_n}) vs idle {:.1} min (n={idle_n})",
                active_sum / active_n,
                idle_sum / idle_n,
            );
        }
    }
}
