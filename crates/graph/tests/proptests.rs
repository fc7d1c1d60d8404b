//! Property tests for graph invariants.

use proptest::collection::vec;
use proptest::prelude::*;

use steam_graph::{
    bfs_crawl, connected_components, degree_assortativity, degrees_by_year_with, degrees_in_years,
    mean_clustering, neighbor_mean, small_world, Csr,
};
use steam_model::{Friendship, SimTime};

/// Random edge list over `n` nodes with no duplicate undirected edges.
fn arb_graph(max_nodes: u32) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2..max_nodes).prop_flat_map(move |n| {
        vec((0..n, 0..n), 0..(n as usize * 2)).prop_map(move |raw| {
            let mut seen = std::collections::HashSet::new();
            let edges: Vec<(u32, u32)> = raw
                .into_iter()
                .filter_map(|(a, b)| {
                    if a == b {
                        return None;
                    }
                    let key = (a.min(b), a.max(b));
                    seen.insert(key).then_some(key)
                })
                .collect();
            (n as usize, edges)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn handshake_lemma((n, edges) in arb_graph(80)) {
        let g = Csr::from_edges(n, edges.iter().copied());
        let deg_sum: u64 = g.degrees().iter().map(|&d| u64::from(d)).sum();
        prop_assert_eq!(deg_sum, 2 * g.n_edges() as u64);
    }

    #[test]
    fn adjacency_is_symmetric((n, edges) in arb_graph(60)) {
        let g = Csr::from_edges(n, edges.iter().copied());
        for u in 0..n as u32 {
            for &v in g.neighbors(u) {
                prop_assert!(g.has_edge(v, u), "asymmetric edge {u}-{v}");
            }
        }
    }

    #[test]
    fn component_sizes_partition_nodes((n, edges) in arb_graph(80)) {
        let g = Csr::from_edges(n, edges.iter().copied());
        let c = connected_components(&g);
        let total: u64 = c.sizes.iter().sum();
        prop_assert_eq!(total, n as u64);
        // Every labeled node's component id is valid.
        for &l in &c.label {
            prop_assert!((l as usize) < c.n_components());
        }
        // Endpoints of every edge share a component.
        for (a, b) in &edges {
            prop_assert_eq!(c.label[*a as usize], c.label[*b as usize]);
        }
    }

    #[test]
    fn assortativity_bounded((n, edges) in arb_graph(60)) {
        let g = Csr::from_edges(n, edges.iter().copied());
        if let Some(r) = degree_assortativity(&g) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "r = {r}");
        }
    }

    #[test]
    fn small_world_metrics_bounded((n, edges) in arb_graph(60)) {
        let g = Csr::from_edges(n, edges.iter().copied());
        if let Some(c) = mean_clustering(&g, 16) {
            prop_assert!((0.0..=1.0).contains(&c), "clustering = {c}");
        }
        if let Some(sw) = small_world(&g, 8) {
            prop_assert!(sw.mean_path >= 1.0, "{sw:?}");
            prop_assert!(sw.diameter_lb as f64 >= sw.mean_path.floor(), "{sw:?}");
            prop_assert!((0.0..=1.0).contains(&sw.giant_fraction));
        }
    }

    #[test]
    fn bfs_crawl_is_bounded_and_connected((n, edges) in arb_graph(60), budget in 1usize..100) {
        let g = Csr::from_edges(n, edges.iter().copied());
        let crawl = bfs_crawl(&g, &[0], budget);
        prop_assert!(crawl.len() <= budget);
        // Everything reached (except the seed) has a neighbor inside the
        // crawl's discovery set closure.
        let comps = connected_components(&g);
        for &u in &crawl {
            prop_assert_eq!(comps.label[u as usize], comps.label[0]);
        }
    }

    #[test]
    fn neighbor_mean_within_attr_range((n, edges) in arb_graph(60), lo in -100.0f64..0.0, span in 1.0f64..100.0) {
        let g = Csr::from_edges(n, edges.iter().copied());
        let attr: Vec<f64> = (0..n).map(|i| lo + span * (i as f64 / n as f64)).collect();
        let lo_v = attr.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi_v = attr.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for m in neighbor_mean(&g, &attr).into_iter().flatten() {
            prop_assert!(m >= lo_v - 1e-9 && m <= hi_v + 1e-9);
        }
    }

    #[test]
    fn year_table_matches_every_window(
        (n, edges) in arb_graph(40),
        years in vec(2004i32..2018, 80),
    ) {
        // Edge years straddle the table: before 2009, inside, after 2013.
        let edges: Vec<Friendship> = edges
            .iter()
            .zip(years.iter().cycle())
            .map(|(&(a, b), &y)| Friendship::new(a, b, SimTime::from_ymd(y, 3, 1)))
            .collect();
        let table = degrees_by_year_with(n, |f| edges.iter().for_each(f), 2009, 2013);
        for y in 2009..=2013 {
            prop_assert_eq!(table.year(y), &degrees_in_years(n, &edges, y, y)[..]);
            prop_assert_eq!(table.through(y), degrees_in_years(n, &edges, i32::MIN, y));
        }
    }
}
