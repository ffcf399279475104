//! Property tests for the graph substrate over random edge lists, on the
//! in-tree `mcds-check` engine.
//!
//! A graph is drawn as a node count in `2..=max_n − 1` and up to
//! `3 (max_n − 1)` endpoint pairs, reduced modulo the node count with
//! self-loops dropped.

use mcds_check::gen::{usizes, vecs, UsizeGen, VecGen};
use mcds_check::{prop_assert, prop_assert_eq, Property, TestResult};
use mcds_graph::{
    node_mask, node_set, properties, subsets,
    traversal::{bfs_distances, connected_components, BfsTree},
    DisjointSets, Graph,
};

type GraphGen = (UsizeGen, VecGen<(UsizeGen, UsizeGen)>);

/// Node counts `2..=max_n − 1` with up to `3 (max_n − 1)` raw edges.
fn graphs(max_n: usize) -> GraphGen {
    (
        usizes(2..=max_n - 1),
        vecs((usizes(0..=1023), usizes(0..=1023)), 0..=3 * (max_n - 1)),
    )
}

fn graph(&(n, ref raw): &(usize, Vec<(usize, usize)>)) -> Graph {
    let edges: Vec<(usize, usize)> = raw
        .iter()
        .map(|&(u, v)| (u % n, v % n))
        .filter(|(u, v)| u != v)
        .collect();
    Graph::from_edges(n, edges)
}

/// `20` coin flips, one per possible node.
fn keep_bits() -> VecGen<UsizeGen> {
    vecs(usizes(0..=1), 20..=20)
}

#[test]
fn edge_iterator_agrees_with_has_edge() {
    Property::new("edge_iterator_agrees_with_has_edge")
        .cases(96)
        .run(&graphs(24), |drawn| {
            let g = graph(drawn);
            let mut count = 0usize;
            for (u, v) in g.edges() {
                prop_assert!(u < v);
                prop_assert!(g.has_edge(u, v));
                prop_assert!(g.has_edge(v, u));
                count += 1;
            }
            prop_assert_eq!(count, g.num_edges());
            let degree_sum: usize = (0..g.num_nodes()).map(|v| g.degree(v)).sum();
            prop_assert_eq!(degree_sum, 2 * g.num_edges());
            TestResult::Pass
        });
}

#[test]
fn components_partition_nodes() {
    Property::new("components_partition_nodes")
        .cases(96)
        .run(&graphs(24), |drawn| {
            let g = graph(drawn);
            let comps = connected_components(&g);
            let all: Vec<usize> = comps.iter().flatten().copied().collect();
            prop_assert_eq!(node_set(all), (0..g.num_nodes()).collect::<Vec<_>>());
            // No edges cross components.
            for (u, v) in g.edges() {
                let cu = comps.iter().position(|c| c.contains(&u));
                let cv = comps.iter().position(|c| c.contains(&v));
                prop_assert_eq!(cu, cv);
            }
            TestResult::Pass
        });
}

#[test]
fn dsu_components_match_traversal() {
    Property::new("dsu_components_match_traversal")
        .cases(96)
        .run(&graphs(24), |drawn| {
            let g = graph(drawn);
            let mut dsu = DisjointSets::new(g.num_nodes());
            for (u, v) in g.edges() {
                dsu.union(u, v);
            }
            prop_assert_eq!(dsu.num_sets(), connected_components(&g).len());
            TestResult::Pass
        });
}

#[test]
fn bfs_levels_are_consistent() {
    Property::new("bfs_levels_are_consistent")
        .cases(96)
        .run(&graphs(24), |drawn| {
            let g = graph(drawn);
            let t = BfsTree::rooted_at(&g, 0);
            // Edge levels differ by at most 1 within the reached set.
            for (u, v) in g.edges() {
                if let (Some(lu), Some(lv)) = (t.level(u), t.level(v)) {
                    prop_assert!(lu.abs_diff(lv) <= 1);
                }
            }
            // Parent is one level up and adjacent.
            for v in 0..g.num_nodes() {
                if let Some(p) = t.parent(v) {
                    prop_assert!(g.has_edge(p, v));
                    prop_assert_eq!(t.level(p).unwrap() + 1, t.level(v).unwrap());
                    // Canonical: p is the min-id neighbor one level up.
                    let min_up = g
                        .neighbors_iter(v)
                        .filter(|&u| t.level(u) == Some(t.level(v).unwrap() - 1))
                        .min();
                    prop_assert_eq!(Some(p), min_up);
                }
            }
            // bfs_distances agrees with tree levels.
            let d = bfs_distances(&g, 0);
            for (v, &dist) in d.iter().enumerate() {
                prop_assert_eq!(t.level(v).unwrap_or(usize::MAX), dist);
            }
            TestResult::Pass
        });
}

#[test]
fn induced_subgraph_edge_subset() {
    Property::new("induced_subgraph_edge_subset").cases(96).run(
        &(graphs(20), keep_bits()),
        |(drawn, bits)| {
            let g = graph(drawn);
            let keep: Vec<usize> = (0..g.num_nodes()).filter(|&v| bits[v] == 1).collect();
            let (sub, map) = g.induced_subgraph(&keep);
            prop_assert_eq!(sub.num_nodes(), keep.len());
            for (a, b) in sub.edges() {
                prop_assert!(g.has_edge(map[a], map[b]));
            }
            // Every internal edge of the kept set survives.
            let mask = node_mask(g.num_nodes(), &keep);
            let internal = g.edges().filter(|&(u, v)| mask[u] && mask[v]).count();
            prop_assert_eq!(internal, sub.num_edges());
            TestResult::Pass
        },
    );
}

#[test]
fn count_components_matches_induced_graph() {
    Property::new("count_components_matches_induced_graph")
        .cases(96)
        .run(&(graphs(20), keep_bits()), |(drawn, bits)| {
            let g = graph(drawn);
            let mask: Vec<bool> = (0..g.num_nodes()).map(|v| bits[v] == 1).collect();
            let keep: Vec<usize> = (0..g.num_nodes()).filter(|&v| mask[v]).collect();
            let (sub, _) = g.induced_subgraph(&keep);
            prop_assert_eq!(
                subsets::count_components(&g, &mask),
                connected_components(&sub).len()
            );
            // The CDS predicate (one `check_cds` pass) against its former
            // body: domination, then connectivity of the induced subset.
            prop_assert_eq!(
                properties::is_connected_dominating_set(&g, &keep),
                properties::is_dominating_set(&g, &keep) && subsets::is_connected_subset(&g, &mask)
            );
            TestResult::Pass
        });
}

#[test]
fn mis_predicates_are_consistent() {
    Property::new("mis_predicates_are_consistent")
        .cases(96)
        .run(&graphs(20), |drawn| {
            // Build a maximal independent set greedily and check the
            // predicate algebra: MIS => independent and dominating.
            let g = graph(drawn);
            let mut mis: Vec<usize> = Vec::new();
            let mut blocked = vec![false; g.num_nodes()];
            for v in 0..g.num_nodes() {
                if !blocked[v] {
                    mis.push(v);
                    blocked[v] = true;
                    for u in g.neighbors_iter(v) {
                        blocked[u] = true;
                    }
                }
            }
            prop_assert!(properties::is_independent_set(&g, &mis));
            prop_assert!(properties::is_dominating_set(&g, &mis));
            prop_assert!(properties::is_maximal_independent_set(&g, &mis));
            TestResult::Pass
        });
}
