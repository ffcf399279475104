//! Fault-tolerance oracles: m-fold domination, biconnectivity, and an
//! exact (1,2)-CDS branch & bound for tiny instances.
//!
//! The fault-tolerant backbone family ((1,m)- and (2,m)-CDS, ROADMAP
//! item 4) needs ground truth to differential-test against.  This module
//! supplies the three pieces the property suite uses:
//!
//! * [`is_m_dominating`] — every node outside the set sees ≥ `m` set
//!   members among its neighbors,
//! * [`is_biconnected`] — the subgraph induced by a set is 2-connected
//!   (conventions for tiny sets documented on the function),
//! * [`try_min_12cds`] — exact minimum (1,2)-CDS (connected, 2-fold
//!   dominating): the γ_c branch & bound of `crate::domination` run at
//!   m = 2, practical to n ≈ 16.

use mcds_graph::{node_mask, subsets, Graph};

/// Whether `set` is an m-fold dominating set of `g`: every node *not* in
/// `set` has at least `m` neighbors in `set`.  Set members dominate
/// themselves and need no external coverage (the standard convention for
/// backbone fault tolerance: a backbone node routes for itself).
///
/// `m = 0` is vacuously satisfied; `m = 1` coincides with ordinary
/// domination restricted to non-members.
pub fn is_m_dominating(g: &Graph, set: &[usize], m: usize) -> bool {
    if m == 0 {
        return true;
    }
    let mask = node_mask(g.num_nodes(), set);
    (0..g.num_nodes()).all(|v| mask[v] || g.neighbors_iter(v).filter(|&u| mask[u]).count() >= m)
}

/// Whether the subgraph of `g` induced by `set` is biconnected
/// (2-vertex-connected): connected with no cut vertices.
///
/// Conventions for degenerate sets, chosen so a trivially small backbone
/// counts as fault-tolerant rather than failing vacuously:
///
/// * the empty set is biconnected only on the empty graph,
/// * a single node is biconnected,
/// * two nodes are biconnected iff they are adjacent (`K₂` has no *cut*
///   vertex: removing either endpoint leaves a connected singleton).
///
/// These match the augmentation pass in `mcds-cds` and the `(2,m)`
/// differential property — change all three together or none.
///
/// Cut vertices are found by removal (dropping one leaves more than one
/// component), so this oracle shares no code with the production Tarjan.
pub fn is_biconnected(g: &Graph, set: &[usize]) -> bool {
    if set.is_empty() {
        return g.num_nodes() == 0;
    }
    let mut mask = node_mask(g.num_nodes(), set);
    if subsets::count_components(g, &mask) != 1 {
        return false;
    }
    set.iter().all(|&v| {
        mask[v] = false;
        let split = subsets::count_components(g, &mask) > 1;
        mask[v] = true;
        !split
    })
}

/// Computes a minimum (1,2)-CDS exactly: a connected set `S` with every
/// node outside `S` adjacent to ≥ 2 members of `S`.
///
/// Exists for every connected graph (the full vertex set qualifies).
/// Returns `None` on disconnected graphs.  Practical to n ≈ 16.
pub fn min_12cds(g: &Graph) -> Option<Vec<usize>> {
    try_min_12cds(g, u64::MAX).expect("unbounded budget cannot be exhausted")
}

/// Budgeted variant of [`min_12cds`].
///
/// * `Ok(Some(set))` — exact optimum found,
/// * `Ok(None)` — graph is disconnected (no connected backbone exists),
/// * `Err(())` — budget exhausted before the answer was proven.
#[allow(clippy::result_unit_err)]
pub fn try_min_12cds(g: &Graph, max_steps: u64) -> Result<Option<Vec<usize>>, ()> {
    crate::domination::try_min_connected_m_dominating(g, 2, max_steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive reference: smallest subset that is connected and
    /// 2-fold dominating, by bitmask enumeration (test-only, n ≤ 16).
    fn brute_12cds(g: &Graph) -> Option<Vec<usize>> {
        let n = g.num_nodes();
        assert!(n <= 16);
        if n == 0 {
            return Some(Vec::new());
        }
        if !g.is_connected() {
            return None;
        }
        let mut best: Option<Vec<usize>> = None;
        for bits in 1u32..(1 << n) {
            let set: Vec<usize> = (0..n).filter(|&v| bits >> v & 1 == 1).collect();
            if let Some(b) = &best {
                if set.len() >= b.len() {
                    continue;
                }
            }
            if is_m_dominating(g, &set, 2) && subsets::is_connected_subset(g, &node_mask(n, &set)) {
                best = Some(set);
            }
        }
        best
    }

    #[test]
    fn m_domination_checker_on_named_families() {
        let c6 = Graph::cycle(6);
        let all: Vec<usize> = (0..6).collect();
        // The full vertex set is m-dominating for every m (vacuously).
        assert!(is_m_dominating(&c6, &all, 3));
        // On a cycle, every other node 2-dominates the rest...
        assert!(is_m_dominating(&c6, &[0, 2, 4], 2));
        // ...but not 3-fold (each outside node has exactly 2 neighbors).
        assert!(!is_m_dominating(&c6, &[0, 2, 4], 3));
        // m = 1 coincides with ordinary domination.
        let star = Graph::star(5);
        assert!(is_m_dominating(&star, &[0], 1));
        assert!(!is_m_dominating(&star, &[0], 2));
        // m = 0 is vacuous, even for the empty set.
        assert!(is_m_dominating(&star, &[], 0));
        assert!(!is_m_dominating(&star, &[], 1));
    }

    #[test]
    fn biconnectivity_checker_conventions() {
        let g = Graph::cycle(5);
        let all: Vec<usize> = (0..5).collect();
        assert!(is_biconnected(&g, &all), "cycles are biconnected");
        assert!(
            !is_biconnected(&g, &[0, 1, 2]),
            "induced path has a cut vertex"
        );
        assert!(
            is_biconnected(&g, &[0]),
            "singletons are trivially biconnected"
        );
        assert!(is_biconnected(&g, &[0, 1]), "an edge is biconnected");
        assert!(!is_biconnected(&g, &[0, 2]), "a non-edge pair is not");
        assert!(!is_biconnected(&g, &[]), "empty set on a nonempty graph");
        assert!(is_biconnected(&Graph::empty(0), &[]), "empty set on K₀");
        let path = Graph::path(6);
        assert!(!is_biconnected(&path, &(0..6).collect::<Vec<_>>()));
        let k5 = Graph::complete(5);
        assert!(is_biconnected(&k5, &[1, 2, 4]));
    }

    #[test]
    fn min_12cds_of_named_families() {
        // Paths: endpoints are forced in and removing any interior node
        // disconnects, so the optimum is the whole path.
        for n in 2..8 {
            assert_eq!(min_12cds(&Graph::path(n)).unwrap().len(), n, "P_{n}");
        }
        // Cycles: drop exactly one node (the rest is a connected path and
        // the dropped node keeps both neighbors); dropping two breaks
        // either connectivity or double coverage.
        assert_eq!(min_12cds(&Graph::cycle(3)).unwrap().len(), 2);
        for n in 4..10 {
            assert_eq!(min_12cds(&Graph::cycle(n)).unwrap().len(), n - 1, "C_{n}");
        }
        // Complete graphs: any edge double-covers everyone else.
        assert_eq!(min_12cds(&Graph::complete(2)).unwrap().len(), 2);
        for n in 3..8 {
            assert_eq!(min_12cds(&Graph::complete(n)).unwrap().len(), 2, "K_{n}");
        }
        // Stars (n nodes total): every leaf has degree 1 and is forced
        // in; the center is forced by connectivity.
        assert_eq!(min_12cds(&Graph::star(5)).unwrap().len(), 5);
        // Disconnected graphs have no connected backbone.
        assert_eq!(min_12cds(&Graph::from_edges(4, [(0, 1), (2, 3)])), None);
        assert_eq!(min_12cds(&Graph::empty(0)), Some(Vec::new()));
        assert_eq!(min_12cds(&Graph::empty(1)), Some(vec![0]));
    }

    #[test]
    fn min_12cds_matches_brute_force() {
        let mut s = 0x1cdcu64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut tested = 0;
        while tested < 12 {
            let n = 9;
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if next() % 100 < 35 {
                        edges.push((u, v));
                    }
                }
            }
            let g = Graph::from_edges(n, edges);
            if !g.is_connected() {
                continue;
            }
            tested += 1;
            let fast = min_12cds(&g).unwrap();
            assert!(is_m_dominating(&g, &fast, 2), "{g:?}");
            assert!(
                subsets::is_connected_subset(&g, &node_mask(n, &fast)),
                "{g:?}"
            );
            let brute = brute_12cds(&g).unwrap();
            assert_eq!(fast.len(), brute.len(), "{g:?}");
        }
    }

    #[test]
    fn min_12cds_handles_n16_families() {
        // Named families at the new practical ceiling (n = 16).
        assert_eq!(min_12cds(&Graph::path(16)).unwrap().len(), 16);
        assert_eq!(min_12cds(&Graph::cycle(16)).unwrap().len(), 15);
        assert_eq!(min_12cds(&Graph::complete(16)).unwrap().len(), 2);
        // A spider (three legs of five hanging off a hub) is a tree, and
        // on any tree the only (1,2)-CDS is the whole vertex set: an
        // excluded leaf keeps a single dominator, and excluding an
        // internal node disconnects the rest.  Its three forced leaves
        // are pre-applied before the first branch.
        let mut edges = Vec::new();
        for leg in 0..3 {
            let base = 1 + 5 * leg;
            edges.push((0, base));
            for i in 0..4 {
                edges.push((base + i, base + i + 1));
            }
        }
        let spider = Graph::from_edges(16, edges);
        assert_eq!(min_12cds(&spider).unwrap().len(), 16);
    }

    #[test]
    fn min_12cds_matches_brute_force_at_16() {
        // Sparser than the n = 9 sweep so leaves (forced nodes) actually
        // occur and the gains bound does real pruning.
        let mut s = 0x16cd5u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut tested = 0;
        while tested < 4 {
            let n = 16;
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if next() % 100 < 16 {
                        edges.push((u, v));
                    }
                }
            }
            let g = Graph::from_edges(n, edges);
            if !g.is_connected() {
                continue;
            }
            tested += 1;
            let fast = min_12cds(&g).unwrap();
            assert!(is_m_dominating(&g, &fast, 2), "{g:?}");
            assert!(
                subsets::is_connected_subset(&g, &node_mask(n, &fast)),
                "{g:?}"
            );
            let brute = brute_12cds(&g).unwrap();
            assert_eq!(fast.len(), brute.len(), "{g:?}");
        }
    }

    #[test]
    fn min_12cds_budget_exhaustion_reports_err() {
        let g = Graph::cycle(14);
        assert!(try_min_12cds(&g, 2).is_err());
        assert!(try_min_12cds(&g, u64::MAX).is_ok());
    }

    #[test]
    fn a_12cds_is_at_least_as_large_as_a_cds() {
        let mut s = 77u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut tested = 0;
        while tested < 6 {
            let n = 8;
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if next() % 100 < 40 {
                        edges.push((u, v));
                    }
                }
            }
            let g = Graph::from_edges(n, edges);
            if !g.is_connected() {
                continue;
            }
            tested += 1;
            let cds = crate::min_connected_dominating_set(&g).unwrap();
            let twofold = min_12cds(&g).unwrap();
            assert!(twofold.len() >= cds.len(), "{g:?}");
        }
    }
}
