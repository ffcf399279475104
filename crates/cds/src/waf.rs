//! The Wan–Alzoubi–Frieder two-phased algorithm \[10\], as described and
//! analyzed in the paper's Section III.

use mcds_graph::Graph;
use mcds_mis::BfsMis;

/// Phase 2 of the WAF construction: the special neighbor `s` plus the
/// BFS-tree parents of the dominators `s` does not cover.  `phase1` must
/// be the BFS MIS of `g` rooted at `root`, spanning `g`.
pub(crate) fn waf_connectors(g: &Graph, phase1: &BfsMis, root: usize) -> Vec<usize> {
    let mis = phase1.mis();

    // A single dominator already dominates everything and is trivially
    // connected (γ_c = 1 case).
    if mis.len() <= 1 {
        return Vec::new();
    }

    // s: the root's neighbor covering the most dominators.
    let s = g
        .neighbors_iter(root)
        .max_by_key(|&w| {
            (
                g.neighbors_iter(w).filter(|&u| phase1.contains(u)).count(),
                std::cmp::Reverse(w),
            )
        })
        .expect("connected graph with ≥2 dominators has a rooted neighbor");

    let covered_by_s: Vec<usize> = g
        .neighbors_iter(s)
        .filter(|&u| phase1.contains(u))
        .collect();
    let covered_mask = mcds_graph::node_mask(g.num_nodes(), &covered_by_s);

    let mut connectors = vec![s];
    for &u in mis {
        if !covered_mask[u] {
            let p = phase1
                .tree()
                .parent(u)
                .expect("non-root dominator has a BFS parent; root is covered by s");
            connectors.push(p);
        }
    }

    // Size inequality from the Theorem-8 proof: |C| ≤ |I| − |I(s)| + 1.
    debug_assert!(
        mcds_graph::node_set(connectors.iter().copied()).len()
            <= mis.len() - covered_by_s.len() + 1
    );

    connectors
}

#[cfg(test)]
mod tests {
    use crate::{Algorithm, Cds, CdsError, Solver};
    use mcds_graph::{properties, Graph};

    fn waf(g: &Graph, root: usize) -> Cds {
        Solver::new(Algorithm::WafTree)
            .root(root)
            .solve(g)
            .unwrap()
            .into_cds()
    }

    #[test]
    fn errors_on_bad_inputs() {
        let solver = Solver::new(Algorithm::WafTree);
        assert_eq!(
            solver.solve(&Graph::empty(0)).err(),
            Some(CdsError::EmptyGraph)
        );
        let split = Graph::from_edges(4, [(0, 1), (2, 3)]);
        assert_eq!(
            solver.solve(&split).err(),
            Some(CdsError::DisconnectedGraph)
        );
    }

    #[test]
    fn singleton_graph() {
        let cds = waf(&Graph::empty(1), 0);
        assert_eq!(cds.nodes(), &[0]);
        assert!(cds.verify(&Graph::empty(1)).is_ok());
    }

    #[test]
    fn valid_on_named_families() {
        let graphs = [
            Graph::path(2),
            Graph::path(3),
            Graph::path(10),
            Graph::cycle(11),
            Graph::star(9),
            Graph::complete(7),
        ];
        for g in &graphs {
            let cds = waf(g, 0);
            cds.verify(g).unwrap_or_else(|e| panic!("{g:?}: {e}"));
            assert!(
                properties::is_maximal_independent_set(g, cds.dominators()),
                "{g:?}"
            );
        }
    }

    #[test]
    fn every_root_gives_a_valid_cds() {
        let g = Graph::from_edges(
            9,
            [
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 8),
                (8, 0),
                (2, 6),
            ],
        );
        for root in 0..9 {
            let cds = waf(&g, root);
            cds.verify(&g)
                .unwrap_or_else(|e| panic!("root {root}: {e}"));
            assert!(cds.contains(root), "root {root} must be a dominator");
        }
    }

    #[test]
    fn star_is_near_optimal() {
        // On a star, root 0 is the hub: I = {0}, no connectors.
        let g = Graph::star(10);
        let cds = waf(&g, 0);
        assert_eq!(cds.nodes(), &[0]);
        // Rooted at a leaf, the first-fit MIS is ALL the leaves (they are
        // pairwise non-adjacent), so the CDS balloons to leaves + hub.
        // K_{1,9} is not a unit-disk graph, so this does not contradict
        // Theorem 8 — it illustrates why the UDG hypothesis matters.
        let cds_leaf = waf(&g, 3);
        cds_leaf.verify(&g).unwrap();
        assert_eq!(cds_leaf.dominators().len(), 9);
        assert_eq!(cds_leaf.len(), 10);
    }

    #[test]
    fn connector_bound_holds_on_paths() {
        for n in 2..40 {
            let g = Graph::path(n);
            let cds = waf(&g, 0);
            let i = cds.dominators().len();
            let c = cds.connectors().len();
            assert!(c <= i, "n={n}: |C|={c} > |I|={i}");
            cds.verify(&g).unwrap();
        }
    }
}
