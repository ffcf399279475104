//! The classic single-phase greedy-growth CDS (Guha–Khuller style).
//!
//! Unlike the two-phased family, this baseline grows one connected set
//! from a high-degree seed: repeatedly add the node adjacent to the
//! current set that newly dominates the most still-undominated nodes.
//! The set stays connected by construction and stops as soon as it
//! dominates.  On general graphs its ratio is `O(log Δ)` (Guha & Khuller
//! 1998); the CDS literature the paper builds on ([2], [8]) uses closely
//! related greedy covers, which is why it belongs in the comparison pool.
//!
//! The loop is the lazy election of [`crate::fault`] at `m = 1` with unit
//! weights, restricted to gray candidates (dominated non-members): a
//! gray node's gain is the number of undominated nodes it would cover,
//! gains only fall, and ties go to the smaller id, so the queue picks
//! what a rescan of all nodes per step would (that rescan is the oracle
//! in `tests/kernel_equiv.rs`).  Growth runs therefore bump the
//! `mfold.*` counters.

use mcds_graph::Graph;

/// The growth loop proper; `g` must be non-empty and connected.  Returns
/// the grown set in selection order.
///
/// The seed is the maximum-degree node (ties toward the smaller id); each
/// step adds the neighbor of the current set with the largest number of
/// newly dominated nodes (ties toward the smaller id).
pub(crate) fn grow(g: &Graph) -> Vec<usize> {
    crate::fault::elect(g, &vec![1; g.num_nodes()], 1, true)
}

#[cfg(test)]
mod tests {
    use crate::{Algorithm, Cds, CdsError, Solver};
    use mcds_graph::{properties, Graph};

    fn grown(g: &Graph) -> Cds {
        Solver::new(Algorithm::GreedyGrowth)
            .solve(g)
            .unwrap()
            .into_cds()
    }

    #[test]
    fn valid_on_named_families() {
        let graphs = [
            Graph::empty(1),
            Graph::path(2),
            Graph::path(12),
            Graph::cycle(9),
            Graph::star(8),
            Graph::complete(6),
        ];
        for g in &graphs {
            let cds = grown(g);
            cds.verify(g).unwrap_or_else(|e| panic!("{g:?}: {e}"));
        }
    }

    #[test]
    fn star_and_complete_take_one_node() {
        assert_eq!(grown(&Graph::star(9)).len(), 1);
        assert_eq!(grown(&Graph::complete(7)).len(), 1);
    }

    #[test]
    fn path_takes_interior() {
        // Greedy grow on P_n: γ_c(P_n) = n − 2 and greedy achieves it
        // (it never needs the endpoints).
        for n in 3..20 {
            let g = Graph::path(n);
            let cds = grown(&g);
            assert_eq!(cds.len(), n - 2, "P_{n}");
        }
    }

    #[test]
    fn intermediate_sets_stay_connected() {
        // The output is connected by construction; verify on a lattice-ish
        // graph.
        let g = Graph::from_edges(
            9,
            [
                (0, 1),
                (1, 2),
                (3, 4),
                (4, 5),
                (6, 7),
                (7, 8),
                (0, 3),
                (3, 6),
                (1, 4),
                (4, 7),
                (2, 5),
                (5, 8),
            ],
        );
        let cds = grown(&g);
        assert!(properties::is_connected_dominating_set(&g, cds.nodes()));
        assert!(cds.connectors().is_empty());
    }

    #[test]
    fn errors_on_bad_inputs() {
        let solver = Solver::new(Algorithm::GreedyGrowth);
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
}
