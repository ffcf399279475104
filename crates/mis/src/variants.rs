//! The comparison MIS of the arbitrary-MIS baseline.
//!
//! The algorithms of \[1\] (Alzoubi–Wan–Frieder, Mobihoc 2002) and \[9\]
//! (Stojmenović et al.) select an *arbitrary* MIS rather than the
//! BFS-ordered one.  The `ArbitraryMis` construction of `mcds-cds` realizes
//! that choice as [`lexicographic_mis`], a thin wrapper over
//! [`crate::first_fit`] in id order, so the independence/maximality
//! invariants are inherited.

use mcds_graph::Graph;

use crate::first_fit;

/// MIS by scanning nodes in increasing id (lexicographic first-fit).
///
/// The canonical "arbitrary" MIS: deterministic but oblivious to the
/// topology.
///
/// ```
/// use mcds_graph::{Graph, properties};
/// use mcds_mis::variants::lexicographic_mis;
/// let g = Graph::cycle(7);
/// let mis = lexicographic_mis(&g);
/// assert!(properties::is_maximal_independent_set(&g, &mis));
/// ```
pub fn lexicographic_mis(g: &Graph) -> Vec<usize> {
    let order: Vec<usize> = (0..g.num_nodes()).collect();
    first_fit(g, &order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_graph::{properties, Graph};

    fn bipartite_double_star() -> Graph {
        // Two hubs (0, 1) joined, each with 4 leaves.
        Graph::from_edges(
            10,
            [
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (0, 5),
                (1, 6),
                (1, 7),
                (1, 8),
                (1, 9),
            ],
        )
    }

    #[test]
    fn all_variants_produce_valid_mis() {
        let graphs = [
            Graph::path(9),
            Graph::cycle(8),
            Graph::complete(5),
            bipartite_double_star(),
            Graph::empty(4),
        ];
        for g in &graphs {
            let mis = lexicographic_mis(g);
            assert!(properties::is_maximal_independent_set(g, &mis), "{g:?}");
        }
    }

    #[test]
    fn empty_graph_yields_empty_mis() {
        let g = Graph::empty(0);
        assert!(lexicographic_mis(&g).is_empty());
    }
}
