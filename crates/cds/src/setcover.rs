//! Baseline two-phased constructions: Chvátal set-cover dominators \[2\]
//! and arbitrary-MIS dominators \[1\]/\[9\].

use mcds_graph::RandomAccessGraph;

use crate::{Algorithm, Cds, CdsError, Solution, Solver};

/// Chvátal's greedy Set Cover applied to domination: repeatedly pick the
/// node whose closed neighborhood covers the most still-uncovered nodes
/// (ties toward smaller id).  Returned sorted.
///
/// This is phase 1 of the Das–Bharghavan style algorithm \[2\]; its
/// approximation ratio for *domination* is `H(Δ+1)` (logarithmic), which
/// is why the paper's constant-ratio MIS-based algorithms supersede it.
///
/// The rule is the m-fold election of [`crate::fault`] at `m = 1` with
/// unit weights: an uncovered node has deficit 1 and a covered one 0, so
/// a node's gain is the number of uncovered nodes in its closed
/// neighborhood.  That election is the implementation (and so Chvátal
/// runs bump the `mfold.*` counters).
///
/// The result is a dominating set but generally neither independent nor
/// connected.
pub fn chvatal_dominating_set<G: RandomAccessGraph>(g: &G) -> Vec<usize> {
    crate::fault::m_fold_dominators(g, 1)
}

/// The full Chvátal-based two-phase baseline: greedy set-cover dominators,
/// then shortest-path connectors.
///
/// Set-cover dominators lack the 2-hop separation property (two dominator
/// components can be 3 hops apart), so the phase-2 rule is
/// [`crate::connect::path_connectors`] rather than the paper's max-gain
/// rule.  Thin wrapper over [`Solver`]; prefer
/// `Solver::new(Algorithm::ChvatalSetCover).solve(g)` in new code.
///
/// # Errors
///
/// * [`CdsError::EmptyGraph`] if `g` has no nodes,
/// * [`CdsError::DisconnectedGraph`] if `g` is disconnected.
pub fn chvatal_cds<G: RandomAccessGraph>(g: &G) -> Result<Cds, CdsError> {
    Solver::new(Algorithm::ChvatalSetCover)
        .solve(g)
        .map(Solution::into_cds)
}

/// The arbitrary-MIS two-phase baseline of \[1\]/\[9\]: a lexicographic
/// first-fit MIS (oblivious to the topology) connected by max-gain
/// merges with a shortest-path fallback.
///
/// Unlike the paper's BFS-ordered MIS, an arbitrary MIS lacks the 2-hop
/// separation property — its components can be 3 hops apart, where no
/// single node merges two of them (e.g. `{0, 3, 5}` on a 6-path).  The
/// connector rule is therefore [`crate::connect::max_gain_then_paths`].
/// This structural difference is exactly the motivation for the special
/// MIS in \[4\]/\[8\]/\[10\].  Thin wrapper over [`Solver`]; prefer
/// `Solver::new(Algorithm::ArbitraryMis).solve(g)` in new code.
///
/// # Errors
///
/// * [`CdsError::EmptyGraph`] if `g` has no nodes,
/// * [`CdsError::DisconnectedGraph`] if `g` is disconnected.
pub fn arbitrary_mis_cds<G: RandomAccessGraph>(g: &G) -> Result<Cds, CdsError> {
    Solver::new(Algorithm::ArbitraryMis)
        .solve(g)
        .map(Solution::into_cds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_graph::{properties, Graph};

    #[test]
    fn chvatal_ds_dominates() {
        let graphs = [
            Graph::path(11),
            Graph::cycle(9),
            Graph::star(7),
            Graph::complete(5),
            Graph::from_edges(6, [(0, 1), (2, 3), (4, 5)]), // disconnected is fine for DS
        ];
        for g in &graphs {
            let ds = chvatal_dominating_set(g);
            assert!(properties::is_dominating_set(g, &ds), "{g:?}");
        }
    }

    #[test]
    fn chvatal_picks_hub_on_star() {
        let g = Graph::star(20);
        assert_eq!(chvatal_dominating_set(&g), vec![0]);
        let cds = chvatal_cds(&g).unwrap();
        assert_eq!(cds.nodes(), &[0]);
    }

    #[test]
    fn chvatal_cds_is_valid() {
        let graphs = [Graph::path(13), Graph::cycle(10), Graph::complete(4)];
        for g in &graphs {
            let cds = chvatal_cds(g).unwrap();
            cds.verify(g).unwrap_or_else(|e| panic!("{g:?}: {e}"));
        }
    }

    #[test]
    fn arbitrary_mis_cds_is_valid() {
        let graphs = [Graph::path(13), Graph::cycle(10), Graph::star(8)];
        for g in &graphs {
            let cds = arbitrary_mis_cds(g).unwrap();
            cds.verify(g).unwrap_or_else(|e| panic!("{g:?}: {e}"));
            assert!(properties::is_maximal_independent_set(g, cds.dominators()));
        }
    }

    #[test]
    fn baselines_error_on_bad_graphs() {
        let empty = Graph::empty(0);
        assert_eq!(chvatal_cds(&empty), Err(CdsError::EmptyGraph));
        assert_eq!(arbitrary_mis_cds(&empty), Err(CdsError::EmptyGraph));
        let split = Graph::from_edges(4, [(0, 1), (2, 3)]);
        assert_eq!(chvatal_cds(&split), Err(CdsError::DisconnectedGraph));
        assert_eq!(arbitrary_mis_cds(&split), Err(CdsError::DisconnectedGraph));
    }

    #[test]
    fn chvatal_handles_three_hop_dominator_gaps() {
        // Path of 7: Chvátal picks nodes 1 and 5 (coverage 3 each), which
        // are 4 hops apart -> needs the path connector fallback.
        let g = Graph::path(7);
        let ds = chvatal_dominating_set(&g);
        let cds = chvatal_cds(&g).unwrap();
        cds.verify(&g).unwrap();
        assert!(cds.len() >= ds.len());
    }
}
