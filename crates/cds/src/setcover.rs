//! Phase 1 of the Chvátal baseline, [`crate::Algorithm::ChvatalSetCover`]:
//! greedy Set Cover dominators \[2\].

use mcds_graph::Graph;

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
pub fn chvatal_dominating_set(g: &Graph) -> Vec<usize> {
    crate::fault::m_fold_dominators(g, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, Cds, CdsError, Solver};
    use mcds_graph::{properties, Graph};

    fn solve(alg: Algorithm, g: &Graph) -> Cds {
        Solver::new(alg).solve(g).unwrap().into_cds()
    }

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
        let cds = solve(Algorithm::ChvatalSetCover, &g);
        assert_eq!(cds.nodes(), &[0]);
    }

    #[test]
    fn chvatal_cds_is_valid() {
        let graphs = [Graph::path(13), Graph::cycle(10), Graph::complete(4)];
        for g in &graphs {
            let cds = solve(Algorithm::ChvatalSetCover, g);
            cds.verify(g).unwrap_or_else(|e| panic!("{g:?}: {e}"));
        }
    }

    #[test]
    fn arbitrary_mis_cds_is_valid() {
        let graphs = [Graph::path(13), Graph::cycle(10), Graph::star(8)];
        for g in &graphs {
            let cds = solve(Algorithm::ArbitraryMis, g);
            cds.verify(g).unwrap_or_else(|e| panic!("{g:?}: {e}"));
            assert!(properties::is_maximal_independent_set(g, cds.dominators()));
        }
    }

    #[test]
    fn baselines_error_on_bad_graphs() {
        let split = Graph::from_edges(4, [(0, 1), (2, 3)]);
        for alg in [Algorithm::ChvatalSetCover, Algorithm::ArbitraryMis] {
            let solver = Solver::new(alg);
            assert_eq!(
                solver.solve(&Graph::empty(0)).err(),
                Some(CdsError::EmptyGraph)
            );
            assert_eq!(
                solver.solve(&split).err(),
                Some(CdsError::DisconnectedGraph)
            );
        }
    }

    #[test]
    fn chvatal_handles_three_hop_dominator_gaps() {
        // Path of 7: Chvátal picks nodes 1 and 5 (coverage 3 each), which
        // are 4 hops apart -> needs the path connector fallback.
        let g = Graph::path(7);
        let ds = chvatal_dominating_set(&g);
        let cds = solve(Algorithm::ChvatalSetCover, &g);
        cds.verify(&g).unwrap();
        assert!(cds.len() >= ds.len());
    }
}
