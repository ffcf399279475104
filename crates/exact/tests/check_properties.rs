//! Property-based cross-checks of the exact solvers against the
//! exhaustive reference implementations, on tiny random graphs, on the
//! in-tree `mcds-check` engine.
//!
//! A graph is drawn as a node count in `2..=10` and up to 19 endpoint
//! pairs, reduced modulo the node count with self-loops dropped.

use mcds_check::gen::{usizes, vecs, UsizeGen, VecGen};
use mcds_check::{prop_assert, prop_assert_eq, Property, TestResult};
use mcds_exact::{
    brute, independence_number, max_independent_set, min_connected_dominating_set,
    min_dominating_set,
};
use mcds_graph::{properties, Graph};

type GraphGen = (UsizeGen, VecGen<(UsizeGen, UsizeGen)>);

fn tiny_graphs() -> GraphGen {
    (
        usizes(2..=10),
        vecs((usizes(0..=1023), usizes(0..=1023)), 0..=19),
    )
}

fn graph(&(n, ref raw): &(usize, Vec<(usize, usize)>)) -> Graph {
    let edges = raw
        .iter()
        .map(|&(u, v)| (u % n, v % n))
        .filter(|(u, v)| u != v);
    Graph::from_edges(n, edges.collect::<Vec<_>>())
}

#[test]
fn alpha_matches_brute() {
    Property::new("alpha_matches_brute")
        .cases(64)
        .run(&tiny_graphs(), |drawn| {
            let g = graph(drawn);
            let fast = max_independent_set(&g);
            prop_assert!(properties::is_independent_set(&g, &fast));
            prop_assert_eq!(fast.len(), brute::max_independent_set_brute(&g).len());
            TestResult::Pass
        });
}

#[test]
fn gamma_matches_brute() {
    Property::new("gamma_matches_brute")
        .cases(64)
        .run(&tiny_graphs(), |drawn| {
            let g = graph(drawn);
            let fast = min_dominating_set(&g);
            prop_assert!(properties::is_dominating_set(&g, &fast));
            prop_assert_eq!(fast.len(), brute::min_dominating_set_brute(&g).len());
            TestResult::Pass
        });
}

#[test]
fn gamma_c_matches_brute() {
    Property::new("gamma_c_matches_brute")
        .cases(64)
        .run(&tiny_graphs(), |drawn| {
            let g = graph(drawn);
            let fast = min_connected_dominating_set(&g);
            let slow = brute::min_connected_dominating_set_brute(&g);
            match (fast, slow) {
                (Some(f), Some(s)) => {
                    prop_assert!(properties::check_cds(&g, &f).is_ok());
                    prop_assert_eq!(f.len(), s.len());
                }
                (None, None) => {} // both agree: disconnected
                (f, s) => return TestResult::Fail(format!("solver disagreement: {f:?} vs {s:?}")),
            }
            TestResult::Pass
        });
}

#[test]
fn solver_chain_inequalities() {
    Property::new("solver_chain_inequalities")
        .cases(64)
        .run(&tiny_graphs(), |drawn| {
            // γ ≤ γ_c (when γ_c exists), and γ ≤ α: every maximal
            // independent set is dominating, so γ is at most the size of
            // any of them, hence at most α.
            let g = graph(drawn);
            let gamma = min_dominating_set(&g).len();
            let alpha = independence_number(&g);
            prop_assert!(gamma <= alpha.max(1));
            if let Some(cds) = min_connected_dominating_set(&g) {
                prop_assert!(gamma <= cds.len().max(1));
            }
            TestResult::Pass
        });
}
