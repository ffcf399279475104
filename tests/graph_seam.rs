//! Property tests for the `RandomAccessGraph` seam every solver and
//! predicate is generic over.  The CSR `Graph` is the one production
//! implementation; a test-only second one, plain sorted row lists built
//! from the pairwise distance definition, must present the same view
//! through the trait (its provided `has_edge` and `is_connected` against
//! the CSR's overrides), answer every predicate alike, and solve alike
//! under every configuration.

use mcds::prelude::*;
use mcds_check::gen::{point_sets, usizes, vecs};
use mcds_check::oracle::oracle_cases;
use mcds_check::{prop_assert, prop_assert_eq, Property, TestResult};
use mcds_graph::{traversal, CdsViolation, RandomAccessGraph};

/// Sorted neighbour rows that implement only the trait's required
/// methods, so the provided `has_edge` and `is_connected` run as written.
struct RowList(Vec<Vec<usize>>);

impl RowList {
    /// The rows of `g`, copied through its inherent accessors.
    fn of(g: &Graph) -> RowList {
        RowList(
            (0..g.num_nodes())
                .map(|v| g.neighbors_iter(v).collect())
                .collect(),
        )
    }

    /// The unit-radius disk graph over `points` by pairwise test, with
    /// the edge rule of `Udg::build_naive`.
    fn unit_disk(points: &[Point]) -> RowList {
        let r_sq = 1.0 + mcds::geom::EPS;
        RowList(
            (0..points.len())
                .map(|i| {
                    (0..points.len())
                        .filter(|&j| j != i && points[i].dist_sq(points[j]) <= r_sq)
                        .collect()
                })
                .collect(),
        )
    }
}

impl RandomAccessGraph for RowList {
    type Successors<'a> = std::iter::Copied<std::slice::Iter<'a, usize>>;

    fn num_nodes(&self) -> usize {
        self.0.len()
    }

    fn num_edges(&self) -> usize {
        self.0.iter().map(Vec::len).sum::<usize>() / 2
    }

    fn successors(&self, v: usize) -> Self::Successors<'_> {
        self.0[v].iter().copied()
    }

    fn degree(&self, v: usize) -> usize {
        self.0[v].len()
    }
}

#[test]
fn row_lists_present_the_csr_view() {
    Property::new("row_lists_present_the_csr_view")
        .cases(64)
        .run(&point_sets(0..=120, 5.0), |points| {
            let udg = Udg::build(points.clone());
            let g = udg.graph();
            let rows = RowList::unit_disk(points);
            prop_assert_eq!(RandomAccessGraph::num_nodes(g), rows.num_nodes());
            prop_assert_eq!(RandomAccessGraph::num_edges(g), rows.num_edges());
            prop_assert_eq!(rows.is_connected(), g.is_connected());
            prop_assert_eq!(RandomAccessGraph::is_connected(g), g.is_connected());
            for u in 0..g.num_nodes() {
                prop_assert_eq!(RandomAccessGraph::degree(g, u), rows.degree(u));
                prop_assert!(
                    g.successors(u).eq(rows.successors(u)),
                    "successor streams differ at node {u}"
                );
                for v in 0..g.num_nodes() {
                    prop_assert!(
                        rows.has_edge(u, v) == g.has_edge(u, v),
                        "has_edge differs at ({u}, {v})"
                    );
                }
            }
            TestResult::Pass
        });
}

/// Every predicate of `properties` answers alike on the CSR and on its
/// row-list copy; the CDS predicate is `check_cds(..).is_ok()`, so a set
/// with a member outside the graph reads `false` rather than panicking.
#[test]
fn predicates_agree_across_backends() {
    Property::new("predicates_agree_across_backends")
        .cases(128)
        .run(
            &(point_sets(0..=60, 4.0), vecs(usizes(0..=64), 0..=24)),
            |(points, raw)| {
                let udg = Udg::build(points.clone());
                let g = udg.graph();
                let rows = RowList::of(g);
                let n = g.num_nodes();
                // Members are drawn from 0..=n: `n` is a node outside the graph.
                let set = &raw.iter().map(|&v| v % (n + 1)).collect::<Vec<_>>();
                let check = properties::check_cds(g, set);
                prop_assert_eq!(properties::check_cds(&rows, set), check.clone());
                prop_assert_eq!(
                    properties::is_connected_dominating_set(g, set),
                    check.is_ok()
                );
                prop_assert_eq!(
                    properties::is_connected_dominating_set(&rows, set),
                    check.is_ok()
                );
                if let Some(&v) = set.iter().find(|&&v| v >= n) {
                    prop_assert_eq!(check, Err(CdsViolation::NotInGraph { node: v }));
                    return TestResult::Pass;
                }
                prop_assert_eq!(
                    properties::is_dominating_set(&rows, set),
                    properties::is_dominating_set(g, set)
                );
                prop_assert_eq!(
                    properties::is_independent_set(&rows, set),
                    properties::is_independent_set(g, set)
                );
                prop_assert_eq!(
                    properties::is_maximal_independent_set(&rows, set),
                    properties::is_maximal_independent_set(g, set)
                );
                prop_assert_eq!(
                    properties::has_two_hop_separation(&rows, set),
                    properties::has_two_hop_separation(g, set)
                );
                TestResult::Pass
            },
        );
}

/// The solver configurations the backends must agree under: the plain
/// m = 1 solve, and with prune the (1,1), (1,2) and (2,2) backbones.
const CONFIGS: [(usize, bool, bool); 4] = [
    (1, false, false),
    (1, false, true),
    (2, false, true),
    (2, true, true),
];

/// Solves `g` on the CSR and on its row-list copy with every algorithm
/// under every [`CONFIGS`] entry (verify on, as `mcds-cli solve` runs),
/// and asserts equal CDSs, `pruned_from` and errors.  Returns how many
/// solves failed (on both backends alike).
fn backends_agree(g: &Graph, label: &str) -> Result<usize, String> {
    let rows = RowList::of(g);
    let mut failed = 0;
    for (m, biconnect, prune) in CONFIGS {
        for alg in Algorithm::ALL {
            let solver = Solver::new(alg)
                .verify(true)
                .prune(prune)
                .m(m)
                .biconnect(biconnect);
            let context = format!("{label}, {alg} m={m} biconnect={biconnect} prune={prune}");
            match (solver.solve(g), solver.solve(&rows)) {
                (Ok(a), Ok(b)) => {
                    if (a.cds(), a.pruned_from()) != (b.cds(), b.pruned_from()) {
                        return Err(format!(
                            "{context}: backends disagree ({:?} from {:?} vs {:?} from {:?})",
                            a.nodes(),
                            a.pruned_from(),
                            b.nodes(),
                            b.pruned_from()
                        ));
                    }
                }
                (Err(a), Err(b)) if a == b => failed += 1,
                (a, b) => {
                    return Err(format!(
                        "{context}: backends disagree ({:?} vs {:?})",
                        a.map(|s| s.nodes().to_vec()),
                        b.map(|s| s.nodes().to_vec())
                    ))
                }
            }
        }
    }
    Ok(failed)
}

#[test]
fn solves_agree_across_backends() {
    Property::new("solves_agree_across_backends")
        .cases(48)
        .run(&oracle_cases(14), |case| {
            let udg = Udg::build(case.points.clone());
            let comp = traversal::largest_component(udg.graph());
            let (giant, _) = udg.graph().induced_subgraph(&comp);
            for (g, part) in [(udg.graph(), "whole"), (&giant, "giant")] {
                if let Err(msg) = backends_agree(g, part) {
                    return TestResult::Fail(msg);
                }
            }
            TestResult::Pass
        });
}

/// The instance `mcds-cli gen --n 150 --side 6.5 --seed 23 --connected`
/// writes, on which every algorithm solves at m = 1 and m = 2, with and
/// without `biconnect`: each solve must succeed, alike on both backends.
#[test]
fn cli_instance_solves_alike_on_both_backends() {
    use mcds::rng::rngs::StdRng;
    use mcds::rng::SeedableRng;

    let mut rng = StdRng::seed_from_u64(23);
    let udg = mcds::udg::gen::connected_uniform(&mut rng, 150, 6.5, 100).expect("connected");
    assert_eq!(backends_agree(udg.graph(), "n = 150"), Ok(0));
}
