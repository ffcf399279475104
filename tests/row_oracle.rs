//! The CSR `Graph`, and everything that reads it, held to definitions
//! read off plain neighbour rows built by the pairwise unit-disk rule.
//! The graph must present the same rows; every predicate of `properties`
//! must answer as its definition does on the rows; and every solve, in
//! each configuration `mcds-cli solve` offers, must return a set that
//! meets its (k, m) backbone contract on the rows (a 1-minimal one when
//! pruned), or fail only where no set can meet it.

use mcds::prelude::*;
use mcds_check::gen::{point_sets, usizes, vecs};
use mcds_check::oracle::oracle_cases;
use mcds_check::{prop_assert, prop_assert_eq, Property, TestResult};
use mcds_graph::{traversal, CdsViolation};

/// Sorted neighbour rows, read only by the definitions in this file.
struct RowList(Vec<Vec<usize>>);

impl RowList {
    /// The rows of `g`, copied through its neighbour iterator.
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

    fn len(&self) -> usize {
        self.0.len()
    }

    fn adjacent(&self, u: usize, v: usize) -> bool {
        self.0[u].contains(&v)
    }

    /// Hop distances from `from` through the nodes `keep` admits, by
    /// breadth-first search (`None` where unreachable).
    fn distances(&self, from: usize, keep: &[bool]) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.len()];
        dist[from] = Some(0);
        let mut queue = std::collections::VecDeque::from([from]);
        while let Some(u) = queue.pop_front() {
            for &v in &self.0[u] {
                if keep[v] && dist[v].is_none() {
                    dist[v] = dist[u].map(|d| d + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// The number of connected components of the subgraph `keep` induces.
    fn components(&self, keep: &[bool]) -> usize {
        let mut reached = vec![false; self.len()];
        let mut count = 0;
        for s in 0..self.len() {
            if keep[s] && !reached[s] {
                count += 1;
                for (v, d) in self.distances(s, keep).into_iter().enumerate() {
                    reached[v] |= d.is_some();
                }
            }
        }
        count
    }

    /// Members of `mask` adjacent to `v`.
    fn covered(&self, v: usize, mask: &[bool]) -> usize {
        self.0[v].iter().filter(|&&u| mask[u]).count()
    }

    /// Whether the members of `mask` form a (k, m) backbone: non-empty,
    /// every other node with at least `m` neighbours inside, and a
    /// connected induced subgraph, which for k = 2 (`biconnect`) no single
    /// member's removal disconnects (a singleton or an adjacent pair
    /// counts, as in `fault::check_biconnected`).
    fn is_backbone(&self, mask: &[bool], m: usize, biconnect: bool) -> bool {
        let members: Vec<usize> = (0..self.len()).filter(|&v| mask[v]).collect();
        if members.is_empty()
            || !(0..self.len()).all(|v| mask[v] || self.covered(v, mask) >= m)
            || self.components(mask) != 1
        {
            return false;
        }
        !biconnect
            || members.len() <= 2
            || members.iter().all(|&v| {
                let mut rest = mask.to_vec();
                rest[v] = false;
                self.components(&rest) == 1
            })
    }
}

fn mask(n: usize, set: &[usize]) -> Vec<bool> {
    let mut mask = vec![false; n];
    for &v in set {
        mask[v] = true;
    }
    mask
}

/// `check_cds` read off the rows: the same checks, in the same order,
/// with the same witnesses.
fn cds_violation(rows: &RowList, set: &[usize]) -> Result<(), CdsViolation> {
    let n = rows.len();
    if n > 0 && set.is_empty() {
        return Err(CdsViolation::EmptySet);
    }
    if let Some(&node) = set.iter().find(|&&v| v >= n) {
        return Err(CdsViolation::NotInGraph { node });
    }
    let mask = mask(n, set);
    if let Some(node) = (0..n).find(|&v| !mask[v] && rows.covered(v, &mask) == 0) {
        return Err(CdsViolation::NotDominating { node });
    }
    match rows.components(&mask) {
        components if components > 1 => Err(CdsViolation::NotConnected { components }),
        _ => Ok(()),
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
            let n = rows.len();
            prop_assert_eq!(g.num_nodes(), n);
            prop_assert_eq!(
                g.num_edges(),
                rows.0.iter().map(Vec::len).sum::<usize>() / 2
            );
            prop_assert_eq!(g.is_connected(), rows.components(&vec![true; n]) <= 1);
            for u in 0..n {
                prop_assert_eq!(g.degree(u), rows.0[u].len());
                prop_assert!(
                    g.neighbors_iter(u).eq(rows.0[u].iter().copied()),
                    "neighbour rows differ at node {u}"
                );
                for v in 0..n {
                    prop_assert!(
                        rows.adjacent(u, v) == g.has_edge(u, v),
                        "has_edge differs at ({u}, {v})"
                    );
                }
            }
            TestResult::Pass
        });
}

/// Every predicate of `properties` answers as its definition does on the
/// rows; the CDS predicate is `check_cds(..).is_ok()`, so a set with a
/// member outside the graph reads `false` rather than panicking.
#[test]
fn predicates_match_their_row_list_definitions() {
    Property::new("predicates_match_their_row_list_definitions")
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
                prop_assert_eq!(check.clone(), cds_violation(&rows, set));
                prop_assert_eq!(
                    properties::is_connected_dominating_set(g, set),
                    check.is_ok()
                );
                if set.iter().any(|&v| v >= n) {
                    return TestResult::Pass;
                }
                let mask = mask(n, set);
                let dominating = (0..n).all(|v| mask[v] || rows.covered(v, &mask) > 0);
                let independent = set.iter().all(|&v| rows.covered(v, &mask) == 0);
                let separated = set.len() <= 1
                    || set.iter().all(|&u| {
                        let dist = rows.distances(u, &vec![true; n]);
                        set.iter().any(|&x| dist[x] == Some(2))
                    });
                prop_assert_eq!(properties::is_dominating_set(g, set), dominating);
                prop_assert_eq!(properties::is_independent_set(g, set), independent);
                prop_assert_eq!(
                    properties::is_maximal_independent_set(g, set),
                    independent && dominating
                );
                prop_assert_eq!(properties::has_two_hop_separation(g, set), separated);
                TestResult::Pass
            },
        );
}

/// The solver configurations `(m, biconnect, prune)` checked: the plain
/// m = 1 solve, and with prune the (1,1), (1,2) and (2,2) backbones.
const CONFIGS: [(usize, bool, bool); 4] = [
    (1, false, false),
    (1, false, true),
    (2, false, true),
    (2, true, true),
];

/// Solves `g` with every algorithm in every [`CONFIGS`] entry (verify
/// on, as `mcds-cli solve` runs) and holds each outcome to the rows: a
/// solution is a sorted backbone, 1-minimal when pruned, smaller than
/// the `pruned_from` it reports; a failure needs the whole node set to
/// fail the contract, since any backbone implies the whole set is one.
/// Returns how many solves failed.
fn solves_meet_the_contract(g: &Graph, label: &str) -> Result<usize, String> {
    let rows = RowList::of(g);
    let n = rows.len();
    let mut failed = 0;
    for (m, biconnect, prune) in CONFIGS {
        let feasible = rows.is_backbone(&vec![true; n], m, biconnect);
        for alg in Algorithm::ALL {
            let context = format!("{label}, {alg} m={m} biconnect={biconnect} prune={prune}");
            let solver = Solver::new(alg)
                .verify(true)
                .prune(prune)
                .m(m)
                .biconnect(biconnect);
            let solution = match solver.solve(g) {
                Ok(solution) => solution,
                Err(_) if !feasible => {
                    failed += 1;
                    continue;
                }
                Err(e) => return Err(format!("{context}: failed on a feasible instance: {e}")),
            };
            let nodes = solution.nodes();
            if !nodes.windows(2).all(|w| w[0] < w[1]) || nodes.last().is_some_and(|&v| v >= n) {
                return Err(format!("{context}: not a sorted node set: {nodes:?}"));
            }
            let mask = mask(n, nodes);
            if !rows.is_backbone(&mask, m, biconnect) {
                return Err(format!("{context}: {nodes:?} is not a backbone"));
            }
            if let Some(from) = solution.pruned_from().filter(|&from| from <= nodes.len()) {
                return Err(format!("{context}: pruned from {from} to {}", nodes.len()));
            }
            if prune {
                for &v in nodes {
                    let mut rest = mask.clone();
                    rest[v] = false;
                    if rows.is_backbone(&rest, m, biconnect) {
                        return Err(format!("{context}: {v} is redundant in {nodes:?}"));
                    }
                }
            }
        }
    }
    Ok(failed)
}

#[test]
fn solves_meet_their_contract_on_row_lists() {
    Property::new("solves_meet_their_contract_on_row_lists")
        .cases(48)
        .run(&oracle_cases(14), |case| {
            let udg = Udg::build(case.points.clone());
            let comp = traversal::largest_component(udg.graph());
            let (giant, _) = udg.graph().induced_subgraph(&comp);
            for (g, part) in [(udg.graph(), "whole"), (&giant, "giant")] {
                if let Err(msg) = solves_meet_the_contract(g, part) {
                    return TestResult::Fail(msg);
                }
            }
            TestResult::Pass
        });
}

/// The instance `mcds-cli gen --n 150 --side 6.5 --seed 23 --connected`
/// writes, on which every algorithm solves in every configuration: no
/// solve may fail, and each must meet its contract on the rows.
#[test]
fn cli_instance_solves_meet_their_contract_on_row_lists() {
    use mcds::rng::rngs::StdRng;
    use mcds::rng::SeedableRng;

    let mut rng = StdRng::seed_from_u64(23);
    let udg = mcds::udg::gen::connected_uniform(&mut rng, 150, 6.5, 100).expect("connected");
    assert_eq!(solves_meet_the_contract(udg.graph(), "n = 150"), Ok(0));
}
