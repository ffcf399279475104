//! The defining predicates of the paper's objects: dominating sets,
//! connected dominating sets, independent sets and maximal independent
//! sets.
//!
//! Every algorithm crate verifies its outputs against these reference
//! predicates, and the property-test suites assert them on random inputs.
//! All predicates read only the sorted neighbour lists of the CSR
//! [`Graph`].

use std::fmt;

use crate::{node_mask, subsets, Graph};

/// The first violated CDS property of a candidate set, as found by
/// [`check_cds`].
///
/// The `Display` output reproduces the historical string diagnostics
/// verbatim, so anything that printed the old `Result<(), String>` error
/// (CLI output, test messages) is unchanged; the variants make the
/// witness data (node ids, component counts) programmatically available.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdsViolation {
    /// The set is empty while the graph has nodes.
    EmptySet,
    /// A set member is not a node of the graph.
    NotInGraph {
        /// The first out-of-range member found.
        node: usize,
    },
    /// Some node has no dominator: neither itself nor any neighbor is in
    /// the set.
    NotDominating {
        /// The first node found undominated.
        node: usize,
    },
    /// The subgraph induced by the set is disconnected.
    NotConnected {
        /// Number of connected components of the induced subgraph.
        components: usize,
    },
}

impl fmt::Display for CdsViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CdsViolation::EmptySet => {
                write!(f, "empty set cannot dominate a non-empty graph")
            }
            CdsViolation::NotInGraph { node } => {
                write!(f, "node {node} is not a node of the graph")
            }
            CdsViolation::NotDominating { node } => write!(f, "node {node} is not dominated"),
            CdsViolation::NotConnected { .. } => write!(f, "induced subgraph is disconnected"),
        }
    }
}

impl std::error::Error for CdsViolation {}

/// Returns `true` if `set` is a dominating set of `g`: every node outside
/// `set` has at least one neighbor in `set`.
///
/// Note the empty set dominates the empty graph, and an isolated node can
/// only be dominated by itself.
///
/// ```
/// use mcds_graph::{Graph, properties::is_dominating_set};
/// let g = Graph::star(5);
/// assert!(is_dominating_set(&g, &[0]));
/// assert!(!is_dominating_set(&g, &[1]));
/// ```
pub fn is_dominating_set(g: &Graph, set: &[usize]) -> bool {
    let mask = node_mask(g.num_nodes(), set);
    (0..g.num_nodes()).all(|v| mask[v] || g.neighbors_iter(v).any(|u| mask[u]))
}

/// Returns `true` if `set` is a *connected* dominating set (CDS) of `g`:
/// dominating, and `G[set]` is connected.
///
/// The paper additionally requires a CDS to be non-empty whenever the graph
/// has nodes (an empty set cannot dominate a non-empty graph, so this is
/// implied except for the vacuous empty graph).
///
/// This is [`check_cds`]`(g, set).is_ok()`: a set with a member that is
/// not a node of `g` is not a CDS of `g`, so such a set reads `false`
/// here, where the mask-based predicates above panic.
pub fn is_connected_dominating_set(g: &Graph, set: &[usize]) -> bool {
    check_cds(g, set).is_ok()
}

/// Returns `true` if `set` is an independent set of `g`: no two members
/// are adjacent.
pub fn is_independent_set(g: &Graph, set: &[usize]) -> bool {
    let mask = node_mask(g.num_nodes(), set);
    set.iter().all(|&v| g.neighbors_iter(v).all(|u| !mask[u]))
}

/// Returns `true` if `set` is a *maximal* independent set of `g`:
/// independent, and every node outside has a neighbor inside (i.e. it is
/// also a dominating set — the standard equivalence the two-phased
/// algorithms rely on).
pub fn is_maximal_independent_set(g: &Graph, set: &[usize]) -> bool {
    is_independent_set(g, set) && is_dominating_set(g, set)
}

/// Returns `true` if `set` has the *2-hop separation* property within the
/// connected graph `g`: for every member `u`, some other member lies at
/// hop distance exactly 2 — unless `set` is a singleton.
///
/// The BFS-ordered first-fit MIS of the paper satisfies this (it is what
/// makes Lemma 9 work: any two components of `G[I ∪ U]` can be bridged by
/// a single connector).
pub fn has_two_hop_separation(g: &Graph, set: &[usize]) -> bool {
    if set.len() <= 1 {
        return true;
    }
    let mask = node_mask(g.num_nodes(), set);
    set.iter().all(|&u| {
        // Some member at distance exactly 2: a neighbor's neighbor.
        g.neighbors_iter(u).any(|w| {
            g.neighbors_iter(w)
                .any(|x| x != u && mask[x] && !g.has_edge(u, x))
        })
    })
}

/// Verifies a CDS and explains the first violation found, for debuggable
/// assertions in tests and the experiment harness.
///
/// Returns `Ok(())` for a valid CDS, or the typed [`CdsViolation`] naming
/// the violated property and a witness.  Unlike the membership-mask
/// predicates above, out-of-range members are reported as
/// [`CdsViolation::NotInGraph`] rather than panicking.
///
/// # Errors
///
/// The first violation in checking order: set well-formedness, then
/// domination, then induced connectivity.
pub fn check_cds(g: &Graph, set: &[usize]) -> Result<(), CdsViolation> {
    let n = g.num_nodes();
    if n > 0 && set.is_empty() {
        return Err(CdsViolation::EmptySet);
    }
    let mut mask = vec![false; n];
    for &v in set {
        if v >= n {
            return Err(CdsViolation::NotInGraph { node: v });
        }
        mask[v] = true;
    }
    for v in 0..n {
        if !mask[v] && !g.neighbors_iter(v).any(|u| mask[u]) {
            return Err(CdsViolation::NotDominating { node: v });
        }
    }
    let components = subsets::count_components(g, &mask);
    if components > 1 {
        return Err(CdsViolation::NotConnected { components });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    #[test]
    fn domination_on_star_and_path() {
        let star = Graph::star(6);
        assert!(is_dominating_set(&star, &[0]));
        assert!(is_dominating_set(&star, &[0, 3]));
        assert!(!is_dominating_set(&star, &[1, 2]));
        let path = Graph::path(6);
        assert!(is_dominating_set(&path, &[1, 4]));
        assert!(!is_dominating_set(&path, &[1, 3])); // node 5 uncovered
    }

    #[test]
    fn cds_needs_connectivity() {
        let path = Graph::path(6);
        assert!(is_dominating_set(&path, &[1, 4]));
        assert!(!is_connected_dominating_set(&path, &[1, 4]));
        assert!(is_connected_dominating_set(&path, &[1, 2, 3, 4]));
    }

    #[test]
    fn independence_and_maximality() {
        let cycle = Graph::cycle(6);
        assert!(is_independent_set(&cycle, &[0, 2, 4]));
        assert!(is_maximal_independent_set(&cycle, &[0, 2, 4]));
        assert!(is_independent_set(&cycle, &[0, 3]));
        assert!(is_maximal_independent_set(&cycle, &[0, 3])); // {0,3} dominates C6
        assert!(!is_maximal_independent_set(&cycle, &[0])); // node 3 undominated
        assert!(!is_independent_set(&cycle, &[0, 1]));
        assert!(is_independent_set(&cycle, &[]));
        assert!(!is_maximal_independent_set(&cycle, &[]));
    }

    #[test]
    fn two_hop_separation() {
        // Path of 5: MIS {0, 2, 4} has 2-hop separation.
        let path = Graph::path(5);
        assert!(has_two_hop_separation(&path, &[0, 2, 4]));
        // {0, 3} on a path of 6: hop distance 3, no 2-hop neighbor for 0.
        let path6 = Graph::path(6);
        assert!(!has_two_hop_separation(&path6, &[0, 3]));
        assert!(has_two_hop_separation(&path6, &[2]));
        assert!(has_two_hop_separation(&path6, &[]));
    }

    #[test]
    fn check_cds_diagnostics() {
        let path = Graph::path(5);
        assert!(check_cds(&path, &[1, 2, 3]).is_ok());
        let err = check_cds(&path, &[1, 3]).unwrap_err();
        assert_eq!(err, CdsViolation::NotConnected { components: 2 });
        assert!(err.to_string().contains("disconnected"), "{err}");
        let err2 = check_cds(&path, &[0, 1]).unwrap_err();
        assert_eq!(err2, CdsViolation::NotDominating { node: 3 });
        assert!(err2.to_string().contains("not dominated"), "{err2}");
        let err3 = check_cds(&path, &[]).unwrap_err();
        assert_eq!(err3, CdsViolation::EmptySet);
        assert!(err3.to_string().contains("empty"), "{err3}");
        assert!(check_cds(&Graph::empty(0), &[]).is_ok());
    }

    #[test]
    fn check_cds_reports_out_of_range_instead_of_panicking() {
        let path = Graph::path(3);
        assert_eq!(
            check_cds(&path, &[1, 9]),
            Err(CdsViolation::NotInGraph { node: 9 })
        );
        // The boolean form reads the same verdict: `{1}` is a CDS of the
        // path, and an out-of-range member makes a set no CDS.
        assert!(is_connected_dominating_set(&path, &[1]));
        assert!(!is_connected_dominating_set(&path, &[1, 9]));
        assert!(CdsViolation::NotInGraph { node: 9 }
            .to_string()
            .contains("node 9"));
    }

    #[test]
    fn display_strings_match_the_historical_diagnostics() {
        assert_eq!(
            CdsViolation::EmptySet.to_string(),
            "empty set cannot dominate a non-empty graph"
        );
        assert_eq!(
            CdsViolation::NotDominating { node: 7 }.to_string(),
            "node 7 is not dominated"
        );
        assert_eq!(
            CdsViolation::NotConnected { components: 3 }.to_string(),
            "induced subgraph is disconnected"
        );
    }

    #[test]
    fn empty_graph_conventions() {
        let g = Graph::empty(0);
        assert!(is_dominating_set(&g, &[]));
        assert!(is_connected_dominating_set(&g, &[]));
        assert!(is_independent_set(&g, &[]));
        assert!(is_maximal_independent_set(&g, &[]));
    }
}
