//! The [`Cds`] result type and the typed CDS checker.

use crate::CdsError;
use mcds_graph::{node_set, properties, Graph};
use std::fmt;

/// Checks that `set` is a connected dominating set of `g`, reporting the
/// first violated property as a typed [`CdsError`].
///
/// This is a thin adapter over the substrate's
/// [`mcds_graph::properties::check_cds`]: the one reference checker runs,
/// and its typed [`mcds_graph::CdsViolation`] is lifted into [`CdsError`]
/// with the historical diagnostic strings intact.
///
/// # Errors
///
/// * [`CdsError::InvalidSet`] if `set` is empty while `g` has nodes, or
///   contains an out-of-range node,
/// * [`CdsError::NotDominating`] naming the first undominated node,
/// * [`CdsError::NotConnected`] if `G[set]` is disconnected.
pub fn check_cds(g: &Graph, set: &[usize]) -> Result<(), CdsError> {
    properties::check_cds(g, set).map_err(Into::into)
}

/// A connected dominating set produced by a two-phased algorithm, keeping
/// the phase structure visible: *dominators* (the phase-1 MIS or
/// dominating set) and *connectors* (the phase-2 additions).
///
/// The node set is the disjoint union of the two roles; `Cds` normalizes
/// and deduplicates on construction (a connector that is also a dominator
/// is recorded once, as a dominator).
#[derive(Clone, PartialEq, Eq)]
pub struct Cds {
    dominators: Vec<usize>,
    connectors: Vec<usize>,
    nodes: Vec<usize>,
}

impl Cds {
    /// Assembles a result from the two phases.  Duplicates within and
    /// across the role lists are removed (dominator role wins).
    pub fn new(dominators: Vec<usize>, connectors: Vec<usize>) -> Self {
        let dominators = node_set(dominators);
        let connectors: Vec<usize> = node_set(connectors)
            .into_iter()
            .filter(|c| dominators.binary_search(c).is_err())
            .collect();
        let nodes = merge_disjoint(&dominators, &connectors);
        Cds {
            dominators,
            connectors,
            nodes,
        }
    }

    /// The phase-1 dominators (sorted).
    pub fn dominators(&self) -> &[usize] {
        &self.dominators
    }

    /// The phase-2 connectors (sorted, disjoint from the dominators).
    pub fn connectors(&self) -> &[usize] {
        &self.connectors
    }

    /// All CDS nodes (sorted).
    pub fn nodes(&self) -> &[usize] {
        &self.nodes
    }

    /// Total CDS size `|I ∪ C|`.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the CDS has no nodes (only valid for the empty
    /// graph).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Returns `true` if `v` belongs to the CDS.
    pub fn contains(&self, v: usize) -> bool {
        self.nodes.binary_search(&v).is_ok()
    }

    /// Verifies the result against `g` using the reference predicates.
    ///
    /// # Errors
    ///
    /// Returns the first violated property as a typed [`CdsError`] (see
    /// [`check_cds`]).
    pub fn verify(&self, g: &Graph) -> Result<(), CdsError> {
        check_cds(g, &self.nodes)
    }
}

/// The sorted union of two sorted, disjoint node lists.
fn merge_disjoint(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

impl fmt::Debug for Cds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Cds(|I|={}, |C|={}, total={})",
            self.dominators.len(),
            self.connectors.len(),
            self.nodes.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_graph::Graph;

    #[test]
    fn roles_are_normalized_and_disjoint() {
        let cds = Cds::new(vec![3, 1, 3], vec![2, 1, 5]);
        assert_eq!(cds.dominators(), &[1, 3]);
        assert_eq!(cds.connectors(), &[2, 5]); // 1 dropped: dominator wins
        assert_eq!(cds.nodes(), &[1, 2, 3, 5]);
        assert_eq!(cds.len(), 4);
        assert!(cds.contains(5));
        assert!(!cds.contains(4));
        assert!(!cds.is_empty());
    }

    #[test]
    fn verify_delegates_to_reference_checker() {
        let g = Graph::path(5);
        let good = Cds::new(vec![0, 2, 4], vec![1, 3]);
        assert!(good.verify(&g).is_ok());
        let bad = Cds::new(vec![0, 4], vec![]);
        assert!(bad.verify(&g).is_err());
    }

    #[test]
    fn check_reports_first_violation_typed() {
        let g = Graph::path(5);
        assert_eq!(check_cds(&g, &[1, 2, 3]), Ok(()));
        // Node 2 is the first one with no dominator in {0, 4}.
        assert_eq!(
            check_cds(&g, &[0, 4]),
            Err(CdsError::NotDominating { node: 2 })
        );
        // {0, 1, 3, 4} dominates but G[{0,1,3,4}] splits at the missing 2.
        assert_eq!(check_cds(&g, &[0, 1, 3, 4]), Err(CdsError::NotConnected));
        assert!(matches!(check_cds(&g, &[]), Err(CdsError::InvalidSet(_))));
        assert_eq!(check_cds(&Graph::empty(0), &[]), Ok(()));
    }

    #[test]
    fn typed_checker_agrees_with_reference_checker() {
        let g = Graph::cycle(9);
        for set in [
            vec![],
            vec![0],
            vec![0, 1, 2, 3, 4, 5, 6, 7],
            vec![0, 3, 6],
            (0..9).collect::<Vec<_>>(),
        ] {
            assert_eq!(
                check_cds(&g, &set).is_ok(),
                mcds_graph::properties::check_cds(&g, &set).is_ok(),
                "{set:?}"
            );
        }
    }

    #[test]
    fn debug_shows_phase_sizes() {
        let cds = Cds::new(vec![0], vec![1]);
        let s = format!("{cds:?}");
        assert!(s.contains("|I|=1"));
        assert!(s.contains("|C|=1"));
    }
}
