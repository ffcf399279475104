//! The BFS-ordered first-fit MIS of the paper's phase 1.

use mcds_graph::{traversal::BfsTree, RandomAccessGraph};

/// Runs the first-fit MIS scan over `order`: a node joins the MIS iff none
/// of its earlier-scanned neighbors already joined.
///
/// The output is always an independent set; it is *maximal* (and hence
/// dominating) iff `order` covers every node of the graph.
///
/// ```
/// use mcds_graph::Graph;
/// use mcds_mis::first_fit;
/// let g = Graph::path(5);
/// assert_eq!(first_fit(&g, &[0, 1, 2, 3, 4]), vec![0, 2, 4]);
/// assert_eq!(first_fit(&g, &[2, 0, 1, 3, 4]), vec![0, 2, 4]);
/// ```
pub fn first_fit<G: RandomAccessGraph>(g: &G, order: &[usize]) -> Vec<usize> {
    let n = g.num_nodes();
    let mut in_mis = vec![false; n];
    let mut blocked = vec![false; n];
    let mut mis = Vec::new();
    for &v in order {
        assert!(v < n, "order contains node {v} out of range");
        if blocked[v] || in_mis[v] {
            continue;
        }
        in_mis[v] = true;
        mis.push(v);
        for u in g.successors(v) {
            blocked[u] = true;
        }
    }
    mis.sort_unstable();
    mis
}

/// Phase-1 output of the paper's algorithms: the BFS spanning tree `T`
/// rooted at the leader, and the MIS `I` selected first-fit in the
/// `(level, id)` rank order of `T`.
///
/// Properties guaranteed on a connected graph (and asserted by this
/// crate's tests):
///
/// * `I` is a maximal independent set, hence a dominating set;
/// * the root belongs to `I` (it is scanned first);
/// * `I` has the 2-hop separation property the paper's Lemma 9 needs;
/// * every non-root member of `I` has a BFS parent adjacent to an
///   earlier-ranked member — the fact that makes the WAF connector set
///   work.
#[derive(Debug, Clone)]
pub struct BfsMis {
    tree: BfsTree,
    mis: Vec<usize>,
    /// Position in the tree's order; `u32::MAX` for unreached nodes.
    rank: Vec<u32>,
}

impl BfsMis {
    /// Computes the BFS tree from `root` and the first-fit MIS in its
    /// `(level, id)` rank order.
    ///
    /// On a disconnected graph only the root's component is processed
    /// (matching the distributed protocol, which cannot reach other
    /// components); the MIS is maximal within that component.
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of range.
    pub fn compute<G: RandomAccessGraph>(g: &G, root: usize) -> Self {
        let tree = BfsTree::rooted_at(g, root);
        let mis = first_fit(g, tree.order());
        let mut rank = vec![u32::MAX; g.num_nodes()];
        for (r, &v) in tree.order().iter().enumerate() {
            rank[v] = r as u32;
        }
        BfsMis { tree, mis, rank }
    }

    /// The selected maximal independent set (sorted).  The paper calls
    /// these nodes *dominators*.
    pub fn mis(&self) -> &[usize] {
        &self.mis
    }

    /// The rooted BFS spanning tree `T`.
    pub fn tree(&self) -> &BfsTree {
        &self.tree
    }

    /// The scan rank of node `v` (position in the `(level, id)` order), or
    /// `None` if `v` was unreachable from the root.
    pub fn rank(&self, v: usize) -> Option<usize> {
        (self.rank[v] != u32::MAX).then(|| self.rank[v] as usize)
    }

    /// Number of dominators.
    pub fn len(&self) -> usize {
        self.mis.len()
    }

    /// Returns `true` if the MIS is empty (only possible on an empty
    /// scan).
    pub fn is_empty(&self) -> bool {
        self.mis.is_empty()
    }

    /// Returns `true` if `v` is a dominator.
    pub fn contains(&self, v: usize) -> bool {
        self.mis.binary_search(&v).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_graph::{properties, Graph};

    #[test]
    fn path_first_fit_takes_alternating_nodes() {
        let g = Graph::path(6);
        let r = BfsMis::compute(&g, 0);
        assert_eq!(r.mis(), &[0, 2, 4]);
        assert!(r.contains(0));
        assert!(!r.contains(1));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn root_is_always_selected() {
        for root in 0..5 {
            let g = Graph::cycle(5);
            let r = BfsMis::compute(&g, root);
            assert!(r.contains(root), "root {root}");
        }
    }

    #[test]
    fn mis_is_maximal_and_two_hop_separated_on_connected_graphs() {
        let graphs = [
            Graph::path(12),
            Graph::cycle(9),
            Graph::star(8),
            Graph::complete(6),
            Graph::from_edges(
                8,
                [
                    (0, 1),
                    (0, 2),
                    (1, 3),
                    (2, 4),
                    (3, 5),
                    (4, 6),
                    (5, 7),
                    (6, 7),
                ],
            ),
        ];
        for g in &graphs {
            let r = BfsMis::compute(g, 0);
            assert!(properties::is_maximal_independent_set(g, r.mis()), "{g:?}");
            assert!(properties::has_two_hop_separation(g, r.mis()), "{g:?}");
        }
    }

    #[test]
    fn parents_of_dominators_touch_earlier_dominators() {
        // The structural fact behind the WAF connectors: for each
        // dominator u (other than the root), its BFS parent is adjacent to
        // some dominator ranked before u.
        let g = Graph::from_edges(
            10,
            [
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 4),
                (3, 5),
                (4, 6),
                (5, 7),
                (6, 8),
                (7, 9),
                (8, 9),
            ],
        );
        let r = BfsMis::compute(&g, 0);
        for &u in r.mis() {
            if u == r.tree().root() {
                continue;
            }
            let p = r.tree().parent(u).expect("non-root dominator has parent");
            let ok = g
                .neighbors_iter(p)
                .any(|w| r.contains(w) && r.rank(w).unwrap() < r.rank(u).unwrap());
            assert!(ok, "parent {p} of dominator {u} sees no earlier dominator");
        }
    }

    #[test]
    fn disconnected_graph_covers_root_component_only() {
        let g = Graph::from_edges(5, [(0, 1), (2, 3)]);
        let r = BfsMis::compute(&g, 0);
        assert_eq!(r.mis(), &[0]);
        assert_eq!(r.rank(2), None);
        assert_eq!(r.rank(0), Some(0));
    }

    #[test]
    fn first_fit_empty_order_gives_empty_set() {
        let g = Graph::path(3);
        assert!(first_fit(&g, &[]).is_empty());
        let r = BfsMis::compute(&Graph::empty(1), 0);
        assert_eq!(r.mis(), &[0]);
        assert!(!r.is_empty());
    }

    #[test]
    fn duplicate_order_entries_are_harmless() {
        let g = Graph::path(4);
        assert_eq!(first_fit(&g, &[0, 0, 1, 2, 2, 3]), vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn order_out_of_range_panics() {
        let g = Graph::path(2);
        let _ = first_fit(&g, &[5]);
    }
}
