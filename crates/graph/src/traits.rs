//! [`RandomAccessGraph`]: the per-node neighbour queries every solver is
//! generic over.
//!
//! Every algorithm in the workspace needs only sorted neighbour
//! enumeration, and the trait captures exactly that.  The CSR
//! [`Graph`](crate::Graph) implements it for every solve, churn and
//! serve path; the resident topology's slot rows implement it too, so
//! the exact local cut-vertex search
//! ([`LocalSearch`](crate::subsets::LocalSearch)) runs over a patched
//! topology without building a graph first.
//!
//! All implementations must present the same canonical view: simple,
//! undirected, nodes `0..n`, neighbour lists sorted ascending with no
//! duplicates and no self-loops.  Determinism of every solver rests on
//! that ordering.

/// Per-node random access to sorted neighbour lists.
///
/// This is the bound every solver takes.  Implementations provide the
/// node and edge counts, the successor iterator and the degree;
/// `has_edge` and `is_connected` have default implementations in terms
/// of them (overridable where a faster path exists, e.g. binary search
/// on a CSR slice).
pub trait RandomAccessGraph {
    /// The sorted successor iterator for one node.
    type Successors<'a>: Iterator<Item = usize> + 'a
    where
        Self: 'a;

    /// Number of nodes.
    fn num_nodes(&self) -> usize;

    /// Number of undirected edges.
    fn num_edges(&self) -> usize;

    /// Iterates over the neighbors of `v` in ascending order.
    ///
    /// # Panics
    ///
    /// May panic if `v ≥ num_nodes()`.
    fn successors(&self, v: usize) -> Self::Successors<'_>;

    /// Degree of `v`.
    fn degree(&self, v: usize) -> usize;

    /// Adjacency test; the default scans the sorted list with early exit.
    fn has_edge(&self, u: usize, v: usize) -> bool {
        for w in self.successors(u) {
            if w >= v {
                return w == v;
            }
        }
        false
    }

    /// Returns `true` if the graph is connected (BFS from node 0).
    ///
    /// The empty graph and singletons are connected by convention —
    /// matching [`Graph::is_connected`](crate::Graph::is_connected).
    fn is_connected(&self) -> bool {
        let n = self.num_nodes();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut reached = 1usize;
        while let Some(v) = stack.pop() {
            for u in self.successors(v) {
                if !seen[u] {
                    seen[u] = true;
                    reached += 1;
                    stack.push(u);
                }
            }
        }
        reached == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    /// Sorted neighbour rows that implement only the required methods,
    /// so the provided `has_edge` and `is_connected` run as written.
    struct RowList(Vec<Vec<usize>>);

    impl RowList {
        fn of(g: &Graph) -> RowList {
            RowList(
                (0..g.num_nodes())
                    .map(|v| g.neighbors_iter(v).collect())
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

    /// Exercises the trait surface through a generic bound only.
    fn degree_sum<G: RandomAccessGraph>(g: &G) -> usize {
        (0..g.num_nodes()).map(|v| g.degree(v)).sum()
    }

    fn collected<G: RandomAccessGraph>(g: &G, v: usize) -> Vec<usize> {
        g.successors(v).collect()
    }

    #[test]
    fn csr_and_row_list_agree_through_the_trait() {
        let g = Graph::from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (2, 5)]);
        let rows = RowList::of(&g);
        assert_eq!(degree_sum(&g), 2 * g.num_edges());
        assert_eq!(degree_sum(&rows), degree_sum(&g));
        assert_eq!(RandomAccessGraph::num_edges(&rows), g.num_edges());
        for v in 0..g.num_nodes() {
            assert_eq!(collected(&g, v), collected(&rows, v), "node {v}");
        }
        fn conn<G: RandomAccessGraph>(g: &G) -> bool {
            g.is_connected()
        }
        assert!(!conn(&g));
        assert!(!conn(&rows));
        assert!(conn(&RowList::of(&Graph::path(5))));
    }

    #[test]
    fn default_has_edge_early_exits_correctly() {
        let g = Graph::cycle(7);
        let rows = RowList::of(&g);
        for u in 0..7 {
            for v in 0..7 {
                assert_eq!(rows.has_edge(u, v), g.has_edge(u, v), "({u}, {v})");
            }
        }
    }

    #[test]
    fn trait_connectivity_conventions_match_inherent() {
        for g in [Graph::empty(0), Graph::empty(1), Graph::empty(2)] {
            assert_eq!(RandomAccessGraph::is_connected(&g), g.is_connected());
            assert_eq!(
                RandomAccessGraph::is_connected(&RowList::of(&g)),
                g.is_connected()
            );
        }
    }
}
