//! The immutable CSR graph — the reference [`RandomAccessGraph`] backend.

use std::fmt;

use crate::{RandomAccessGraph, SequentialGraph};

/// Builds normalized adjacency lists from an edge iterator: validates
/// range and self-loops, sorts each list, merges duplicates.
///
/// This is the single normalization path shared by [`Graph::from_edges`]
/// and both `GraphBuilder` backends (`build`/`build_compact`), so the two
/// representations can never disagree on what the canonical graph is.
pub(crate) fn adjacency_from_edges<I>(n: usize, edges: I) -> Vec<Vec<u32>>
where
    I: IntoIterator<Item = (usize, usize)>,
{
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (u, v) in edges {
        assert!(u < n && v < n, "edge ({u}, {v}) out of range for n = {n}");
        assert_ne!(u, v, "self-loop at node {u} is not allowed");
        adj[u].push(v as u32);
        adj[v].push(u as u32);
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    adj
}

/// An immutable, undirected, simple graph in compressed-sparse-row form.
///
/// Nodes are `0..n`.  Neighbor lists are sorted, enabling `O(log d)`
/// adjacency tests and deterministic iteration order (important for the
/// paper's *first-fit* selections, which break ties by node id).
///
/// Construction normalizes input edges: self-loops are rejected, duplicate
/// and reversed duplicates are merged.
///
/// ```
/// use mcds_graph::Graph;
/// let g = Graph::from_edges(3, [(0, 1), (1, 0), (1, 2)]);
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// assert!(g.has_edge(0, 1));
/// assert!(!g.has_edge(0, 2));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    targets: Vec<u32>,
    num_edges: usize,
}

impl Graph {
    /// Builds a graph with `n` nodes from an iterator of undirected edges.
    ///
    /// Edges may appear in any order and orientation; duplicates are
    /// merged.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is `≥ n` or an edge is a self-loop.
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let adj = adjacency_from_edges(n, edges);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut targets = Vec::new();
        for list in &adj {
            targets.extend_from_slice(list);
            offsets.push(targets.len());
        }
        Graph::from_sorted_adjacency(offsets, targets)
    }

    /// Assembles a graph from already-normalized CSR parts: node `v`'s
    /// neighbors are `targets[offsets[v]..offsets[v + 1]]`, each row sorted
    /// and deduplicated, the rows symmetric and free of self-loops.
    ///
    /// Used where rows come out normalized, so no edge list is needed: the
    /// UDG build, induced subgraphs and
    /// [`crate::CompactGraph::to_graph`].  Debug builds assert the offsets,
    /// the row order, the range and the absence of self-loops; parts that
    /// break an invariant give a graph whose queries are unspecified.
    pub fn from_sorted_adjacency(offsets: Vec<usize>, targets: Vec<u32>) -> Self {
        debug_assert!(!offsets.is_empty() && offsets[0] == 0);
        debug_assert_eq!(*offsets.last().unwrap(), targets.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!({
            let n = offsets.len() - 1;
            (0..n).all(|v| {
                let list = &targets[offsets[v]..offsets[v + 1]];
                list.windows(2).all(|w| w[0] < w[1])
                    && list.iter().all(|&u| (u as usize) < n && u as usize != v)
            })
        });
        debug_assert_eq!(targets.len() % 2, 0);
        let num_edges = targets.len() / 2;
        Graph {
            offsets,
            targets,
            num_edges,
        }
    }

    /// The empty graph on `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        Graph::from_edges(n, std::iter::empty())
    }

    /// The complete graph on `n` nodes.
    pub fn complete(n: usize) -> Self {
        let edges = (0..n).flat_map(|u| ((u + 1)..n).map(move |v| (u, v)));
        Graph::from_edges(n, edges)
    }

    /// The path graph `0 - 1 - … - (n-1)`.
    pub fn path(n: usize) -> Self {
        Graph::from_edges(n, (1..n).map(|v| (v - 1, v)))
    }

    /// The cycle graph on `n ≥ 3` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` (smaller cycles are not simple graphs).
    pub fn cycle(n: usize) -> Self {
        assert!(n >= 3, "a simple cycle needs at least 3 nodes, got {n}");
        Graph::from_edges(n, (0..n).map(|v| (v, (v + 1) % n)))
    }

    /// The star graph: node 0 adjacent to every other node.
    pub fn star(n: usize) -> Self {
        Graph::from_edges(n, (1..n).map(|v| (0, v)))
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The sorted neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Iterator over the neighbors of `v` as `usize`.
    #[inline]
    pub fn neighbors_iter(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.neighbors(v).iter().map(|&u| u as usize)
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Adjacency test in `O(log deg(u))`.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.neighbors(u).binary_search(&(v as u32)).is_ok()
    }

    /// Bytes the adjacency arrays occupy (`4` per arc: the `u32` CSR
    /// target list).  Mirrors [`crate::CompactGraph::adjacency_bytes`]
    /// so backend footprints compare like for like (experiment E23).
    pub fn adjacency_bytes(&self) -> usize {
        self.targets.len() * std::mem::size_of::<u32>()
    }

    /// Bytes the per-node offset array occupies (`usize` per node + 1).
    /// Mirrors [`crate::CompactGraph::offset_bytes`].
    pub fn offset_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
    }

    /// Iterator over all undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.num_nodes()).flat_map(move |u| {
            self.neighbors_iter(u)
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Maximum degree, or 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes())
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Average degree (`2m / n`), or 0 for the empty graph.
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            2.0 * self.num_edges as f64 / self.num_nodes() as f64
        }
    }

    /// Returns `true` if the graph is connected.
    ///
    /// The empty graph and singletons are connected by convention.
    pub fn is_connected(&self) -> bool {
        crate::traversal::connected_components(self).len() <= 1
    }

    /// The subgraph induced by `keep`, together with the mapping from new
    /// node indices to original ones.
    ///
    /// `keep` need not be sorted; duplicates are ignored.  The returned
    /// `Vec<usize>` maps new index `i` to the original node id.
    pub fn induced_subgraph(&self, keep: &[usize]) -> (Graph, Vec<usize>) {
        crate::subsets::induced_subgraph(self, keep)
    }
}

impl SequentialGraph for Graph {
    fn num_nodes(&self) -> usize {
        Graph::num_nodes(self)
    }

    fn num_edges(&self) -> usize {
        Graph::num_edges(self)
    }

    fn for_each_adjacency<F: FnMut(usize, &[u32])>(&self, mut f: F) {
        for v in 0..Graph::num_nodes(self) {
            f(v, self.neighbors(v));
        }
    }
}

impl RandomAccessGraph for Graph {
    type Successors<'a> = SliceSuccessors<'a>;

    fn successors(&self, v: usize) -> SliceSuccessors<'_> {
        SliceSuccessors {
            inner: self.neighbors(v).iter(),
        }
    }

    fn degree(&self, v: usize) -> usize {
        Graph::degree(self, v)
    }

    fn has_edge(&self, u: usize, v: usize) -> bool {
        Graph::has_edge(self, u, v)
    }

    fn is_connected(&self) -> bool {
        Graph::is_connected(self)
    }
}

/// Sorted successor iterator over a CSR neighbor slice.
#[derive(Debug, Clone)]
pub struct SliceSuccessors<'a> {
    inner: std::slice::Iter<'a, u32>,
}

impl Iterator for SliceSuccessors<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        self.inner.next().map(|&u| u as usize)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for SliceSuccessors<'_> {}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(n={}, m={}, max_deg={})",
            self.num_nodes(),
            self.num_edges(),
            self.max_degree()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_merges_duplicates_and_orientations() {
        let g = Graph::from_edges(4, [(0, 1), (1, 0), (0, 1), (2, 3)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.degree(2), 1);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let _ = Graph::from_edges(2, [(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_rejected() {
        let _ = Graph::from_edges(2, [(0, 2)]);
    }

    #[test]
    fn named_families() {
        assert_eq!(Graph::empty(5).num_edges(), 0);
        assert_eq!(Graph::complete(5).num_edges(), 10);
        assert_eq!(Graph::path(5).num_edges(), 4);
        assert_eq!(Graph::cycle(5).num_edges(), 5);
        assert_eq!(Graph::star(5).num_edges(), 4);
        assert_eq!(Graph::star(5).degree(0), 4);
        assert_eq!(Graph::complete(0).num_nodes(), 0);
        assert_eq!(Graph::path(1).num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_cycle_rejected() {
        let _ = Graph::cycle(2);
    }

    #[test]
    fn edges_iterator_is_canonical() {
        let g = Graph::cycle(4);
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(0, 1), (0, 3), (1, 2), (2, 3)]);
        assert_eq!(e.len(), g.num_edges());
    }

    #[test]
    fn degree_statistics() {
        let g = Graph::star(5);
        assert_eq!(g.max_degree(), 4);
        assert!((g.avg_degree() - 8.0 / 5.0).abs() < 1e-12);
        assert_eq!(Graph::empty(0).max_degree(), 0);
        assert_eq!(Graph::empty(0).avg_degree(), 0.0);
    }

    #[test]
    fn connectivity() {
        assert!(Graph::path(5).is_connected());
        assert!(!Graph::from_edges(4, [(0, 1), (2, 3)]).is_connected());
        assert!(Graph::empty(1).is_connected());
        assert!(Graph::empty(0).is_connected());
        assert!(!Graph::empty(2).is_connected());
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = Graph::cycle(5);
        let (sub, map) = g.induced_subgraph(&[0, 1, 3]);
        assert_eq!(map, vec![0, 1, 3]);
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(sub.num_edges(), 1); // only (0,1) survives
        assert!(sub.has_edge(0, 1));
        let (sub2, _) = g.induced_subgraph(&[]);
        assert_eq!(sub2.num_nodes(), 0);
    }

    #[test]
    fn debug_is_informative() {
        let s = format!("{:?}", Graph::path(3));
        assert!(s.contains("n=3"));
        assert!(s.contains("m=2"));
    }
}
