//! The immutable CSR graph, the workspace's one graph type.

use std::fmt;

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
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (u, v) in edges {
            assert!(u < n && v < n, "edge ({u}, {v}) out of range for n = {n}");
            assert_ne!(u, v, "self-loop at node {u} is not allowed");
            adj[u].push(v as u32);
            adj[v].push(u as u32);
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut targets = Vec::new();
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
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
    /// UDG build and induced subgraphs.  Debug builds assert the offsets,
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

    /// Replaces some rows in place.  `rows` lists `(node, end)` pairs with
    /// ascending nodes: the new row of each node is `packed[start..end]`,
    /// `start` being the previous pair's `end` (0 for the first).  The
    /// caller keeps the invariants of [`Graph::from_sorted_adjacency`]
    /// (debug builds check the new rows' order and range), including
    /// symmetry across the rows it replaces.
    ///
    /// The rows between two replaced ones move once, by `copy_within`, to
    /// their shifted place, and the offsets after the first replaced row
    /// shift with them; no row is rebuilt, and nothing the size of the
    /// graph is allocated unless the target list outgrows its capacity.
    ///
    /// ```
    /// use mcds_graph::Graph;
    ///
    /// // Path 0 - 1 - 2 - 3: move the edge {1, 2} to {0, 3}.
    /// let mut g = Graph::path(4);
    /// g.replace_rows(&[(0, 2), (1, 3), (2, 4), (3, 6)], &[1, 3, 0, 3, 0, 2]);
    /// assert_eq!(g, Graph::from_edges(4, [(0, 1), (0, 3), (2, 3)]));
    /// ```
    pub fn replace_rows(&mut self, rows: &[(usize, usize)], packed: &[u32]) {
        debug_assert!(rows.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
        let n = self.num_nodes();
        let old_len = self.targets.len();
        // `shift[j]`: how far the untouched rows after `rows[j]` move.
        let mut shift = Vec::with_capacity(rows.len());
        let (mut acc, mut start) = (0isize, 0usize);
        for &(v, end) in rows {
            debug_assert!({
                let row = &packed[start..end];
                row.windows(2).all(|w| w[0] < w[1])
                    && row.iter().all(|&u| (u as usize) < n && u as usize != v)
            });
            acc += (end - start) as isize - self.degree(v) as isize;
            shift.push(acc);
            start = end;
        }
        let grow = acc;
        if grow > 0 {
            self.targets.resize(old_len + grow as usize, 0);
        }
        // The untouched run after `rows[j]`, in old positions.
        let run = |j: usize| {
            let from = self.offsets[rows[j].0 + 1];
            let to = rows.get(j + 1).map_or(old_len, |&(v, _)| self.offsets[v]);
            (from, to)
        };
        // Runs moving left go first, ascending; then runs moving right,
        // descending.  Each run's destination lies past every earlier
        // run's destination and before every later run's, so no move
        // overwrites a run that has not moved yet.
        for (j, &s) in shift.iter().enumerate() {
            if s < 0 {
                let (from, to) = run(j);
                self.targets
                    .copy_within(from..to, (from as isize + s) as usize);
            }
        }
        for (j, &s) in shift.iter().enumerate().rev() {
            if s > 0 {
                let (from, to) = run(j);
                self.targets
                    .copy_within(from..to, (from as isize + s) as usize);
            }
        }
        let mut start = 0;
        for (j, &(v, end)) in rows.iter().enumerate() {
            let before = if j == 0 { 0 } else { shift[j - 1] };
            let at = (self.offsets[v] as isize + before) as usize;
            self.targets[at..at + end - start].copy_from_slice(&packed[start..end]);
            start = end;
        }
        for (j, &(v, _)) in rows.iter().enumerate() {
            let upto = rows.get(j + 1).map_or(n, |&(w, _)| w);
            for off in &mut self.offsets[v + 1..=upto] {
                *off = (*off as isize + shift[j]) as usize;
            }
        }
        if grow < 0 {
            self.targets.truncate((old_len as isize + grow) as usize);
        }
        debug_assert_eq!(self.targets.len() % 2, 0);
        self.num_edges = self.targets.len() / 2;
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
    /// `Vec<usize>` maps new index `i` to the original node id.  Kept
    /// nodes are relabelled in ascending order, which preserves the order
    /// of every sorted neighbour list, so each filtered row is written to
    /// the CSR as is.
    ///
    /// # Panics
    ///
    /// Panics if a member of `keep` is out of range.
    pub fn induced_subgraph(&self, keep: &[usize]) -> (Graph, Vec<usize>) {
        let keep = crate::node_set(keep.iter().copied());
        let n = self.num_nodes();
        let mut new_id = vec![u32::MAX; n];
        for (i, &v) in keep.iter().enumerate() {
            assert!(v < n, "node {v} out of range");
            new_id[v] = i as u32;
        }
        let mut offsets = Vec::with_capacity(keep.len() + 1);
        offsets.push(0);
        let mut targets = Vec::with_capacity(keep.iter().map(|&v| self.degree(v)).sum());
        for &v in &keep {
            targets.extend(
                self.neighbors_iter(v)
                    .map(|u| new_id[u])
                    .filter(|&u| u != u32::MAX),
            );
            offsets.push(targets.len());
        }
        (Graph::from_sorted_adjacency(offsets, targets), keep)
    }
}

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
    fn replaced_rows_equal_a_fresh_build() {
        use mcds_rng::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(12);
        for case in 0..300 {
            let n = rng.gen_range(2..=30usize);
            let mut edges: Vec<(usize, usize)> = (0..n)
                .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
                .filter(|_| rng.gen_bool(0.2))
                .collect();
            let mut g = Graph::from_edges(n, edges.clone());
            // Rewire one node, as a move does: drop some of its edges and
            // add others; only its row and its neighbours' rows change.
            let x = rng.gen_range(0..n);
            let before: Vec<usize> = g.neighbors_iter(x).collect();
            edges.retain(|&(u, v)| (u != x && v != x) || rng.gen_bool(0.5));
            for v in 0..n {
                if v != x && rng.gen_bool(0.15) {
                    edges.push((x.min(v), x.max(v)));
                }
            }
            let want = Graph::from_edges(n, edges);
            let mut touched: Vec<usize> =
                before.into_iter().chain(want.neighbors_iter(x)).collect();
            touched.push(x);
            touched.sort_unstable();
            touched.dedup();
            let mut packed = Vec::new();
            let mut rows = Vec::new();
            for &v in &touched {
                packed.extend_from_slice(want.neighbors(v));
                rows.push((v, packed.len()));
            }
            g.replace_rows(&rows, &packed);
            assert_eq!(g, want, "case {case}");
            assert_eq!(g.num_edges(), want.num_edges(), "case {case}");
        }
    }

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

    /// The edge-list construction that [`Graph::induced_subgraph`] replaced: the
    /// oracle its direct CSR rows are checked against.
    fn induced_by_edge_list(g: &Graph, keep: &[usize]) -> (Graph, Vec<usize>) {
        let keep = crate::node_set(keep.iter().copied());
        let mut new_id = vec![usize::MAX; g.num_nodes()];
        for (i, &v) in keep.iter().enumerate() {
            new_id[v] = i;
        }
        let mut edges = Vec::new();
        for &v in &keep {
            for u in g.neighbors_iter(v) {
                if u < v && new_id[u] != usize::MAX {
                    edges.push((new_id[u], new_id[v]));
                }
            }
        }
        (Graph::from_edges(keep.len(), edges), keep)
    }

    #[test]
    fn induced_subgraph_equals_edge_list_construction() {
        use mcds_rng::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(16);
        for case in 0..300 {
            let n = rng.gen_range(0..=40usize);
            let p = rng.gen_range(0.0..=0.5);
            let edges: Vec<(usize, usize)> = (0..n)
                .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
                .filter(|_| rng.gen_bool(p))
                .collect();
            let g = Graph::from_edges(n, edges);
            // Unsorted, with duplicates: any order is accepted.
            let keep: Vec<usize> = (0..n)
                .rev()
                .filter(|_| rng.gen_bool(0.5))
                .flat_map(|v| [v, v])
                .collect();
            let want = induced_by_edge_list(&g, &keep);
            assert_eq!(g.induced_subgraph(&keep), want, "case {case}");
        }
    }

    #[test]
    fn debug_is_informative() {
        let s = format!("{:?}", Graph::path(3));
        assert!(s.contains("n=3"));
        assert!(s.contains("m=2"));
    }
}
