//! Breadth-first search, spanning trees, components and distances.
//!
//! The paper's phase-1 MIS is selected "in the first-fit manner in the
//! breadth-first-search ordering" of a rooted spanning tree `T`
//! (Section III); [`BfsTree`] is exactly that object, carrying root,
//! parents, levels and the BFS visit order.

use crate::Graph;

/// A rooted BFS spanning tree of (one component of) a graph.
///
/// * `parent[v]` is the BFS parent, `None` for the root and for nodes
///   unreachable from it,
/// * `level[v]` is the hop distance from the root (`None` if
///   unreachable),
/// * `order` lists the reached nodes in the rank order `(level, id)`:
///   the root, then each level in increasing id — the first-fit order of
///   the paper's phase 1.
///
/// ```
/// use mcds_graph::{Graph, traversal::BfsTree};
/// let g = Graph::path(4);
/// let t = BfsTree::rooted_at(&g, 0);
/// assert_eq!(t.level(3), Some(3));
/// assert_eq!(t.parent(3), Some(2));
/// assert_eq!(t.order(), &[0, 1, 2, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct BfsTree {
    root: usize,
    /// `UNREACHED` for the root and unreachable nodes.
    parent: Vec<u32>,
    /// `UNREACHED` for unreachable nodes.
    level: Vec<u32>,
    order: Vec<usize>,
}

/// The `parent`/`level` entry of a node the tree does not assign one.
const UNREACHED: u32 = u32::MAX;

impl BfsTree {
    /// Runs a level-synchronous BFS from `root`.
    ///
    /// Each level's ids are sorted before the level is expanded, so the
    /// visit order is the `(level, id)` rank order, and the node that
    /// first discovers `v` is its smallest-id neighbor one level closer
    /// to the root.  Parents are therefore *canonical* by construction:
    /// the tree is a pure function of the graph and root — the property
    /// that lets the distributed protocol in `mcds-distsim` reconstruct
    /// the identical tree from purely local information.
    ///
    /// # Panics
    ///
    /// Panics if `root ≥ g.num_nodes()`.
    pub fn rooted_at(g: &Graph, root: usize) -> Self {
        let n = g.num_nodes();
        assert!(root < n, "root {root} out of range for n = {n}");
        let mut parent = vec![UNREACHED; n];
        let mut level = vec![UNREACHED; n];
        let mut order = Vec::with_capacity(n);
        level[root] = 0;
        order.push(root);
        let (mut start, mut depth) = (0, 0);
        while start < order.len() {
            let end = order.len();
            depth += 1;
            for i in start..end {
                let v = order[i];
                for u in g.neighbors_iter(v) {
                    if level[u] == UNREACHED {
                        level[u] = depth;
                        parent[u] = v as u32;
                        order.push(u);
                    }
                }
            }
            order[end..].sort_unstable();
            start = end;
        }
        BfsTree {
            root,
            parent,
            level,
            order,
        }
    }

    /// The root node.
    pub fn root(&self) -> usize {
        self.root
    }

    /// BFS parent of `v` (`None` for the root or unreachable nodes).
    pub fn parent(&self, v: usize) -> Option<usize> {
        (self.parent[v] != UNREACHED).then(|| self.parent[v] as usize)
    }

    /// Hop distance of `v` from the root, `None` if unreachable.
    pub fn level(&self, v: usize) -> Option<usize> {
        (self.level[v] != UNREACHED).then(|| self.level[v] as usize)
    }

    /// The reached nodes in the rank order `(level, id)`: the canonical
    /// first-fit processing order of the paper's phase 1.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Number of nodes reached from the root.
    pub fn reached(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` if every node of the graph was reached.
    pub fn spans(&self, g: &Graph) -> bool {
        self.reached() == g.num_nodes()
    }

    /// The deepest level in the tree (eccentricity of the root); 0 if the
    /// tree reaches only the root.
    pub fn depth(&self) -> usize {
        self.order.last().map_or(0, |&v| self.level[v] as usize)
    }
}

/// Connected components of a graph; each component is a sorted node list,
/// and components are ordered by their smallest node.
///
/// ```
/// use mcds_graph::{Graph, traversal::connected_components};
/// let g = Graph::from_edges(5, [(0, 1), (3, 4)]);
/// let comps = connected_components(&g);
/// assert_eq!(comps, vec![vec![0, 1], vec![2], vec![3, 4]]);
/// ```
pub fn connected_components(g: &Graph) -> Vec<Vec<usize>> {
    let n = g.num_nodes();
    let mut seen = vec![false; n];
    let mut comps = Vec::new();
    for s in 0..n {
        if seen[s] {
            continue;
        }
        let mut comp = Vec::new();
        let mut stack = vec![s];
        seen[s] = true;
        while let Some(v) = stack.pop() {
            comp.push(v);
            for u in g.neighbors_iter(v) {
                if !seen[u] {
                    seen[u] = true;
                    stack.push(u);
                }
            }
        }
        comp.sort_unstable();
        comps.push(comp);
    }
    comps
}

/// The largest connected component (sorted node list).  Returns an empty
/// vector for the empty graph.  Ties are broken toward the component with
/// the smallest minimum node id (the first found).
pub fn largest_component(g: &Graph) -> Vec<usize> {
    connected_components(g)
        .into_iter()
        .max_by(|a, b| a.len().cmp(&b.len()).then(b[0].cmp(&a[0])))
        .unwrap_or_default()
}

/// Single-source shortest (hop) distances; `usize::MAX` marks unreachable
/// nodes.
pub fn bfs_distances(g: &Graph, source: usize) -> Vec<usize> {
    let t = BfsTree::rooted_at(g, source);
    (0..g.num_nodes())
        .map(|v| t.level(v).unwrap_or(usize::MAX))
        .collect()
}

/// Hop diameter of a connected graph: the largest shortest-path distance
/// over all pairs, the maximum of [`eccentricities`] (`O(nm)`).
///
/// Returns `None` if the graph is disconnected or has no nodes.
///
/// The CDS literature uses `γ_c(G) ≥ diam(G) − 1` as a cheap lower bound;
/// the experiment harness relies on this function for it.
pub fn diameter(g: &Graph) -> Option<usize> {
    eccentricities(g)?.into_iter().max()
}

/// Eccentricity of every node (max hop distance to any other node), or
/// `None` if the graph is disconnected or empty.  `O(n·m)`.
pub fn eccentricities(g: &Graph) -> Option<Vec<usize>> {
    let n = g.num_nodes();
    if n == 0 {
        return None;
    }
    let mut out = Vec::with_capacity(n);
    for s in 0..n {
        let d = bfs_distances(g, s);
        let mut ecc = 0usize;
        for &x in &d {
            if x == usize::MAX {
                return None;
            }
            ecc = ecc.max(x);
        }
        out.push(ecc);
    }
    Some(out)
}

/// A center of the graph: a node of minimum eccentricity (smallest id on
/// ties), or `None` if disconnected/empty.
///
/// Rooting the BFS phase at a center minimizes tree depth, which the E11
/// ablation uses to probe root-choice sensitivity.
pub fn graph_center(g: &Graph) -> Option<usize> {
    let ecc = eccentricities(g)?;
    (0..g.num_nodes()).min_by_key(|&v| (ecc[v], v))
}

/// Bridges (cut edges) of the graph as `(u, v)` pairs with `u < v`,
/// sorted — iterative Tarjan lowlink, `O(n + m)`.
///
/// A bridge in a backbone is a link whose loss splits it; together with
/// the cut vertices of [`crate::bitgraph::masked_articulation_points`]
/// this quantifies backbone fragility.
pub fn bridges(g: &Graph) -> Vec<(usize, usize)> {
    let n = g.num_nodes();
    let mut disc = vec![usize::MAX; n];
    let mut low = vec![usize::MAX; n];
    let mut out = Vec::new();
    let mut timer = 0usize;
    for root in 0..n {
        if disc[root] != usize::MAX {
            continue;
        }
        // (node, parent, neighbour iterator, parent_edge_used): graphs
        // are simple, so one parent edge exists per child; skip the single
        // (child, parent) back-edge exactly once.
        let mut stack = vec![(root, usize::MAX, g.neighbors(root).iter(), false)];
        disc[root] = timer;
        low[root] = timer;
        timer += 1;
        while let Some(top) = stack.last_mut() {
            let (v, parent) = (top.0, top.1);
            if let Some(&u) = top.2.next() {
                let u = u as usize;
                if u == parent && !top.3 {
                    top.3 = true;
                    continue;
                }
                if disc[u] == usize::MAX {
                    disc[u] = timer;
                    low[u] = timer;
                    timer += 1;
                    stack.push((u, v, g.neighbors(u).iter(), false));
                } else {
                    low[v] = low[v].min(disc[u]);
                }
            } else {
                stack.pop();
                if let Some(prev) = stack.last_mut() {
                    let p = prev.0;
                    low[p] = low[p].min(low[v]);
                    if low[v] > disc[p] {
                        out.push((p.min(v), p.max(v)));
                    }
                }
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    #[test]
    fn bfs_tree_on_path() {
        let g = Graph::path(5);
        let t = BfsTree::rooted_at(&g, 2);
        assert_eq!(t.root(), 2);
        assert_eq!(t.level(0), Some(2));
        assert_eq!(t.level(4), Some(2));
        assert_eq!(t.parent(0), Some(1));
        assert_eq!(t.parent(2), None);
        assert_eq!(t.depth(), 2);
        assert!(t.spans(&g));
    }

    #[test]
    fn bfs_tree_unreachable_nodes() {
        let g = Graph::from_edges(4, [(0, 1)]);
        let t = BfsTree::rooted_at(&g, 0);
        assert_eq!(t.level(3), None);
        assert_eq!(t.parent(3), None);
        assert_eq!(t.reached(), 2);
        assert!(!t.spans(&g));
    }

    #[test]
    fn rank_order_sorts_by_level_then_id() {
        // Star with center 3: levels are {3:0, others:1}.
        let g = Graph::from_edges(4, [(3, 0), (3, 1), (3, 2)]);
        let t = BfsTree::rooted_at(&g, 3);
        assert_eq!(t.order(), &[3, 0, 1, 2]);
        // A FIFO queue would visit level 2 as [4, 3]: 4 is discovered
        // first, from 1, and 3 later, from 2.
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (1, 4), (2, 3)]);
        let t = BfsTree::rooted_at(&g, 0);
        assert_eq!(t.order(), &[0, 1, 2, 3, 4]);
        assert_eq!((t.parent(3), t.parent(4)), (Some(2), Some(1)));
    }

    #[test]
    fn components_and_largest() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (4, 5)]);
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 3);
        assert_eq!(largest_component(&g), vec![0, 1, 2]);
        assert!(largest_component(&Graph::empty(0)).is_empty());
    }

    #[test]
    fn distances_and_diameter() {
        let g = Graph::cycle(6);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1]);
        assert_eq!(diameter(&g), Some(3));
        assert_eq!(diameter(&Graph::from_edges(3, [(0, 1)])), None);
        assert_eq!(diameter(&Graph::empty(0)), None);
        assert_eq!(diameter(&Graph::empty(1)), Some(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bfs_root_out_of_range() {
        let _ = BfsTree::rooted_at(&Graph::empty(1), 1);
    }

    #[test]
    fn bridges_of_named_families() {
        // Path: every edge is a bridge.
        assert_eq!(bridges(&Graph::path(4)), vec![(0, 1), (1, 2), (2, 3)]);
        // Cycle: none.
        assert!(bridges(&Graph::cycle(5)).is_empty());
        // Star: every edge.
        assert_eq!(bridges(&Graph::star(4)).len(), 3);
        // Bowtie (two triangles sharing a vertex): none.
        let bowtie = Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
        assert!(bridges(&bowtie).is_empty());
        // Two triangles joined by one edge: exactly that edge.
        let dumbbell =
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]);
        assert_eq!(bridges(&dumbbell), vec![(2, 3)]);
        assert!(bridges(&Graph::empty(3)).is_empty());
    }

    #[test]
    fn bridges_match_brute_force() {
        let mut s = 313u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..20 {
            let n = 9;
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if next() % 100 < 30 {
                        edges.push((u, v));
                    }
                }
            }
            let g = Graph::from_edges(n, edges);
            let fast = bridges(&g);
            let base = connected_components(&g).len();
            let brute: Vec<(usize, usize)> = g
                .edges()
                .filter(|&(u, v)| {
                    let remaining: Vec<(usize, usize)> =
                        g.edges().filter(|&e| e != (u, v)).collect();
                    let h = Graph::from_edges(n, remaining);
                    connected_components(&h).len() > base
                })
                .collect();
            assert_eq!(fast, brute, "{g:?}");
        }
    }

    #[test]
    fn eccentricities_and_center() {
        let g = Graph::path(7);
        let ecc = eccentricities(&g).unwrap();
        assert_eq!(ecc, vec![6, 5, 4, 3, 4, 5, 6]);
        assert_eq!(graph_center(&g), Some(3));
        assert_eq!(diameter(&g), Some(6));
        // Disconnected and empty.
        assert_eq!(eccentricities(&Graph::from_edges(3, [(0, 1)])), None);
        assert_eq!(graph_center(&Graph::empty(0)), None);
        assert_eq!(eccentricities(&Graph::empty(1)), Some(vec![0]));
        // Star center.
        assert_eq!(graph_center(&Graph::star(6)), Some(0));
    }
}
