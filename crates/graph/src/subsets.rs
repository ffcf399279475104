//! Induced-subgraph queries on node subsets.
//!
//! Section IV of the paper reasons about `q(U)` — the number of connected
//! components of `G[I ∪ U]` — and about which components a candidate
//! connector is adjacent to.  These queries are provided here over a
//! membership mask, without materializing the induced subgraph.
//! [`LocalSearch`] answers the question the prune post-pass and the
//! churn maintainer both ask of a connected `G[S]` — does dropping one
//! member disconnect it? — near that member instead of over all of `S`.

use crate::{DisjointSets, Graph, RandomAccessGraph};

/// Number of connected components of the subgraph induced by the nodes
/// with `mask[v] == true`.
///
/// This is the paper's `q(·)` (with the subset being `I ∪ U`).  Runs one
/// DSU pass over the edges incident to the subset: `O(Σ_{v∈S} deg(v) α)`.
///
/// ```
/// use mcds_graph::{Graph, subsets::count_components};
/// let g = Graph::path(5);
/// let mask = vec![true, false, true, true, false];
/// assert_eq!(count_components(&g, &mask), 2); // {0} and {2,3}
/// ```
pub fn count_components<G: RandomAccessGraph>(g: &G, mask: &[bool]) -> usize {
    assert_eq!(
        mask.len(),
        g.num_nodes(),
        "mask length must equal node count"
    );
    let mut dsu = DisjointSets::new(g.num_nodes());
    let mut members = 0usize;
    let mut merges = 0usize;
    for v in 0..g.num_nodes() {
        if !mask[v] {
            continue;
        }
        members += 1;
        for u in g.successors(v) {
            if u < v && mask[u] && dsu.union(u, v) {
                merges += 1;
            }
        }
    }
    members - merges
}

/// Returns `true` if the subset given by `mask` induces a connected
/// subgraph.  The empty subset and singletons are connected by convention.
pub fn is_connected_subset<G: RandomAccessGraph>(g: &G, mask: &[bool]) -> bool {
    count_components(g, mask) <= 1
}

/// The distinct components of `G[mask]` adjacent to node `w`, identified
/// by DSU representative, given a `dsu` that already reflects `G[mask]`.
///
/// Used by the greedy connector: the *gain* of `w` is
/// `(number of adjacent components) − 1`.
pub fn adjacent_components<G: RandomAccessGraph>(
    g: &G,
    mask: &[bool],
    dsu: &mut DisjointSets,
    w: usize,
) -> Vec<usize> {
    let mut roots: Vec<usize> = g
        .successors(w)
        .filter(|&u| mask[u])
        .map(|u| dsu.find(u))
        .collect();
    roots.sort_unstable();
    roots.dedup();
    roots
}

/// Builds a [`DisjointSets`] whose sets are exactly the components of
/// `G[mask]` (non-members stay singletons).
pub fn components_dsu<G: RandomAccessGraph>(g: &G, mask: &[bool]) -> DisjointSets {
    assert_eq!(
        mask.len(),
        g.num_nodes(),
        "mask length must equal node count"
    );
    let mut dsu = DisjointSets::new(g.num_nodes());
    for v in 0..g.num_nodes() {
        if !mask[v] {
            continue;
        }
        for u in g.successors(v) {
            if u < v && mask[u] {
                dsu.union(u, v);
            }
        }
    }
    dsu
}

/// The open neighborhood of a subset: nodes outside `set` adjacent to at
/// least one member.  Returned sorted.
pub fn open_neighborhood<G: RandomAccessGraph>(g: &G, set: &[usize]) -> Vec<usize> {
    let mask = crate::node_mask(g.num_nodes(), set);
    let mut out: Vec<usize> = Vec::new();
    for &v in set {
        for u in g.successors(v) {
            if !mask[u] {
                out.push(u);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// The closed neighborhood of a single node: `{v} ∪ N(v)`, sorted.
pub fn closed_neighborhood<G: RandomAccessGraph>(g: &G, v: usize) -> Vec<usize> {
    let mut out: Vec<usize> = g.successors(v).collect();
    out.push(v);
    out.sort_unstable();
    out
}

/// The subgraph induced by `keep` (materialized as a CSR [`Graph`]
/// regardless of the backend), together with the mapping from new node
/// indices to original ones.
///
/// `keep` need not be sorted; duplicates are ignored.  The returned
/// `Vec<usize>` maps new index `i` to the original node id.  This is the
/// generic engine behind [`Graph::induced_subgraph`].  Kept nodes are
/// relabelled in ascending order, which preserves the order of every
/// sorted successor list, so each filtered row is written to the CSR as
/// is.
///
/// # Panics
///
/// Panics if a member of `keep` is out of range.
pub fn induced_subgraph<G: RandomAccessGraph>(g: &G, keep: &[usize]) -> (Graph, Vec<usize>) {
    let keep = crate::node_set(keep.iter().copied());
    let n = g.num_nodes();
    let mut new_id = vec![u32::MAX; n];
    for (i, &v) in keep.iter().enumerate() {
        assert!(v < n, "node {v} out of range");
        new_id[v] = i as u32;
    }
    let mut offsets = Vec::with_capacity(keep.len() + 1);
    offsets.push(0);
    let mut targets = Vec::with_capacity(keep.iter().map(|&v| g.degree(v)).sum());
    for &v in &keep {
        targets.extend(
            g.successors(v)
                .map(|u| new_id[u])
                .filter(|&u| u != u32::MAX),
        );
        offsets.push(targets.len());
    }
    (Graph::from_sorted_adjacency(offsets, targets), keep)
}

/// The exact local test for "is `v` a cut vertex of the connected
/// `G[S]`": breadth-first searches of `G[S − v]` from every
/// `S`-neighbour of `v`, interleaved through one FIFO queue, with
/// union-find over the searches.  When all searches have merged, the
/// `S`-neighbours share a component and `v` is not a cut vertex.  When
/// one class of merged searches runs out of frontier first, its nodes
/// form a whole component of `G[S − v]` that misses some `S`-neighbour,
/// so `v` is one.  Membership is any `Fn(usize) -> bool` (a
/// [`BitSet`](crate::bitgraph::BitSet) or a `bool` mask); `v`'s own
/// membership is never read.
///
/// Memory is two `u32` arrays of at most `n` entries (visit stamps and
/// the queue) plus two of at most `deg v` (classes and frontiers), all
/// reused across tests.
///
/// ```
/// use mcds_graph::{subsets::LocalSearch, Graph};
///
/// // In the path 0 - 1 - 2 - 3, the interior nodes are cut vertices.
/// let g = Graph::path(4);
/// let mut search = LocalSearch::new(4);
/// let member = |_: usize| true;
/// assert_eq!(search.run(&g, member, 1, u64::MAX, &mut 0), Some(true));
/// assert_eq!(search.run(&g, member, 3, u64::MAX, &mut 0), Some(false));
/// ```
#[derive(Debug, Clone)]
pub struct LocalSearch {
    /// `seen[u] − base` is the search that reached `u` in the test that
    /// started at `base`; stamps below it are stale.
    seen: Vec<u32>,
    /// The first stamp of the next test.
    next_base: u32,
    queue: Vec<u32>,
    /// Union-find parent of each search.
    class: Vec<u32>,
    /// Reached but unexpanded nodes of each class root.
    frontier: Vec<u32>,
}

impl LocalSearch {
    /// Search state for graphs of up to `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not fit in a `u32`.
    pub fn new(n: usize) -> Self {
        assert!(
            u32::try_from(n).is_ok(),
            "local cut search stores node ids as u32, got {n} nodes"
        );
        LocalSearch {
            seen: vec![0; n],
            next_base: 1,
            queue: Vec::new(),
            class: Vec::new(),
            frontier: Vec::new(),
        }
    }

    fn root(&mut self, mut s: usize) -> usize {
        while self.class[s] as usize != s {
            let up = self.class[self.class[s] as usize];
            self.class[s] = up;
            s = up as usize;
        }
        s
    }

    /// `Some(true)` if `v` is a cut vertex of the connected `G[S]`, where
    /// `S = {u : member(u)} ∪ {v}`, `Some(false)` if not, `None` once
    /// `work` (successor visits, added to the caller's tally) would
    /// exceed `budget`.  With `budget = u64::MAX` the answer is always
    /// given.
    ///
    /// `G[S]` must be connected; the verdict is then exactly whether
    /// `G[S − v]` is disconnected.
    pub fn run<G: RandomAccessGraph, F: Fn(usize) -> bool>(
        &mut self,
        g: &G,
        member: F,
        v: usize,
        budget: u64,
        work: &mut u64,
    ) -> Option<bool> {
        let k = g.degree(v) as u32;
        if u32::MAX - self.next_base < k {
            self.seen.fill(0);
            self.next_base = 1;
        }
        let base = self.next_base;
        self.next_base += k;
        self.queue.clear();
        self.class.clear();
        self.frontier.clear();
        for u in g.successors(v) {
            *work += 1;
            if member(u) {
                let s = self.class.len() as u32;
                self.seen[u] = base + s;
                self.queue.push(u as u32);
                self.class.push(s);
                self.frontier.push(1);
            }
        }
        *work += 1;
        let mut classes = self.class.len();
        if classes < 2 {
            // A leaf of a connected graph never disconnects it.
            return Some(false);
        }
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            let u = u as usize;
            let label = self.seen[u];
            let c = self.root((label - base) as usize);
            for w in g.successors(u) {
                *work += 1;
                if w == v || !member(w) {
                    continue;
                }
                if self.seen[w] < base {
                    self.seen[w] = label;
                    self.queue.push(w as u32);
                    self.frontier[c] += 1;
                    continue;
                }
                let d = self.root((self.seen[w] - base) as usize);
                if d != c {
                    self.class[d] = c as u32;
                    self.frontier[c] += self.frontier[d];
                    classes -= 1;
                    if classes == 1 {
                        return Some(false);
                    }
                }
            }
            *work += 1;
            self.frontier[c] -= 1;
            if self.frontier[c] == 0 {
                return Some(true);
            }
            if *work > budget {
                return None;
            }
        }
        unreachable!("a class empties its frontier before the queue runs dry")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompactGraph;
    use mcds_rng::rngs::StdRng;
    use mcds_rng::{Rng, SeedableRng};

    /// The edge-list construction that [`induced_subgraph`] replaced: the
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
    fn induced_subgraph_equals_edge_list_construction_on_both_backends() {
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
            assert_eq!(induced_subgraph(&g, &keep), want, "case {case}, CSR");
            let compact = CompactGraph::from_graph(&g);
            assert_eq!(
                induced_subgraph(&compact, &keep),
                want,
                "case {case}, compact"
            );
        }
    }

    /// Connected geometric graphs around average degree 10 (the largest
    /// component of seeded uniform points), plus small structured cases.
    fn connected_instances() -> Vec<Graph> {
        let mut graphs: Vec<Graph> = (0..12u64)
            .map(|seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let n = 60 + 20 * seed as usize;
                let side = (n as f64 * std::f64::consts::PI / 10.0).sqrt();
                let pts: Vec<(f64, f64)> = (0..n)
                    .map(|_| (rng.gen_range(0.0..=side), rng.gen_range(0.0..=side)))
                    .collect();
                let edges = (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v)));
                let near = |&(u, v): &(usize, usize)| {
                    let (dx, dy) = (pts[u].0 - pts[v].0, pts[u].1 - pts[v].1);
                    dx * dx + dy * dy <= 1.0
                };
                let g = Graph::from_edges(n, edges.filter(near).collect::<Vec<_>>());
                induced_subgraph(&g, &crate::traversal::largest_component(&g)).0
            })
            .collect();
        graphs.extend([
            Graph::path(9),
            Graph::cycle(12),
            Graph::complete(6),
            // Two triangles sharing the cut vertex 2, plus a pendant 5.
            Graph::from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)]),
        ]);
        graphs
    }

    /// Connected member sets of `g`: all of `V`, and the interior of a
    /// breadth-first spanning tree (a connected dominating set).
    fn connected_sets(g: &Graph) -> Vec<Vec<usize>> {
        let n = g.num_nodes();
        let tree = crate::traversal::BfsTree::rooted_at(g, 0);
        let mut interior: Vec<usize> = (0..n).filter_map(|v| tree.parent(v)).collect();
        interior = crate::node_set(interior);
        vec![(0..n).collect(), interior]
    }

    #[test]
    fn local_search_agrees_with_tarjan_on_every_member() {
        use crate::bitgraph::{masked_articulation_points, ArticulationScratch, BitSet};
        for g in &connected_instances() {
            let n = g.num_nodes();
            for set in connected_sets(g) {
                let in_set = BitSet::from_nodes(n, &set);
                let mut cut = BitSet::new(n);
                masked_articulation_points(g, &in_set, &mut ArticulationScratch::new(), &mut cut);
                let mut search = LocalSearch::new(n);
                for &v in &set {
                    let verdict = search.run(g, |u| in_set.contains(u), v, u64::MAX, &mut 0);
                    assert_eq!(verdict, Some(cut.contains(v)), "n {n}, v {v}");
                }
            }
        }
    }

    #[test]
    fn local_search_on_a_bool_mask_matches_component_counts() {
        // The membership form of the churn maintainer's connector drops:
        // a `bool` mask with the candidate already cleared.
        for g in &connected_instances() {
            let n = g.num_nodes();
            for set in connected_sets(g) {
                let mut mask = crate::node_mask(n, &set);
                let mut search = LocalSearch::new(n);
                for &v in &set {
                    mask[v] = false;
                    let verdict = search.run(g, |u| mask[u], v, u64::MAX, &mut 0);
                    assert_eq!(
                        verdict,
                        Some(!is_connected_subset(g, &mask)),
                        "n {n}, v {v}"
                    );
                    mask[v] = true;
                }
            }
        }
    }

    #[test]
    fn local_search_gives_up_past_its_budget() {
        // Node 0 of C12 is not a cut vertex, but its two searches only
        // meet at the far side, about 30 successor visits away.
        let g = Graph::cycle(12);
        let mut search = LocalSearch::new(12);
        let mut work = 0;
        assert_eq!(search.run(&g, |_| true, 0, 10, &mut work), None);
        assert!(work > 10);
        assert_eq!(search.run(&g, |_| true, 0, u64::MAX, &mut 0), Some(false));
    }

    #[test]
    fn component_counts_on_path() {
        let g = Graph::path(6);
        assert_eq!(count_components(&g, &[false; 6]), 0);
        assert_eq!(count_components(&g, &[true; 6]), 1);
        let alt = [true, false, true, false, true, false];
        assert_eq!(count_components(&g, &alt), 3);
    }

    #[test]
    fn connected_subset_conventions() {
        let g = Graph::path(4);
        assert!(is_connected_subset(&g, &[false; 4]));
        let single = crate::node_mask(4, &[2]);
        assert!(is_connected_subset(&g, &single));
        let split = crate::node_mask(4, &[0, 3]);
        assert!(!is_connected_subset(&g, &split));
        let joined = crate::node_mask(4, &[0, 1, 2, 3]);
        assert!(is_connected_subset(&g, &joined));
    }

    #[test]
    fn adjacent_components_counts_distinct() {
        // Star: center 0, leaves 1..=4; subset = leaves -> 4 components,
        // center adjacent to all 4.
        let g = Graph::star(5);
        let mask = crate::node_mask(5, &[1, 2, 3, 4]);
        let mut dsu = components_dsu(&g, &mask);
        let comps = adjacent_components(&g, &mask, &mut dsu, 0);
        assert_eq!(comps.len(), 4);
        // A leaf has no neighbors in the subset other than... none (its
        // only neighbor is the center, not in subset).
        let comps1 = adjacent_components(&g, &mask, &mut dsu, 0);
        assert_eq!(comps1.len(), 4);
    }

    #[test]
    fn components_dsu_matches_count() {
        let g = Graph::from_edges(7, [(0, 1), (1, 2), (3, 4), (5, 6), (2, 3)]);
        let mask = crate::node_mask(7, &[0, 1, 3, 4, 6]);
        let mut dsu = components_dsu(&g, &mask);
        // Components among {0,1,3,4,6}: {0,1}, {3,4}, {6}.
        assert_eq!(count_components(&g, &mask), 3);
        assert!(dsu.same_set(0, 1));
        assert!(dsu.same_set(3, 4));
        assert!(!dsu.same_set(1, 3));
    }

    #[test]
    fn neighborhoods() {
        let g = Graph::path(5);
        assert_eq!(open_neighborhood(&g, &[2]), vec![1, 3]);
        assert_eq!(open_neighborhood(&g, &[1, 2]), vec![0, 3]);
        assert_eq!(open_neighborhood(&g, &[]), Vec::<usize>::new());
        assert_eq!(closed_neighborhood(&g, 0), vec![0, 1]);
        assert_eq!(closed_neighborhood(&g, 2), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "mask length")]
    fn mask_length_checked() {
        let g = Graph::path(3);
        let _ = count_components(&g, &[true]);
    }
}
