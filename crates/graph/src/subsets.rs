//! Induced-subgraph queries on node subsets.
//!
//! Section IV of the paper reasons about `q(U)` — the number of connected
//! components of `G[I ∪ U]` — and about which components a candidate
//! connector is adjacent to.  These queries are provided here over a
//! membership mask, without materializing the induced subgraph.

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
