//! Graph substrate for the `mcds` workspace.
//!
//! Every algorithm in the reproduction of *"Two-Phased Approximation
//! Algorithms for Minimum CDS in Wireless Ad Hoc Networks"* (Wan, Wang &
//! Yao, ICDCS 2008) operates on an undirected communication topology
//! `G = (V, E)`.  This crate provides that topology as a compact immutable
//! CSR structure plus the generic machinery the algorithm crates share:
//!
//! * [`SequentialGraph`] / [`RandomAccessGraph`] — the trait split every
//!   algorithm is generic over: streamed `(node, sorted-successors)`
//!   iteration, and per-node `successors`/`degree`/`has_edge` queries,
//! * [`Graph`] — immutable undirected graph in compressed-sparse-row form
//!   (the reference backend), built from an edge list or from already
//!   sorted rows,
//! * [`CompactGraph`] — the gap-compressed adjacency backend ([`codec`]
//!   varint/zig-zag byte codes with per-node offsets), convertible
//!   from/to CSR and encodable in one streaming pass,
//! * [`traversal`] — BFS/DFS, [`traversal::BfsTree`] (the rooted spanning
//!   tree `T` of the paper's Section III), connected components,
//!   distances and diameters,
//! * [`DisjointSets`] — union–find, the engine behind the Section-IV greedy
//!   connector's component counting,
//! * [`subsets`] — induced-subgraph queries on node subsets: component
//!   counts of `G[I ∪ U]`, connectivity of a subset, neighborhoods, and
//!   the exact local cut-vertex search ([`subsets::LocalSearch`]) the
//!   prune and the churn maintainer share,
//! * [`bitgraph`] — packed `u64` bitset node sets with word-parallel
//!   popcount/intersect kernels, plus the workspace's one articulation-
//!   point routine (a masked Tarjan: the prune and every biconnectivity
//!   test),
//! * [`properties`] — the domination/independence predicates that define
//!   the paper's objects (dominating set, CDS, MIS),
//! * [`dot`] — Graphviz export for debugging and figures.
//!
//! Node identifiers are plain `usize` indices in `0..n`; algorithms that
//! need node *ranks* (BFS level, id) carry them separately.
//!
//! # Example
//!
//! ```
//! use mcds_graph::{Graph, properties};
//!
//! // A path 0 - 1 - 2 - 3.
//! let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
//! assert!(g.is_connected());
//! assert!(properties::is_dominating_set(&g, &[1, 2]));
//! assert!(properties::is_connected_dominating_set(&g, &[1, 2]));
//! assert!(!properties::is_dominating_set(&g, &[0]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod compact;
mod dsu;
mod graph;
mod traits;

pub mod bitgraph;
pub mod codec;
pub mod dot;
pub mod properties;
pub mod subsets;
pub mod traversal;

pub use compact::{CompactGraph, CompactGraphBuilder, CompactSuccessors};
pub use dsu::DisjointSets;
pub use graph::{Graph, SliceSuccessors};
pub use properties::CdsViolation;
pub use traits::{RandomAccessGraph, SequentialGraph};

/// A set of nodes represented as a sorted, deduplicated `Vec<usize>`.
///
/// Most algorithm outputs (MIS, connector sets, CDSs) use this shape; the
/// helper normalizes arbitrary index iterators into it.
///
/// ```
/// let s = mcds_graph::node_set([3, 1, 3, 2]);
/// assert_eq!(s, vec![1, 2, 3]);
/// ```
pub fn node_set<I: IntoIterator<Item = usize>>(nodes: I) -> Vec<usize> {
    let mut v: Vec<usize> = nodes.into_iter().collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// Converts a node set to a boolean membership mask over `0..n`.
///
/// # Panics
///
/// Panics if any node index is `≥ n`.
pub fn node_mask(n: usize, nodes: &[usize]) -> Vec<bool> {
    let mut mask = vec![false; n];
    for &v in nodes {
        assert!(v < n, "node index {v} out of range for graph of {n} nodes");
        mask[v] = true;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_set_normalizes() {
        assert_eq!(node_set([5, 1, 1, 0]), vec![0, 1, 5]);
        assert_eq!(node_set(std::iter::empty()), Vec::<usize>::new());
    }

    #[test]
    fn node_mask_roundtrip() {
        let mask = node_mask(5, &[0, 3]);
        assert_eq!(mask, vec![true, false, false, true, false]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_mask_rejects_out_of_range() {
        let _ = node_mask(3, &[3]);
    }
}
