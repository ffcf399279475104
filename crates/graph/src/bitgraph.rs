//! Word-parallel bitset kernels — packed `u64` node sets for the hot
//! inner loops of phase 2 and the prune post-pass.
//!
//! The paper's greedy connector phase and the pruning post-pass both
//! reduce to repeated set queries over node subsets: "which neighbors of
//! `w` are in the current set?", "does removing `v` disconnect `G[S]`?".
//! This module provides the packed representations those queries run
//! over:
//!
//! * [`BitSet`] — a fixed-capacity node set, one bit per node, with
//!   word-parallel popcount ([`BitSet::count_ones`]), intersection
//!   popcount ([`BitSet::and_count`]) and in-place intersection and
//!   difference (the exact maximum-independent-set search beyond 128
//!   nodes runs on these),
//! * [`masked_articulation_points`] — iterative Tarjan restricted to a
//!   [`BitSet`] mask with reusable scratch (no induced subgraph is
//!   materialized): the connectivity side of the incremental prune and
//!   every biconnectivity test of the fault-tolerant family.
//!
//! Trailing bits past the logical capacity are kept zero at all times;
//! every word-parallel routine relies on that invariant.

use crate::Graph;

const WORD_BITS: usize = 64;

/// A fixed-capacity set of node ids packed one bit per node into `u64`
/// words.
///
/// ```
/// use mcds_graph::bitgraph::BitSet;
/// let mut s = BitSet::from_nodes(130, &[0, 63, 64, 129]);
/// assert_eq!(s.count_ones(), 4);
/// assert!(s.contains(64));
/// s.remove(64);
/// assert_eq!(s.to_nodes(), vec![0, 63, 129]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    nbits: usize,
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set with capacity for node ids `0..nbits`.
    pub fn new(nbits: usize) -> Self {
        BitSet {
            nbits,
            words: vec![0; nbits.div_ceil(WORD_BITS)],
        }
    }

    /// Builds a set from a node list.
    ///
    /// # Panics
    ///
    /// Panics if any node index is `≥ nbits` (mirrors
    /// [`crate::node_mask`]).
    pub fn from_nodes(nbits: usize, nodes: &[usize]) -> Self {
        let mut s = BitSet::new(nbits);
        for &v in nodes {
            assert!(
                v < nbits,
                "node index {v} out of range for bitset of {nbits} bits"
            );
            s.insert(v);
        }
        s
    }

    /// Capacity in bits (the exclusive upper bound on stored ids).
    pub fn capacity(&self) -> usize {
        self.nbits
    }

    /// Number of set bits (word-parallel popcount).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Membership test.  Indices `≥ capacity` are reported absent.
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / WORD_BITS)
            .is_some_and(|w| w >> (i % WORD_BITS) & 1 == 1)
    }

    /// Inserts `i`; returns `true` if it was newly set.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ capacity`.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.nbits, "bit {i} out of range ({} bits)", self.nbits);
        let (w, b) = (i / WORD_BITS, 1u64 << (i % WORD_BITS));
        let fresh = self.words[w] & b == 0;
        self.words[w] |= b;
        fresh
    }

    /// Removes `i`; returns `true` if it was set.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ capacity`.
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.nbits, "bit {i} out of range ({} bits)", self.nbits);
        let (w, b) = (i / WORD_BITS, 1u64 << (i % WORD_BITS));
        let was = self.words[w] & b != 0;
        self.words[w] &= !b;
        was
    }

    /// Clears every bit (capacity is unchanged).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Word-parallel intersection popcount: `|self ∩ other|`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn and_count(&self, other: &BitSet) -> usize {
        assert_eq!(self.nbits, other.nbits, "bitset capacity mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Iterates set bits in ascending order.
    pub fn iter_ones(&self) -> Ones<'_> {
        Ones {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The set as a sorted `Vec<usize>` (the workspace node-set shape).
    pub fn to_nodes(&self) -> Vec<usize> {
        self.iter_ones().collect()
    }
}

/// Ascending iterator over the set bits of a [`BitSet`].
#[derive(Debug, Clone)]
pub struct Ones<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let tz = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + tz);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

/// Reusable `disc`/`low` buffers for [`masked_articulation_points`].
///
/// The incremental prune kernel reruns the pass on a shrinking mask
/// whenever its local cut-vertex certificates would cost more than a
/// pass; the scratch avoids an `O(n)` allocation per call (only the
/// mask's members are reset between calls).
#[derive(Debug, Default)]
pub struct ArticulationScratch {
    disc: Vec<usize>,
    low: Vec<usize>,
}

impl ArticulationScratch {
    /// Empty scratch; buffers grow lazily to the graph size on first use.
    pub fn new() -> Self {
        ArticulationScratch::default()
    }
}

/// Articulation points of the induced subgraph `G[mask]`, without
/// materializing it, and the number of its components.
///
/// Iterative Tarjan lowlink over `g` restricted to `mask`: non-member
/// neighbours are skipped in place, so the cost is `O(Σ_{v∈mask} deg v)`
/// per call and no induced CSR is built.  Results land in `cut` (resized
/// and cleared as needed), in `g`'s numbering: the members whose removal
/// splits their component of `G[mask]`.  `scratch` carries the timestamp
/// buffers across calls.  Returns the number of depth-first trees, one
/// per component.  The workspace's only articulation-point routine.
///
/// # Panics
///
/// Panics if `mask` was not sized for `g`.
pub fn masked_articulation_points(
    g: &Graph,
    mask: &BitSet,
    scratch: &mut ArticulationScratch,
    cut: &mut BitSet,
) -> usize {
    let n = g.num_nodes();
    assert_eq!(mask.capacity(), n, "mask capacity mismatch");
    if scratch.disc.len() < n {
        scratch.disc.resize(n, usize::MAX);
        scratch.low.resize(n, usize::MAX);
    }
    // Only member entries are ever read, so resetting members suffices no
    // matter what a previous call (with a different mask) left behind.
    for v in mask.iter_ones() {
        scratch.disc[v] = usize::MAX;
    }
    if cut.capacity() != n {
        *cut = BitSet::new(n);
    } else {
        cut.clear();
    }
    let disc = &mut scratch.disc;
    let low = &mut scratch.low;
    let mut timer = 0usize;
    let mut components = 0usize;
    for root in mask.iter_ones() {
        if disc[root] != usize::MAX {
            continue;
        }
        components += 1;
        // Each frame holds the node, its parent and its live neighbour
        // iterator (resumable across pushes).
        let mut stack = vec![(root, usize::MAX, g.neighbors(root).iter())];
        let mut root_children = 0usize;
        disc[root] = timer;
        low[root] = timer;
        timer += 1;
        while let Some(top) = stack.last_mut() {
            let (v, parent) = (top.0, top.1);
            if let Some(&u) = top.2.next() {
                let u = u as usize;
                if !mask.contains(u) {
                    continue;
                }
                if disc[u] == usize::MAX {
                    disc[u] = timer;
                    low[u] = timer;
                    timer += 1;
                    if v == root {
                        root_children += 1;
                    }
                    stack.push((u, v, g.neighbors(u).iter()));
                } else if u != parent {
                    low[v] = low[v].min(disc[u]);
                }
            } else {
                stack.pop();
                if let Some(prev) = stack.last_mut() {
                    let p = prev.0;
                    low[p] = low[p].min(low[v]);
                    if p != root && low[v] >= disc[p] {
                        cut.insert(p);
                    }
                }
            }
        }
        if root_children >= 2 {
            cut.insert(root);
        }
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{node_mask, subsets, Graph};

    #[test]
    fn insert_remove_contains_roundtrip() {
        let mut s = BitSet::new(100);
        assert!(s.insert(63));
        assert!(!s.insert(63));
        assert!(s.insert(64));
        assert!(s.contains(63) && s.contains(64) && !s.contains(65));
        assert!(s.remove(63));
        assert!(!s.remove(63));
        assert_eq!(s.to_nodes(), vec![64]);
        assert!(!s.contains(1000)); // past capacity: absent, not a panic
    }

    #[test]
    fn word_parallel_ops_match_naive() {
        let a = BitSet::from_nodes(130, &[0, 1, 63, 64, 65, 128]);
        let b = BitSet::from_nodes(130, &[1, 64, 127, 129]);
        assert_eq!(a.and_count(&b), 2);
    }

    /// The oracle, independent of any Tarjan: a member is a cut vertex of
    /// `G[members]` iff dropping it raises the component count.
    fn cuts_by_removal(g: &Graph, members: &[usize]) -> Vec<usize> {
        let mut mask = node_mask(g.num_nodes(), members);
        let base = subsets::count_components(g, &mask);
        let mut out = Vec::new();
        for &v in members {
            mask[v] = false;
            if subsets::count_components(g, &mask) > base {
                out.push(v);
            }
            mask[v] = true;
        }
        out
    }

    /// The masked pass over all of `g`: its cut vertices and components.
    fn articulation_points(g: &Graph) -> (Vec<usize>, usize) {
        let n = g.num_nodes();
        let all = BitSet::from_nodes(n, &(0..n).collect::<Vec<_>>());
        let mut cut = BitSet::new(n);
        let parts = masked_articulation_points(g, &all, &mut ArticulationScratch::new(), &mut cut);
        (cut.to_nodes(), parts)
    }

    #[test]
    fn articulation_points_of_named_families() {
        // Path: all interior nodes are cuts.
        assert_eq!(articulation_points(&Graph::path(5)), (vec![1, 2, 3], 1));
        assert_eq!(
            articulation_points(&Graph::path(9)).0,
            (1..8).collect::<Vec<_>>()
        );
        // Cycle: 2-connected, no cuts.
        assert_eq!(articulation_points(&Graph::cycle(6)), (vec![], 1));
        assert_eq!(articulation_points(&Graph::cycle(8)), (vec![], 1));
        // Star: the hub.
        assert_eq!(articulation_points(&Graph::star(5)), (vec![0], 1));
        // Complete graph: none.
        assert_eq!(articulation_points(&Graph::complete(5)), (vec![], 1));
        // Two triangles sharing a vertex: the shared vertex.
        let bowtie = Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
        assert_eq!(articulation_points(&bowtie), (vec![2], 1));
        // A triangle with a tail that forks.
        let forked = Graph::from_edges(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (4, 6)]);
        assert_eq!(articulation_points(&forked), (vec![2, 3, 4], 1));
        // Disconnected graph: per-component cuts.
        let two_paths = Graph::from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]);
        assert_eq!(articulation_points(&two_paths), (vec![1, 4], 2));
        assert_eq!(articulation_points(&Graph::empty(3)), (vec![], 3));
        assert_eq!(articulation_points(&Graph::empty(0)), (vec![], 0));
    }

    #[test]
    fn articulation_matches_brute_force() {
        let mut s = 777u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..25 {
            let n = 10;
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if next() % 100 < 28 {
                        edges.push((u, v));
                    }
                }
            }
            let g = Graph::from_edges(n, edges);
            let all: Vec<usize> = (0..n).collect();
            let parts = subsets::count_components(&g, &vec![true; n]);
            assert_eq!(
                articulation_points(&g),
                (cuts_by_removal(&g, &all), parts),
                "{g:?}"
            );
        }
    }

    #[test]
    fn masked_articulation_matches_removal_and_scratch_reuses() {
        let g = Graph::from_edges(
            10,
            [
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 8),
                (8, 9),
                (9, 4),
            ],
        );
        let mut scratch = ArticulationScratch::new();
        let mut cut = BitSet::new(g.num_nodes());
        // Three different masks through the same scratch: stale timestamps
        // from one run must not poison the next.
        for (members, parts) in [
            (vec![0, 1, 2, 3, 4, 5], 1),
            (vec![3, 4, 5, 6, 7, 8, 9], 1),
            (vec![0, 1, 5, 6, 8], 3),
        ] {
            let mask = BitSet::from_nodes(g.num_nodes(), &members);
            let found = masked_articulation_points(&g, &mask, &mut scratch, &mut cut);
            assert_eq!(found, parts, "{members:?}");
            assert_eq!(cut.to_nodes(), cuts_by_removal(&g, &members), "{members:?}");
        }
    }
}
