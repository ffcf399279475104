//! Word-parallel bitset kernels — packed `u64` node sets and adjacency
//! rows for the hot inner loops of phase 2 and the prune post-pass.
//!
//! The paper's greedy connector phase and the pruning post-pass both
//! reduce to repeated set queries over node subsets: "which neighbors of
//! `w` are in the current set?", "is every vertex covered?", "does
//! removing `v` disconnect `G[S]`?".  This module provides the packed
//! representations those queries vectorize over:
//!
//! * [`BitSet`] — a fixed-capacity node set, one bit per node, with
//!   word-parallel union ([`BitSet::or_assign`]), intersection popcount
//!   ([`BitSet::and_count`]) and first-gap search
//!   ([`BitSet::first_unset`]),
//! * [`BitRows`] — packed adjacency rows (`n × ⌈n/64⌉` words) built once
//!   from any [`RandomAccessGraph`] backend, so a neighborhood is a word
//!   slice that ORs/ANDs against a [`BitSet`] without pointer chasing,
//! * [`masked_articulation_points`] — iterative Tarjan restricted to a
//!   [`BitSet`] mask with reusable scratch, the connectivity side of the
//!   incremental prune kernel (no induced subgraph is materialized).
//!
//! Trailing bits past the logical capacity are kept zero at all times;
//! every word-parallel routine relies on that invariant.

use crate::RandomAccessGraph;

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

    /// Word-parallel union: `self |= other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn or_assign(&mut self, other: &BitSet) {
        assert_eq!(self.nbits, other.nbits, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
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

    /// Smallest id `< capacity` that is *not* in the set, scanning a word
    /// (64 candidates) at a time — the early-exit "first uncovered
    /// vertex" query of the domination check.
    pub fn first_unset(&self) -> Option<usize> {
        for (k, &w) in self.words.iter().enumerate() {
            if w != u64::MAX {
                let i = k * WORD_BITS + (!w).trailing_zeros() as usize;
                // The gap may be in the zero padding past `nbits`.
                return (i < self.nbits).then_some(i);
            }
        }
        None
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

    /// The raw word storage (trailing padding bits are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
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

/// Decodes the set bits of a word slice in ascending order.
fn for_each_word_one<F: FnMut(usize)>(words: &[u64], mut f: F) {
    for (k, &w) in words.iter().enumerate() {
        let mut w = w;
        while w != 0 {
            let tz = w.trailing_zeros() as usize;
            w &= w - 1;
            f(k * WORD_BITS + tz);
        }
    }
}

/// Packed `u64` adjacency rows: row `v` is the neighborhood `N(v)` as a
/// `⌈n/64⌉`-word bit vector.
///
/// Built once from any [`RandomAccessGraph`] backend; neighborhood
/// queries against a [`BitSet`] then run word-parallel.  Storage is
/// `n · ⌈n/64⌉ · 8` bytes (see [`BitRows::bytes_for`]), so rows are only
/// materialized below a size threshold — the kernel layers above pick
/// row-free variants of the same algorithms past it.
///
/// ```
/// use mcds_graph::{bitgraph::BitRows, Graph};
/// let g = Graph::path(5);
/// let rows = BitRows::build(&g);
/// assert_eq!(rows.edges(), vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
/// ```
#[derive(Debug, Clone)]
pub struct BitRows {
    n: usize,
    wpr: usize,
    words: Vec<u64>,
}

impl BitRows {
    /// Packs every adjacency row of `g`.
    pub fn build<G: RandomAccessGraph>(g: &G) -> Self {
        let n = g.num_nodes();
        let wpr = n.div_ceil(WORD_BITS);
        let mut words = vec![0u64; n * wpr];
        for v in 0..n {
            let base = v * wpr;
            for u in g.successors(v) {
                words[base + u / WORD_BITS] |= 1 << (u % WORD_BITS);
            }
        }
        BitRows { n, wpr, words }
    }

    /// Number of nodes (rows).
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Words per row (`⌈n/64⌉`).
    pub fn words_per_row(&self) -> usize {
        self.wpr
    }

    /// Storage cost of packed rows for an `n`-node graph, in bytes.
    pub fn bytes_for(n: usize) -> usize {
        n * n.div_ceil(WORD_BITS) * std::mem::size_of::<u64>()
    }

    /// The packed row `N(v)`.
    pub fn row(&self, v: usize) -> &[u64] {
        &self.words[v * self.wpr..(v + 1) * self.wpr]
    }

    /// Word-parallel row OR: `out |= N(v)` — one step of building a
    /// coverage mask from closed neighborhoods.
    ///
    /// # Panics
    ///
    /// Panics if `out` was not sized for this graph.
    pub fn or_row_into(&self, v: usize, out: &mut BitSet) {
        assert_eq!(out.nbits, self.n, "bitset capacity mismatch");
        for (a, b) in out.words.iter_mut().zip(self.row(v)) {
            *a |= b;
        }
    }

    /// Word-parallel masked degree: `|N(v) ∩ mask|`.
    ///
    /// # Panics
    ///
    /// Panics if `mask` was not sized for this graph.
    pub fn row_and_count(&self, v: usize, mask: &BitSet) -> usize {
        assert_eq!(mask.nbits, self.n, "bitset capacity mismatch");
        self.row(v)
            .iter()
            .zip(&mask.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Visits the neighbors of `v` in ascending order (the same order a
    /// backend's sorted successor iterator yields).
    pub fn for_each_one<F: FnMut(usize)>(&self, v: usize, f: F) {
        for_each_word_one(self.row(v), f);
    }

    /// Visits `N(v) ∩ mask` in ascending order via a word-parallel AND.
    ///
    /// # Panics
    ///
    /// Panics if `mask` was not sized for this graph.
    pub fn for_each_and<F: FnMut(usize)>(&self, v: usize, mask: &BitSet, mut f: F) {
        assert_eq!(mask.nbits, self.n, "bitset capacity mismatch");
        for (k, (a, b)) in self.row(v).iter().zip(&mask.words).enumerate() {
            let mut w = a & b;
            while w != 0 {
                let tz = w.trailing_zeros() as usize;
                w &= w - 1;
                f(k * WORD_BITS + tz);
            }
        }
    }

    /// Decodes the rows back to a sorted `(u, v)` edge list with `u < v`
    /// — the round-trip counterpart of [`BitRows::build`], used by the
    /// equivalence tests.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for v in 0..self.n {
            for_each_word_one(self.row(v), |u| {
                if v < u {
                    out.push((v, u));
                }
            });
        }
        out
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
/// materializing it.
///
/// Iterative Tarjan lowlink over `g` restricted to `mask`: non-member
/// successors are skipped in place, so the cost is `O(Σ_{v∈mask} deg v)`
/// per call and no induced CSR is built.  Results land in `cut` (resized
/// and cleared as needed); `scratch` carries the timestamp buffers
/// across calls.  Node ids are in `g`'s numbering, exactly the set
/// `crate::traversal::articulation_points` would report on the
/// materialized induced subgraph mapped back through its node map.
///
/// # Panics
///
/// Panics if `mask` was not sized for `g`.
pub fn masked_articulation_points<G: RandomAccessGraph>(
    g: &G,
    mask: &BitSet,
    scratch: &mut ArticulationScratch,
    cut: &mut BitSet,
) {
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
    for root in mask.iter_ones() {
        if disc[root] != usize::MAX {
            continue;
        }
        // Same frame layout as `traversal::articulation_points`: node,
        // parent, live successor iterator (resumable across pushes).
        let mut stack: Vec<(usize, usize, G::Successors<'_>)> =
            vec![(root, usize::MAX, g.successors(root))];
        let mut root_children = 0usize;
        disc[root] = timer;
        low[root] = timer;
        timer += 1;
        while let Some(top) = stack.last_mut() {
            let (v, parent) = (top.0, top.1);
            if let Some(u) = top.2.next() {
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
                    stack.push((u, v, g.successors(u)));
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{subsets, traversal, Graph};

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
    fn first_unset_respects_padding() {
        // All 65 bits set: the only gaps are padding, which must not leak.
        let all: Vec<usize> = (0..65).collect();
        let s = BitSet::from_nodes(65, &all);
        assert_eq!(s.first_unset(), None);
        let mut s = s;
        s.remove(64);
        assert_eq!(s.first_unset(), Some(64));
        s.remove(0);
        assert_eq!(s.first_unset(), Some(0));
    }

    #[test]
    fn word_parallel_ops_match_naive() {
        let a = BitSet::from_nodes(130, &[0, 1, 63, 64, 65, 128]);
        let b = BitSet::from_nodes(130, &[1, 64, 127, 129]);
        assert_eq!(a.and_count(&b), 2);
        let mut u = a.clone();
        u.or_assign(&b);
        assert_eq!(u.to_nodes(), vec![0, 1, 63, 64, 65, 127, 128, 129]);
        assert_eq!(u.count_ones(), 8);
    }

    #[test]
    fn rows_roundtrip_and_masked_queries() {
        let g = Graph::from_edges(70, [(0, 69), (0, 1), (63, 64), (2, 65)]);
        let rows = BitRows::build(&g);
        assert_eq!(rows.edges(), vec![(0, 1), (0, 69), (2, 65), (63, 64)]);
        let mask = BitSet::from_nodes(70, &[1, 64, 69]);
        assert_eq!(rows.row_and_count(0, &mask), 2);
        let mut seen = Vec::new();
        rows.for_each_and(0, &mask, |u| seen.push(u));
        assert_eq!(seen, vec![1, 69]);
        let mut cov = BitSet::new(70);
        rows.or_row_into(63, &mut cov);
        assert_eq!(cov.to_nodes(), vec![64]);
    }

    #[test]
    fn masked_articulation_matches_full_tarjan_on_full_mask() {
        for g in [
            Graph::path(9),
            Graph::cycle(8),
            Graph::from_edges(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (4, 6)]),
        ] {
            let full = BitSet::from_nodes(g.num_nodes(), &(0..g.num_nodes()).collect::<Vec<_>>());
            let mut scratch = ArticulationScratch::new();
            let mut cut = BitSet::new(g.num_nodes());
            masked_articulation_points(&g, &full, &mut scratch, &mut cut);
            assert_eq!(cut.to_nodes(), traversal::articulation_points(&g));
        }
    }

    #[test]
    fn masked_articulation_matches_induced_subgraph_and_scratch_reuses() {
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
        // Two different masks through the same scratch: stale timestamps
        // from the first run must not poison the second.
        for members in [vec![0, 1, 2, 3, 4, 5], vec![3, 4, 5, 6, 7, 8, 9]] {
            let mask = BitSet::from_nodes(g.num_nodes(), &members);
            masked_articulation_points(&g, &mask, &mut scratch, &mut cut);
            let (sub, map) = subsets::induced_subgraph(&g, &members);
            let expect: Vec<usize> = traversal::articulation_points(&sub)
                .into_iter()
                .map(|v| map[v])
                .collect();
            assert_eq!(cut.to_nodes(), expect);
        }
    }
}
