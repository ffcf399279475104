//! The gap-compressed adjacency backend.
//!
//! [`CompactGraph`] stores each sorted neighbor list as byte codes
//! (webgraph-style, but dependency-free): per node, a varint degree, the
//! first neighbor as a zig-zag varint of its delta from the node id, and
//! every following neighbor as a varint of `gap − 1` from its
//! predecessor.  A `Vec<u64>` of per-node byte offsets gives random
//! access.  On spatially ordered instances (the streaming UDG builder
//! relabels nodes in grid-sweep order) gaps are small and most arcs cost
//! one byte, versus four in the CSR `targets` array — the ≥3× adjacency
//! compression the E23 experiment gates on.
//!
//! The decode side trusts nothing: every varint read is checked (see
//! [`crate::codec`]), so a corrupted stream panics with a diagnostic
//! instead of producing a silently wrong graph.  Streams built through
//! [`CompactGraphBuilder`] are valid by construction.

use std::fmt;

use crate::codec::{read_varint, write_varint, zigzag_decode, zigzag_encode};
use crate::{Graph, RandomAccessGraph, SequentialGraph};

/// An immutable, undirected, simple graph with gap-compressed sorted
/// adjacency — the compact counterpart of the CSR [`Graph`].
///
/// Both backends present the identical canonical view through
/// [`SequentialGraph`]/[`RandomAccessGraph`], so every solver produces
/// byte-identical output on either (the `substrate` gate in
/// `scripts/verify.sh` checks exactly this).
///
/// ```
/// use mcds_graph::{CompactGraph, Graph, RandomAccessGraph};
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
/// let c = CompactGraph::from_graph(&g);
/// assert_eq!(c.num_nodes(), 4);
/// assert_eq!(c.successors(1).collect::<Vec<_>>(), vec![0, 2]);
/// assert_eq!(c.to_graph(), g);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct CompactGraph {
    n: usize,
    m: usize,
    offsets: Vec<u64>,
    bytes: Vec<u8>,
}

impl CompactGraph {
    /// Encodes any [`SequentialGraph`] (one streaming pass).
    pub fn from_sequential<G: SequentialGraph>(g: &G) -> Self {
        let mut b = CompactGraphBuilder::new(g.num_nodes());
        g.for_each_adjacency(|_, neighbors| {
            b.push_adjacency(neighbors);
        });
        let c = b.finish();
        debug_assert_eq!(c.num_edges(), g.num_edges());
        c
    }

    /// Encodes a CSR [`Graph`].
    pub fn from_graph(g: &Graph) -> Self {
        Self::from_sequential(g)
    }

    /// Decodes back into a CSR [`Graph`] (the inverse of
    /// [`CompactGraph::from_graph`]; round-trips are lossless).
    pub fn to_graph(&self) -> Graph {
        let mut offsets = Vec::with_capacity(self.n + 1);
        offsets.push(0usize);
        let mut targets = Vec::with_capacity(2 * self.m);
        self.for_each_adjacency(|_, neighbors| {
            targets.extend_from_slice(neighbors);
            offsets.push(targets.len());
        });
        Graph::from_sorted_adjacency(offsets, targets)
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        let mut pos = self.offsets[v] as usize;
        decode(read_varint(&self.bytes, &mut pos)) as usize
    }

    /// Iterator over the sorted neighbors of `v`.
    pub fn successors(&self, v: usize) -> CompactSuccessors<'_> {
        let mut pos = self.offsets[v] as usize;
        let remaining = decode(read_varint(&self.bytes, &mut pos)) as usize;
        CompactSuccessors {
            bytes: &self.bytes,
            pos,
            remaining,
            node: v as i64,
            prev: 0,
            first: true,
        }
    }

    /// Adjacency test via the sorted gap stream (early exit).
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        RandomAccessGraph::has_edge(self, u, v)
    }

    /// Bytes spent on the compressed adjacency stream — the number the
    /// E23 experiment compares against the CSR's `4 · 2m` target bytes.
    #[inline]
    pub fn adjacency_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Bytes spent on the per-node offset index (reported separately:
    /// both backends pay an offsets array).
    #[inline]
    pub fn offset_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u64>()
    }
}

impl SequentialGraph for CompactGraph {
    fn num_nodes(&self) -> usize {
        self.n
    }

    fn num_edges(&self) -> usize {
        self.m
    }

    fn for_each_adjacency<F: FnMut(usize, &[u32])>(&self, mut f: F) {
        let mut buf: Vec<u32> = Vec::new();
        for v in 0..self.n {
            buf.clear();
            buf.extend(self.successors(v).map(|u| u as u32));
            f(v, &buf);
        }
    }
}

impl RandomAccessGraph for CompactGraph {
    type Successors<'a> = CompactSuccessors<'a>;

    fn successors(&self, v: usize) -> CompactSuccessors<'_> {
        CompactGraph::successors(self, v)
    }

    fn degree(&self, v: usize) -> usize {
        CompactGraph::degree(self, v)
    }
}

impl fmt::Debug for CompactGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CompactGraph(n={}, m={}, adj_bytes={})",
            self.n,
            self.m,
            self.bytes.len()
        )
    }
}

/// Unwraps a codec read from an in-memory stream.  Builder-produced
/// streams are valid by construction, so a failure here means memory
/// corruption or a hand-assembled graph — panic with the diagnostic.
#[inline]
fn decode(r: Result<u64, crate::codec::CodecError>) -> u64 {
    match r {
        Ok(x) => x,
        Err(e) => panic!("corrupt CompactGraph stream: {e}"),
    }
}

/// Sorted successor iterator decoding the gap stream of one node.
#[derive(Debug, Clone)]
pub struct CompactSuccessors<'a> {
    bytes: &'a [u8],
    pos: usize,
    remaining: usize,
    node: i64,
    prev: u64,
    first: bool,
}

impl Iterator for CompactSuccessors<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let code = decode(read_varint(self.bytes, &mut self.pos));
        let value = if self.first {
            self.first = false;
            let first = self.node + zigzag_decode(code);
            debug_assert!(first >= 0, "negative neighbor in stream");
            first as u64
        } else {
            self.prev + code + 1
        };
        self.prev = value;
        Some(value as usize)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for CompactSuccessors<'_> {}

/// Incremental encoder accepting `(node, sorted neighbors)` in increasing
/// node order — the write half of [`CompactGraph`], used by
/// [`CompactGraph::from_sequential`] and the streaming UDG builder (which never materializes an edge list).
///
/// The caller must push one adjacency list per node, in node order, and
/// the lists must together describe an undirected graph (each edge
/// present from both endpoints).  Per-list invariants (sorted, strictly
/// ascending, in-range, no self-loop) are asserted eagerly; symmetry is
/// the caller's contract, cheaply cross-checked by the arc count in
/// [`CompactGraphBuilder::finish`].
#[derive(Debug, Clone)]
pub struct CompactGraphBuilder {
    n: usize,
    next_node: usize,
    arcs: usize,
    offsets: Vec<u64>,
    bytes: Vec<u8>,
}

impl CompactGraphBuilder {
    /// Starts an encoder for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        CompactGraphBuilder {
            n,
            next_node: 0,
            arcs: 0,
            offsets,
            bytes: Vec::new(),
        }
    }

    /// The node id the next [`CompactGraphBuilder::push_adjacency`] call
    /// will encode.
    pub fn next_node(&self) -> usize {
        self.next_node
    }

    /// Encodes the sorted neighbor list of the next node.
    ///
    /// # Panics
    ///
    /// Panics if all `n` lists were already pushed, if `neighbors` is not
    /// strictly ascending, or if an entry is out of range or a self-loop.
    pub fn push_adjacency(&mut self, neighbors: &[u32]) -> &mut Self {
        let v = self.next_node;
        assert!(
            v < self.n,
            "adjacency list for node {v} exceeds n = {}",
            self.n
        );
        write_varint(&mut self.bytes, neighbors.len() as u64);
        let mut prev: Option<u32> = None;
        for &u in neighbors {
            assert!(
                (u as usize) < self.n,
                "neighbor {u} out of range for n = {}",
                self.n
            );
            assert!(u as usize != v, "self-loop at node {v} is not allowed");
            match prev {
                None => write_varint(&mut self.bytes, zigzag_encode(u as i64 - v as i64)),
                Some(p) => {
                    assert!(p < u, "neighbors of node {v} not strictly ascending");
                    write_varint(&mut self.bytes, (u - p - 1) as u64);
                }
            }
            prev = Some(u);
        }
        self.arcs += neighbors.len();
        self.offsets.push(self.bytes.len() as u64);
        self.next_node += 1;
        self
    }

    /// Finalizes into a [`CompactGraph`].
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` lists were pushed, or if the total arc
    /// count is odd (the cheap witness of an asymmetric input).
    pub fn finish(self) -> CompactGraph {
        assert_eq!(
            self.next_node, self.n,
            "got adjacency lists for {} of {} nodes",
            self.next_node, self.n
        );
        assert!(
            self.arcs.is_multiple_of(2),
            "odd arc count {}: adjacency lists are not symmetric",
            self.arcs
        );
        CompactGraph {
            n: self.n,
            m: self.arcs / 2,
            offsets: self.offsets,
            bytes: self.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_named_families() {
        for g in [
            Graph::empty(0),
            Graph::empty(5),
            Graph::path(9),
            Graph::cycle(6),
            Graph::star(8),
            Graph::complete(7),
            Graph::from_edges(6, [(0, 5), (1, 4), (0, 1)]),
        ] {
            let c = CompactGraph::from_graph(&g);
            assert_eq!(c.num_nodes(), g.num_nodes());
            assert_eq!(c.num_edges(), g.num_edges());
            for v in 0..g.num_nodes() {
                assert_eq!(c.degree(v), g.degree(v), "{g:?} node {v}");
                assert_eq!(
                    c.successors(v).collect::<Vec<_>>(),
                    g.neighbors_iter(v).collect::<Vec<_>>(),
                    "{g:?} node {v}"
                );
            }
            assert_eq!(c.to_graph(), g, "{g:?}");
        }
    }

    #[test]
    fn gap_encoding_is_small_on_local_graphs() {
        // A path has gaps of ±1 everywhere: every arc costs one byte.
        let g = Graph::path(1000);
        let c = CompactGraph::from_graph(&g);
        let arcs = 2 * g.num_edges();
        // degree byte per node + one byte per arc.
        assert_eq!(c.adjacency_bytes(), 1000 + arcs);
        assert!(c.adjacency_bytes() < 4 * arcs / 3 + 1000);
    }

    #[test]
    fn successors_is_exact_size() {
        let g = Graph::star(6);
        let c = CompactGraph::from_graph(&g);
        let it = c.successors(0);
        assert_eq!(it.len(), 5);
        assert_eq!(it.size_hint(), (5, Some(5)));
    }

    #[test]
    fn builder_validates_eagerly() {
        let r = std::panic::catch_unwind(|| {
            CompactGraphBuilder::new(3).push_adjacency(&[1, 1]);
        });
        assert!(r.is_err(), "duplicate neighbor must panic");
        let r = std::panic::catch_unwind(|| {
            CompactGraphBuilder::new(3).push_adjacency(&[3]);
        });
        assert!(r.is_err(), "out-of-range neighbor must panic");
        let r = std::panic::catch_unwind(|| {
            CompactGraphBuilder::new(3).push_adjacency(&[0]);
        });
        assert!(r.is_err(), "self-loop must panic");
        let r = std::panic::catch_unwind(|| {
            let mut b = CompactGraphBuilder::new(2);
            b.push_adjacency(&[1]);
            b.push_adjacency(&[0]);
            b.push_adjacency(&[]);
        });
        assert!(r.is_err(), "extra list must panic");
    }

    #[test]
    fn finish_checks_completeness_and_symmetry() {
        let r = std::panic::catch_unwind(|| {
            CompactGraphBuilder::new(2).finish();
        });
        assert!(r.is_err(), "missing lists must panic");
        let r = std::panic::catch_unwind(|| {
            let mut b = CompactGraphBuilder::new(2);
            b.push_adjacency(&[1]);
            b.push_adjacency(&[]);
            b.finish();
        });
        assert!(r.is_err(), "odd arc count must panic");
    }

    #[test]
    fn far_apart_first_neighbors_still_roundtrip() {
        // First-neighbor deltas can be large and of either sign.
        let n = 100_000;
        let g = Graph::from_edges(n, [(0, n - 1), (1, n - 2), (50_000, 50_001)]);
        let c = CompactGraph::from_graph(&g);
        assert_eq!(c.to_graph(), g);
        assert!(c.has_edge(0, n - 1));
        assert!(c.has_edge(n - 1, 0));
        assert!(!c.has_edge(0, 1));
    }

    #[test]
    fn debug_is_informative() {
        let c = CompactGraph::from_graph(&Graph::path(3));
        let s = format!("{c:?}");
        assert!(s.contains("n=3"));
        assert!(s.contains("m=2"));
    }
}
