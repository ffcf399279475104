//! Streaming construction of huge unit-disk graphs directly into the
//! gap-compressed [`CompactGraph`] backend.
//!
//! [`stream_build`] relabels nodes in **grid-sweep order** — sorted by
//! `(cell_y, cell_x, original index)` over cells as wide as the edge
//! test reaches — so each grid row occupies a contiguous id range and
//! geometric neighbors get nearby ids.  It then walks the same sorted
//! cell table that [`Udg::with_radius`](crate::Udg::with_radius) fills
//! its CSR from, and feeds each node's adjacency, gathered from the 3×3
//! cell block around it, straight into the [`CompactGraphBuilder`]
//! varint encoder.  In sweep order the block's cells ascend, so every
//! adjacency comes out sorted.
//!
//! No edge list ever exists; peak transient state is the reordered points
//! plus the cell table.  The relabeling is also what makes the gap
//! compression effective: consecutive neighbors within a row differ by
//! small deltas, so most arcs cost one byte instead of the four a CSR
//! target occupies (measured in experiment E23).
//!
//! Edge semantics are identical to [`Udg`](crate::Udg) because the edge
//! test is the same code: closed-ball adjacency `dist² ≤ r² + EPS` over
//! the same cells, so rebuilding a CSR [`Udg`](crate::Udg) over
//! [`StreamedUdg::points`] yields exactly the same graph (asserted by
//! this module's tests and gated end-to-end by `scripts/verify.sh`).

use mcds_geom::Point;
use mcds_graph::{CompactGraph, CompactGraphBuilder};

use crate::cells::CellTable;

/// A unit-disk instance built by [`stream_build`]: the gap-compressed
/// graph, the grid-sweep-reordered points, and the relabeling that maps
/// new node ids back to the caller's original indices.
///
/// Node `i` of [`StreamedUdg::graph`] sits at [`StreamedUdg::points`]`[i]`,
/// which is the caller's point `permutation()[i]`.
#[derive(Clone)]
pub struct StreamedUdg {
    graph: CompactGraph,
    points: Vec<Point>,
    perm: Vec<usize>,
    radius: f64,
}

impl StreamedUdg {
    /// The compressed communication topology.
    pub fn graph(&self) -> &CompactGraph {
        &self.graph
    }

    /// Node coordinates in grid-sweep order; node `i` sits at index `i`.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Maps new node id `i` to the index of the same point in the input
    /// of [`stream_build`] (a bijection on `0..n`).
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// The communication radius used to build the graph.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if the instance has no nodes.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

impl std::fmt::Debug for StreamedUdg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "StreamedUdg(n={}, m={}, r={})",
            self.points.len(),
            self.graph.num_edges(),
            self.radius
        )
    }
}

/// Builds the unit-radius disk graph over `points` straight into the
/// compressed backend; see the [module docs](self) for the construction.
///
/// # Panics
///
/// Panics if any point has non-finite coordinates.
pub fn stream_build_unit(points: Vec<Point>) -> StreamedUdg {
    stream_build(points, 1.0)
}

/// Builds the radius-`radius` disk graph over `points` straight into the
/// compressed backend; see the [module docs](self) for the construction.
///
/// # Panics
///
/// Panics if `radius` is not strictly positive and finite, or if any
/// point has non-finite coordinates.
pub fn stream_build(points: Vec<Point>, radius: f64) -> StreamedUdg {
    let table = CellTable::new(&points, radius);
    drop(points);
    let mut b = CompactGraphBuilder::new(table.order().len());
    table.for_each_row(|_, row| {
        b.push_adjacency(row);
    });
    let (order, points) = table.into_sweep();
    StreamedUdg {
        graph: b.finish(),
        points,
        perm: order.into_iter().map(|i| i as usize).collect(),
        radius,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Udg;
    use mcds_graph::RandomAccessGraph;

    fn pseudo_points(n: usize, side: f64, seed: u64) -> Vec<Point> {
        let mut s = seed.max(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| Point::new(next() * side, next() * side))
            .collect()
    }

    #[test]
    fn streamed_graph_matches_csr_rebuild_over_its_points() {
        for seed in [3u64, 11, 42] {
            let pts = pseudo_points(250, 5.0, seed);
            let streamed = stream_build(pts, 1.0);
            let csr = Udg::with_radius(streamed.points().to_vec(), 1.0);
            assert_eq!(
                &streamed.graph().to_graph(),
                csr.graph(),
                "seed {seed}: streamed compact != CSR over the same points"
            );
        }
    }

    #[test]
    fn relabeling_is_a_bijection_preserving_geometry() {
        let pts = pseudo_points(120, 4.0, 7);
        let streamed = stream_build(pts.clone(), 1.0);
        let mut seen = vec![false; pts.len()];
        for (new_id, &orig) in streamed.permutation().iter().enumerate() {
            assert!(!seen[orig], "original index {orig} mapped twice");
            seen[orig] = true;
            assert_eq!(streamed.points()[new_id], pts[orig]);
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn streamed_graph_is_isomorphic_to_direct_build() {
        // Relabeling permutes node ids, so compare label-free invariants
        // against the direct CSR build over the original ordering.
        let pts = pseudo_points(300, 5.5, 13);
        let direct = Udg::with_radius(pts.clone(), 1.0);
        let streamed = stream_build(pts, 1.0);
        assert_eq!(streamed.graph().num_nodes(), direct.graph().num_nodes());
        assert_eq!(streamed.graph().num_edges(), direct.graph().num_edges());
        let mut a: Vec<usize> = (0..direct.graph().num_nodes())
            .map(|v| direct.graph().degree(v))
            .collect();
        let mut b: Vec<usize> = (0..streamed.graph().num_nodes())
            .map(|v| streamed.graph().degree(v))
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "degree multisets differ");
        assert_eq!(
            direct.graph().is_connected(),
            streamed.graph().is_connected()
        );
    }

    #[test]
    fn closed_ball_boundary_semantics_match_udg() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0 + 1e-6, 0.0),
        ];
        let streamed = stream_build(pts, 1.0);
        // Distance exactly 1 is an edge; 1 + 1e-6 is not.
        assert_eq!(streamed.graph().num_edges(), 1);
    }

    #[test]
    fn empty_and_singleton() {
        let e = stream_build(Vec::new(), 1.0);
        assert!(e.is_empty());
        assert_eq!(e.graph().num_nodes(), 0);
        let s = stream_build_unit(vec![Point::ORIGIN]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.graph().num_edges(), 0);
        assert_eq!(s.permutation(), &[0]);
    }

    #[test]
    fn negative_coordinates_and_sparse_rows() {
        // Points straddling cell (0,0) with an empty row band in between:
        // the window must not bridge rows two cells apart.
        let pts = vec![
            Point::new(-0.5, -0.5),
            Point::new(0.5, 0.5),
            Point::new(0.5, 3.5), // isolated: empty rows 1 and 2 in between
        ];
        let streamed = stream_build(pts, 1.0);
        let csr = Udg::with_radius(streamed.points().to_vec(), 1.0);
        assert_eq!(&streamed.graph().to_graph(), csr.graph());
        assert_eq!(streamed.graph().degree(2), 0);
    }

    #[test]
    fn custom_radius_matches_udg() {
        let pts = pseudo_points(150, 12.0, 21);
        let streamed = stream_build(pts, 2.5);
        let csr = Udg::with_radius(streamed.points().to_vec(), 2.5);
        assert_eq!(&streamed.graph().to_graph(), csr.graph());
    }

    #[test]
    #[should_panic(expected = "radius")]
    fn zero_radius_rejected() {
        let _ = stream_build(vec![Point::ORIGIN], 0.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_point_rejected() {
        let _ = stream_build(vec![Point::new(f64::NAN, 0.0)], 1.0);
    }
}
