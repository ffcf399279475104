//! The [`Udg`] type: points plus their induced unit-disk graph.

use mcds_geom::Point;
use mcds_graph::Graph;
use std::fmt;

use crate::cells::CellTable;

/// A unit-disk-graph instance: a planar point set and the undirected graph
/// it induces under a fixed communication radius.
///
/// The paper normalizes the transmission radius to one; [`Udg::build`] uses
/// that convention, and [`Udg::with_radius`] supports other radii (the
/// instance is equivalent to a unit-radius instance with coordinates
/// scaled by `1/r`).
///
/// The point set and graph are immutable after construction, so node `i`
/// of the graph always corresponds to `points()[i]`.
#[derive(Clone)]
pub struct Udg {
    points: Vec<Point>,
    radius: f64,
    graph: Graph,
}

impl Udg {
    /// Builds the unit-radius UDG over `points` in expected `O(n + m)`
    /// using a spatial grid.
    ///
    /// # Panics
    ///
    /// Panics if any point has non-finite coordinates.
    pub fn build(points: Vec<Point>) -> Self {
        Udg::with_radius(points, 1.0)
    }

    /// Builds the disk graph with communication radius `radius`.
    ///
    /// Points are sorted into a grid of cells as wide as the edge test
    /// `dist² ≤ r² + EPS` reaches, so each node tests only the 3×3 block
    /// of cells around it — expected `O(n + m)` instead of the naive
    /// `Θ(n²)`.  The CSR is filled in two passes over the cells, with no
    /// edge list: the first counts each node's degree, the second writes
    /// and sorts its row.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not strictly positive and finite, or if any
    /// point has non-finite coordinates.
    pub fn with_radius(points: Vec<Point>, radius: f64) -> Self {
        let table = CellTable::new(&points, radius);
        let order = table.order();
        let mut offsets = vec![0usize; points.len() + 1];
        table.for_each_row(|k, row| offsets[order[k] as usize + 1] = row.len());
        for v in 0..points.len() {
            offsets[v + 1] += offsets[v];
        }
        let mut targets = vec![0u32; offsets[points.len()]];
        table.for_each_row(|k, row| {
            let v = order[k] as usize;
            let out = &mut targets[offsets[v]..offsets[v + 1]];
            for (t, &u) in out.iter_mut().zip(row) {
                *t = order[u as usize];
            }
            out.sort_unstable();
        });
        Udg {
            points,
            radius,
            graph: Graph::from_sorted_adjacency(offsets, targets),
        }
    }

    /// Builds the UDG by brute force (`O(n²)`), as a reference for tests.
    pub fn build_naive(points: Vec<Point>, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius > 0.0,
            "communication radius must be positive and finite, got {radius}"
        );
        let r_sq = radius * radius + mcds_geom::EPS;
        let mut edges = Vec::new();
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                if points[i].dist_sq(points[j]) <= r_sq {
                    edges.push((i, j));
                }
            }
        }
        let graph = Graph::from_edges(points.len(), edges);
        Udg {
            points,
            radius,
            graph,
        }
    }

    /// The node coordinates; node `i` of [`Udg::graph`] sits at index `i`.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The communication radius used to build the graph.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// The induced communication topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if the instance has no nodes.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The sub-instance restricted to `keep` (any order; duplicates are
    /// ignored), with the points in ascending original index order.
    ///
    /// An edge of a unit-disk graph depends only on its two points and the
    /// radius, so the subgraph induced on a point subset is that subset's
    /// unit-disk graph: the graph is relabelled, not rebuilt.
    ///
    /// Used to extract giant components and to shrink instances for exact
    /// solvers.
    pub fn restricted_to(&self, keep: &[usize]) -> Udg {
        let (graph, keep) = self.graph.induced_subgraph(keep);
        Udg {
            points: keep.iter().map(|&i| self.points[i]).collect(),
            radius: self.radius,
            graph,
        }
    }
}

impl fmt::Debug for Udg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Udg(n={}, m={}, r={})",
            self.points.len(),
            self.graph.num_edges(),
            self.radius
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn grid_matches_naive_construction() {
        for seed in [3u64, 11, 42] {
            let pts = pseudo_points(180, 4.5, seed);
            let fast = Udg::build(pts.clone());
            let slow = Udg::build_naive(pts, 1.0);
            assert_eq!(fast.graph(), slow.graph(), "seed {seed}");
        }
    }

    #[test]
    fn radius_scaling_equivalence() {
        // Scaling coordinates by r and using radius r yields the same graph.
        let pts = pseudo_points(100, 3.0, 7);
        let unit = Udg::build(pts.clone());
        let scaled: Vec<Point> = pts.iter().map(|&p| p * 2.5).collect();
        let big = Udg::with_radius(scaled, 2.5);
        assert_eq!(unit.graph(), big.graph());
    }

    #[test]
    fn empty_and_singleton() {
        let e = Udg::build(Vec::new());
        assert!(e.is_empty());
        assert_eq!(e.graph().num_nodes(), 0);
        let s = Udg::build(vec![Point::ORIGIN]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.graph().num_edges(), 0);
    }

    #[test]
    fn boundary_distance_is_adjacent() {
        // Distance exactly 1 is an edge (closed disk semantics).
        let udg = Udg::build(vec![Point::ORIGIN, Point::new(1.0, 0.0)]);
        assert_eq!(udg.graph().num_edges(), 1);
        let udg2 = Udg::build(vec![Point::ORIGIN, Point::new(1.0 + 1e-6, 0.0)]);
        assert_eq!(udg2.graph().num_edges(), 0);
    }

    #[test]
    fn points_on_cell_boundaries_are_found() {
        // Points exactly on integer cell boundaries must not be missed.
        let udg = Udg::build(vec![
            Point::new(1.0, 1.0),
            Point::new(2.0, 1.0),
            Point::new(1.0, 2.0),
            Point::new(2.0, 2.0),
        ]);
        let edges: Vec<_> = udg.graph().edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn restriction_keeps_geometry() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(0.5, 0.0),
            Point::new(5.0, 5.0),
        ];
        let udg = Udg::build(pts);
        let sub = udg.restricted_to(&[0, 1]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.graph().num_edges(), 1);
        let sub2 = udg.restricted_to(&[2]);
        assert_eq!(sub2.len(), 1);
    }

    #[test]
    #[should_panic(expected = "radius")]
    fn zero_radius_rejected() {
        let _ = Udg::with_radius(vec![Point::ORIGIN], 0.0);
    }

    #[test]
    fn debug_contains_sizes() {
        let udg = Udg::build(vec![Point::ORIGIN, Point::new(0.5, 0.0)]);
        let s = format!("{udg:?}");
        assert!(s.contains("n=2"));
        assert!(s.contains("m=1"));
    }
}
