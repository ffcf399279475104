//! Instance statistics and deployment-quality metrics.
//!
//! The experiment harness and CLI summarize instances with these
//! functions; they are also useful for sanity-checking generated
//! deployments (e.g. "is the realized density near the target?").

use mcds_graph::traversal;

use crate::Udg;

/// Summary statistics of a UDG instance.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of links.
    pub edges: usize,
    /// Average degree `2m/n`.
    pub avg_degree: f64,
    /// Maximum degree.
    pub max_degree: usize,
    /// Number of isolated nodes (degree 0).
    pub isolated: usize,
    /// Number of connected components.
    pub components: usize,
    /// Fraction of nodes in the largest component.
    pub giant_fraction: f64,
    /// Hop diameter, if connected.
    pub diameter: Option<usize>,
}

/// Computes [`InstanceStats`] for an instance.
///
/// ```
/// use mcds_geom::Point;
/// use mcds_udg::{analysis::instance_stats, Udg};
///
/// let udg = Udg::build(vec![Point::new(0.0, 0.0), Point::new(0.9, 0.0)]);
/// let s = instance_stats(&udg);
/// assert_eq!((s.nodes, s.edges, s.components, s.diameter), (2, 1, 1, Some(1)));
/// ```
///
/// The diameter is [`traversal::diameter`]'s, a few breadth-first
/// searches on most instances; a disconnected instance skips it (`None`).
pub fn instance_stats(udg: &Udg) -> InstanceStats {
    let g = udg.graph();
    let n = g.num_nodes();
    let comps = traversal::connected_components(g);
    let giant = comps.iter().map(|c| c.len()).max().unwrap_or(0);
    let connected = comps.len() <= 1;
    InstanceStats {
        nodes: n,
        edges: g.num_edges(),
        avg_degree: g.avg_degree(),
        max_degree: g.max_degree(),
        isolated: (0..n).filter(|&v| g.degree(v) == 0).count(),
        components: comps.len(),
        giant_fraction: if n == 0 { 0.0 } else { giant as f64 / n as f64 },
        diameter: if connected && n > 0 {
            traversal::diameter(g)
        } else {
            None
        },
    }
}

/// Degree histogram: `hist[d]` = number of nodes with degree `d`.
pub fn degree_histogram(udg: &Udg) -> Vec<usize> {
    let g = udg.graph();
    let mut hist = vec![0usize; g.max_degree() + 1];
    for v in 0..g.num_nodes() {
        hist[g.degree(v)] += 1;
    }
    if udg.is_empty() {
        hist.clear();
    }
    hist
}

/// Empirical clustering coefficient of node `v`: the fraction of its
/// neighbor pairs that are themselves adjacent (UDGs are famously highly
/// clustered — geometrically ≥ some constant for interior nodes).
///
/// Returns `None` for nodes of degree < 2 (no neighbor pairs).
pub fn local_clustering(udg: &Udg, v: usize) -> Option<f64> {
    let g = udg.graph();
    let nbrs: Vec<usize> = g.neighbors_iter(v).collect();
    if nbrs.len() < 2 {
        return None;
    }
    let mut closed = 0usize;
    let mut total = 0usize;
    for i in 0..nbrs.len() {
        for j in (i + 1)..nbrs.len() {
            total += 1;
            if g.has_edge(nbrs[i], nbrs[j]) {
                closed += 1;
            }
        }
    }
    Some(closed as f64 / total as f64)
}

/// Mean local clustering over nodes of degree ≥ 2, or `None` if no such
/// node exists.
pub fn mean_clustering(udg: &Udg) -> Option<f64> {
    let vals: Vec<f64> = (0..udg.len())
        .filter_map(|v| local_clustering(udg, v))
        .collect();
    if vals.is_empty() {
        None
    } else {
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_geom::Point;

    fn chain(n: usize) -> Udg {
        Udg::build((0..n).map(|i| Point::new(i as f64 * 0.9, 0.0)).collect())
    }

    #[test]
    fn stats_of_chain() {
        let s = instance_stats(&chain(6));
        assert_eq!(s.nodes, 6);
        assert_eq!(s.edges, 5);
        assert_eq!(s.components, 1);
        assert_eq!(s.diameter, Some(5));
        assert_eq!(s.isolated, 0);
        assert_eq!(s.giant_fraction, 1.0);
        assert_eq!(s.max_degree, 2);
    }

    #[test]
    fn stats_of_disconnected() {
        let udg = Udg::build(vec![
            Point::new(0.0, 0.0),
            Point::new(0.5, 0.0),
            Point::new(9.0, 9.0),
        ]);
        let s = instance_stats(&udg);
        assert_eq!(s.components, 2);
        assert_eq!(s.diameter, None);
        assert_eq!(s.isolated, 1);
        assert!((s.giant_fraction - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn stats_of_empty() {
        let s = instance_stats(&Udg::build(Vec::new()));
        assert_eq!(s.nodes, 0);
        assert_eq!(s.components, 0);
        assert_eq!(s.giant_fraction, 0.0);
        assert_eq!(s.diameter, None);
    }

    #[test]
    fn degree_histogram_sums_to_n() {
        let udg = chain(7);
        let hist = degree_histogram(&udg);
        assert_eq!(hist.iter().sum::<usize>(), 7);
        assert_eq!(hist[1], 2); // endpoints
        assert_eq!(hist[2], 5); // interior
        assert!(degree_histogram(&Udg::build(Vec::new())).is_empty());
    }

    #[test]
    fn clustering_triangle_vs_chain() {
        // Equilateral-ish triangle: clustering 1 at every node.
        let tri = Udg::build(vec![
            Point::new(0.0, 0.0),
            Point::new(0.9, 0.0),
            Point::new(0.45, 0.7),
        ]);
        for v in 0..3 {
            assert_eq!(local_clustering(&tri, v), Some(1.0));
        }
        assert_eq!(mean_clustering(&tri), Some(1.0));
        // Chain interior nodes: neighbors at distance 1.8 apart — open.
        let ch = chain(5);
        assert_eq!(local_clustering(&ch, 2), Some(0.0));
        assert_eq!(local_clustering(&ch, 0), None); // degree 1
        assert_eq!(mean_clustering(&Udg::build(vec![Point::ORIGIN])), None);
    }
}
