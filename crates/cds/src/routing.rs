//! Routing over a virtual backbone.
//!
//! The original motivation for CDS backbones (Das & Bharghavan \[2\]) is
//! *routing*: restrict route search to the backbone so that routing state
//! lives on few nodes.  The cost is *stretch* — backbone-constrained
//! routes can be longer than true shortest paths.  This module measures
//! it.

use crate::CdsError;
use mcds_graph::{node_mask, traversal, Graph};

/// Length (hop count) of the shortest `s → t` path whose *intermediate*
/// nodes all lie in `backbone`; endpoints are exempt.  Returns `None` if
/// no such path exists (it always exists when `backbone` is a CDS of a
/// connected graph).
///
/// ```
/// use mcds_graph::Graph;
/// use mcds_cds::routing::backbone_route_length;
/// let g = Graph::path(5);
/// // Interior nodes relay: 0 -> 1 -> 2 -> 3 -> 4.
/// assert_eq!(backbone_route_length(&g, &[1, 2, 3], 0, 4), Some(4));
/// // Gap in the backbone: unroutable.
/// assert_eq!(backbone_route_length(&g, &[1, 3], 0, 4), None);
/// ```
///
/// # Panics
///
/// Panics if `s` or `t` is out of range.
pub fn backbone_route_length(g: &Graph, backbone: &[usize], s: usize, t: usize) -> Option<usize> {
    let n = g.num_nodes();
    assert!(s < n && t < n, "endpoint out of range");
    Some(constrained_distances(g, backbone, s)[t]).filter(|&d| d != usize::MAX)
}

/// Stretch statistics of backbone routing over all pairs reachable in
/// `g` (exact; `O(n·m)` for the true distances plus a backbone BFS per
/// source).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StretchStats {
    /// Number of ordered pairs measured (`s ≠ t`).
    pub pairs: usize,
    /// Mean multiplicative stretch (backbone length / true length).
    pub mean: f64,
    /// Worst multiplicative stretch.
    pub max: f64,
    /// Mean additive stretch (backbone length − true length), in hops.
    pub mean_additive: f64,
}

/// Measures routing stretch of `backbone` over every connected pair.
///
/// ```
/// use mcds_graph::Graph;
/// use mcds_cds::{routing::stretch_stats, Algorithm, Solver};
/// let g = Graph::cycle(10);
/// let cds = Solver::new(Algorithm::GreedyConnect).solve(&g)?;
/// let s = stretch_stats(&g, cds.nodes()).expect("a CDS routes all pairs");
/// assert_eq!(s.pairs, 90);
/// assert!(s.mean >= 1.0);
/// # Ok::<(), mcds_cds::CdsError>(())
/// ```
///
/// # Errors
///
/// Returns [`CdsError::Unroutable`] naming the first pair that is
/// connected in `g` but unroutable via the backbone — which means
/// `backbone` is not a CDS.
pub fn stretch_stats(g: &Graph, backbone: &[usize]) -> Result<StretchStats, CdsError> {
    let n = g.num_nodes();
    let mut pairs = 0usize;
    let mut sum = 0.0;
    let mut max = 0.0f64;
    let mut sum_add = 0.0;
    for s in 0..n {
        let true_dist = traversal::bfs_distances(g, s);
        // One constrained BFS per source covers all targets.
        let routed = constrained_distances(g, backbone, s);
        for t in 0..n {
            if t == s || true_dist[t] == usize::MAX {
                continue;
            }
            let r = routed[t];
            if r == usize::MAX {
                return Err(CdsError::Unroutable { from: s, to: t });
            }
            pairs += 1;
            let ratio = r as f64 / true_dist[t] as f64;
            sum += ratio;
            max = max.max(ratio);
            sum_add += (r - true_dist[t]) as f64;
        }
    }
    Ok(StretchStats {
        pairs,
        mean: if pairs == 0 { 1.0 } else { sum / pairs as f64 },
        max: if pairs == 0 { 1.0 } else { max },
        mean_additive: if pairs == 0 {
            0.0
        } else {
            sum_add / pairs as f64
        },
    })
}

/// Distances from `s` to every node where intermediates are confined to
/// the backbone (`usize::MAX` where no such path exists); direct edges
/// from `s` count, and the final hop may leave the backbone.
fn constrained_distances(g: &Graph, backbone: &[usize], s: usize) -> Vec<usize> {
    let n = g.num_nodes();
    let mut relay = node_mask(n, backbone);
    relay[s] = true;
    let mut dist = vec![usize::MAX; n];
    dist[s] = 0;
    let mut queue = std::collections::VecDeque::from([s]);
    while let Some(v) = queue.pop_front() {
        for u in g.neighbors_iter(v) {
            if dist[u] == usize::MAX {
                dist[u] = dist[v] + 1;
                // Only backbone nodes (or the source) may relay further.
                if relay[u] {
                    queue.push_back(u);
                }
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, Solver};

    fn greedy(g: &Graph) -> Vec<usize> {
        let solution = Solver::new(Algorithm::GreedyConnect).solve(g).unwrap();
        solution.nodes().to_vec()
    }

    /// `backbone_route_length` before it read `constrained_distances`:
    /// a breadth-first search of its own over the backbone and both
    /// endpoints, stopping at `t`.
    fn early_exit_route(g: &Graph, backbone: &[usize], s: usize, t: usize) -> Option<usize> {
        let n = g.num_nodes();
        assert!(s < n && t < n, "endpoint out of range");
        if s == t {
            return Some(0);
        }
        if g.has_edge(s, t) {
            return Some(1);
        }
        let allowed = {
            let mut mask = node_mask(n, backbone);
            mask[s] = true;
            mask[t] = true;
            mask
        };
        // BFS from s over allowed nodes only.
        let mut dist = vec![usize::MAX; n];
        dist[s] = 0;
        let mut queue = std::collections::VecDeque::from([s]);
        while let Some(v) = queue.pop_front() {
            for u in g.neighbors_iter(v) {
                if allowed[u] && dist[u] == usize::MAX {
                    dist[u] = dist[v] + 1;
                    if u == t {
                        return Some(dist[u]);
                    }
                    queue.push_back(u);
                }
            }
        }
        None
    }

    #[test]
    fn route_length_matches_the_early_exit_search() {
        use mcds_rng::rngs::StdRng;
        use mcds_rng::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2002);
        let (mut routed, mut unroutable) = (0, 0);
        for case in 0..120 {
            let n = 2 + case % 30;
            let p = rng.gen_range(0.05..=0.4);
            let edges = (0..n)
                .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
                .filter(|_| rng.gen::<f64>() < p)
                .collect::<Vec<_>>();
            let g = Graph::from_edges(n, edges);
            // The greedy CDS of a connected graph, and subsets that need
            // not be one (empty, every node, random halves).
            let mut backbones = vec![Vec::new(), (0..n).collect()];
            if g.is_connected() {
                backbones.push(greedy(&g));
            }
            for _ in 0..3 {
                backbones.push((0..n).filter(|_| rng.gen::<bool>()).collect());
            }
            for backbone in &backbones {
                for s in 0..n {
                    for t in 0..n {
                        let want = early_exit_route(&g, backbone, s, t);
                        assert_eq!(
                            backbone_route_length(&g, backbone, s, t),
                            want,
                            "{g:?} via {backbone:?}, {s} -> {t}"
                        );
                        if want.is_some() {
                            routed += 1;
                        } else {
                            unroutable += 1;
                        }
                    }
                }
            }
        }
        assert!(
            routed > 1000 && unroutable > 1000,
            "{routed} / {unroutable}"
        );
    }

    #[test]
    fn route_length_on_path() {
        let g = Graph::path(6);
        let backbone: Vec<usize> = vec![1, 2, 3, 4];
        assert_eq!(backbone_route_length(&g, &backbone, 0, 5), Some(5));
        assert_eq!(backbone_route_length(&g, &backbone, 0, 0), Some(0));
        assert_eq!(backbone_route_length(&g, &backbone, 0, 1), Some(1));
        // Remove an interior backbone node: route broken.
        assert_eq!(backbone_route_length(&g, &[1, 2, 4], 0, 5), None);
    }

    #[test]
    fn cds_backbone_routes_every_pair() {
        let g = Graph::cycle(12);
        let stats = stretch_stats(&g, &greedy(&g)).unwrap();
        assert_eq!(stats.pairs, 12 * 11);
        assert!(stats.mean >= 1.0);
        assert!(stats.max >= stats.mean);
        assert!(stats.mean_additive >= 0.0);
    }

    #[test]
    fn full_backbone_has_stretch_one() {
        let g = Graph::cycle(9);
        let all: Vec<usize> = (0..9).collect();
        let stats = stretch_stats(&g, &all).unwrap();
        assert_eq!(stats.mean, 1.0);
        assert_eq!(stats.max, 1.0);
        assert_eq!(stats.mean_additive, 0.0);
    }

    #[test]
    fn non_cds_backbone_is_detected() {
        let g = Graph::path(7);
        // {1, 5} dominates... not everything; routing from 0 to 6 via {1,5}
        // can't bridge 2..4.
        let err = stretch_stats(&g, &[1, 5]).unwrap_err();
        assert!(matches!(err, CdsError::Unroutable { .. }));
        assert!(err.to_string().contains("unroutable"));
    }

    #[test]
    fn stretch_bounded_on_random_udg_backbones() {
        // CDS-restricted routing detours are known to be small on UDGs;
        // just assert the worst stretch stays modest on a cycle-rich graph.
        let g = Graph::from_edges(
            10,
            (0..10).map(|v| (v, (v + 1) % 10)).chain([(0, 5), (2, 7)]),
        );
        let stats = stretch_stats(&g, &greedy(&g)).unwrap();
        assert!(stats.max <= 4.0, "stretch {} too large", stats.max);
    }
}
