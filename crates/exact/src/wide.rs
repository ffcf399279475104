//! Maximum independent set for graphs beyond 128 nodes: the same branch
//! & bound as [`crate::max_independent_set`], over arbitrary-width
//! [`BitSet`] rows.
//!
//! Slower per node than the `u128` fast path but unbounded in width; the
//! dispatching wrappers in [`crate`] pick the right engine.

use mcds_graph::bitgraph::BitSet;
use mcds_graph::Graph;

struct WideSearch<'a> {
    adj: &'a [BitSet],
    best: BitSet,
    best_size: u32,
    steps: u64,
    budget: u64,
}

impl WideSearch<'_> {
    /// Greedy clique-cover bound (same logic as the u128 engine).
    fn clique_cover_bound(&self, cand: &BitSet) -> u32 {
        let mut cand = cand.clone();
        let mut cliques = 0u32;
        while let Some(v) = cand.iter_ones().next() {
            let mut common = self.adj[v].clone();
            cand.remove(v);
            loop {
                let mut pick = None;
                // First candidate inside the running clique intersection.
                for u in cand.iter_ones() {
                    if common.contains(u) {
                        pick = Some(u);
                        break;
                    }
                }
                match pick {
                    Some(u) => {
                        common.intersect_with(&self.adj[u]);
                        cand.remove(u);
                    }
                    None => break,
                }
            }
            cliques += 1;
        }
        cliques
    }

    fn run(&mut self, current: &mut BitSet, current_size: u32, cand: &BitSet) -> bool {
        self.steps += 1;
        if self.steps > self.budget {
            return false;
        }
        if cand.iter_ones().next().is_none() {
            if current_size > self.best_size {
                self.best_size = current_size;
                self.best = current.clone();
            }
            return true;
        }
        if current_size + self.clique_cover_bound(cand) <= self.best_size {
            return true;
        }
        // Pivot: max degree within cand.
        let mut pivot = usize::MAX;
        let mut pivot_deg = -1i64;
        for v in cand.iter_ones() {
            let d = self.adj[v].and_count(cand) as i64;
            if d > pivot_deg {
                pivot_deg = d;
                pivot = v;
            }
        }
        let v = pivot;
        // Include v.
        let mut included = cand.clone();
        included.difference_with(&self.adj[v]);
        included.remove(v);
        current.insert(v);
        let ok = self.run(current, current_size + 1, &included);
        current.remove(v);
        if !ok {
            return false;
        }
        // Exclude v.
        let mut excluded = cand.clone();
        excluded.remove(v);
        self.run(current, current_size, &excluded)
    }
}

/// Budgeted exact maximum independent set for arbitrary node counts.
///
/// Returns `None` if the budget is exhausted (a `Some` is always exact).
pub(crate) fn try_max_independent_set_wide(g: &Graph, max_steps: u64) -> Option<Vec<usize>> {
    let n = g.num_nodes();
    if n == 0 {
        return Some(Vec::new());
    }
    let mut adj: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
    for (u, v) in g.edges() {
        adj[u].insert(v);
        adj[v].insert(u);
    }
    let mut search = WideSearch {
        adj: &adj,
        best: BitSet::new(n),
        best_size: 0,
        steps: 0,
        budget: max_steps,
    };
    let full = BitSet::from_nodes(n, &(0..n).collect::<Vec<_>>());
    let mut current = BitSet::new(n);
    if !search.run(&mut current, 0, &full) {
        return None;
    }
    Some(search.best.to_nodes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_graph::properties;

    #[test]
    fn wide_agrees_with_narrow_on_small_graphs() {
        let mut s = 31337u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..15 {
            let n = 18;
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if next() % 100 < 22 {
                        edges.push((u, v));
                    }
                }
            }
            let g = Graph::from_edges(n, edges);
            let wide = try_max_independent_set_wide(&g, u64::MAX).unwrap();
            let narrow = crate::max_independent_set(&g);
            assert!(properties::is_independent_set(&g, &wide));
            assert_eq!(wide, narrow, "{g:?}");
        }
        // At the dispatch threshold both engines take the same input.
        let g = Graph::cycle(128);
        let wide = try_max_independent_set_wide(&g, u64::MAX).unwrap();
        assert_eq!(wide.len(), 64);
        assert_eq!(wide, crate::max_independent_set(&g));
        assert_eq!(crate::try_max_independent_set_any(&g, u64::MAX), Some(wide));
    }

    #[test]
    fn wide_handles_more_than_128_nodes() {
        // A 150-cycle: α = 75.
        let g = Graph::cycle(150);
        let mis = try_max_independent_set_wide(&g, u64::MAX).unwrap();
        assert_eq!(mis.len(), 75);
        assert!(properties::is_independent_set(&g, &mis));
        // One node past the threshold, the dispatcher takes this engine.
        let g = Graph::cycle(129);
        let mis = crate::try_max_independent_set_any(&g, u64::MAX).unwrap();
        assert_eq!(mis.len(), 64);
        assert!(properties::is_independent_set(&g, &mis));
        assert_eq!(Some(mis), try_max_independent_set_wide(&g, u64::MAX));
    }

    #[test]
    fn wide_respects_budget() {
        let g = Graph::cycle(200);
        assert!(try_max_independent_set_wide(&g, 2).is_none());
    }
}
