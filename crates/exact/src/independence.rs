//! Exact maximum independent set via branch & bound on 128-bit sets.

use mcds_graph::Graph;

/// Adjacency in 128-bit masks; the solver's working representation.
struct BitGraph {
    n: usize,
    adj: Vec<u128>,
}

impl BitGraph {
    fn new(g: &Graph) -> Self {
        let n = g.num_nodes();
        assert!(
            n <= 128,
            "exact independence solver supports at most 128 nodes, got {n}"
        );
        let mut adj = vec![0u128; n];
        for (u, v) in g.edges() {
            adj[u] |= 1 << v;
            adj[v] |= 1 << u;
        }
        BitGraph { n, adj }
    }

    fn full(&self) -> u128 {
        if self.n == 128 {
            u128::MAX
        } else {
            (1u128 << self.n) - 1
        }
    }
}

struct Search<'a> {
    bg: &'a BitGraph,
    best: u128,
    best_size: u32,
    steps: u64,
    budget: u64,
}

impl Search<'_> {
    /// Greedy clique-cover bound: partition the candidate set into cliques
    /// greedily; an independent set takes at most one node per clique.
    fn clique_cover_bound(&self, mut cand: u128) -> u32 {
        let mut cliques = 0u32;
        while cand != 0 {
            let v = cand.trailing_zeros() as usize;
            // Grow a clique from v within cand.
            let mut clique_common = self.bg.adj[v];
            let mut rest = cand & !(1 << v);
            cand &= !(1 << v);
            let mut member_mask = 1u128 << v;
            while rest & clique_common != 0 {
                let u = (rest & clique_common).trailing_zeros() as usize;
                member_mask |= 1 << u;
                clique_common &= self.bg.adj[u];
                rest &= !(1 << u);
                cand &= !(1 << u);
            }
            let _ = member_mask;
            cliques += 1;
        }
        cliques
    }

    /// Returns `false` when the budget ran out.
    fn run(&mut self, current: u128, current_size: u32, cand: u128) -> bool {
        self.steps += 1;
        if self.steps > self.budget {
            return false;
        }
        if cand == 0 {
            if current_size > self.best_size {
                self.best_size = current_size;
                self.best = current;
            }
            return true;
        }
        if current_size + self.clique_cover_bound(cand) <= self.best_size {
            return true; // cannot beat the incumbent
        }
        // Pivot: candidate of maximum degree within cand (removing it
        // constrains the most).
        let mut pivot = usize::MAX;
        let mut pivot_deg = -1i32;
        let mut it = cand;
        while it != 0 {
            let v = it.trailing_zeros() as usize;
            it &= it - 1;
            let d = (self.bg.adj[v] & cand).count_ones() as i32;
            if d > pivot_deg {
                pivot_deg = d;
                pivot = v;
            }
        }
        let v = pivot;
        // Branch 1: include v.
        if !self.run(
            current | (1 << v),
            current_size + 1,
            cand & !(self.bg.adj[v] | (1 << v)),
        ) {
            return false;
        }
        // Branch 2: exclude v.
        self.run(current, current_size, cand & !(1 << v))
    }
}

/// Computes a maximum independent set of `g` exactly.
///
/// # Panics
///
/// Panics if `g` has more than 128 nodes (the solver's working word).
///
/// ```
/// use mcds_graph::Graph;
/// use mcds_exact::max_independent_set;
/// assert_eq!(max_independent_set(&Graph::cycle(6)).len(), 3);
/// ```
pub fn max_independent_set(g: &Graph) -> Vec<usize> {
    try_max_independent_set(g, u64::MAX).expect("unbounded budget cannot be exhausted")
}

/// The independence number `α(G)`.
///
/// # Panics
///
/// Panics if `g` has more than 128 nodes.
pub fn independence_number(g: &Graph) -> usize {
    max_independent_set(g).len()
}

/// Budgeted variant of [`max_independent_set`]: abandons the search after
/// `max_steps` B&B nodes and returns `None` (no partial answer is
/// reported, so a `Some` is always exact).
///
/// # Panics
///
/// Panics if `g` has more than 128 nodes.
pub fn try_max_independent_set(g: &Graph, max_steps: u64) -> Option<Vec<usize>> {
    let bg = BitGraph::new(g);
    if bg.n == 0 {
        return Some(Vec::new());
    }
    let mut search = Search {
        bg: &bg,
        best: 0,
        best_size: 0,
        steps: 0,
        budget: max_steps,
    };
    let full = bg.full();
    if !search.run(0, 0, full) {
        return None;
    }
    let best = search.best;
    Some((0..bg.n).filter(|&v| best & (1 << v) != 0).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_graph::properties;

    #[test]
    fn known_independence_numbers() {
        assert_eq!(independence_number(&Graph::empty(0)), 0);
        assert_eq!(independence_number(&Graph::empty(7)), 7);
        assert_eq!(independence_number(&Graph::complete(8)), 1);
        assert_eq!(independence_number(&Graph::path(7)), 4);
        assert_eq!(independence_number(&Graph::cycle(7)), 3);
        assert_eq!(independence_number(&Graph::cycle(8)), 4);
        assert_eq!(independence_number(&Graph::star(9)), 8);
        // At the 128-node cap the candidate word is full (`u128::MAX`).
        let cycle = Graph::cycle(128);
        let mis = max_independent_set(&cycle);
        assert!(properties::is_independent_set(&cycle, &mis));
        assert_eq!(mis.len(), 64);
    }

    #[test]
    fn result_is_independent_and_maximum() {
        let g = Graph::from_edges(
            9,
            [
                (0, 1),
                (1, 2),
                (2, 0),
                (3, 4),
                (4, 5),
                (5, 3),
                (6, 7),
                (7, 8),
                (8, 6),
                (0, 3),
                (3, 6),
            ],
        );
        let mis = max_independent_set(&g);
        assert!(properties::is_independent_set(&g, &mis));
        assert_eq!(mis.len(), 3); // one per triangle
    }

    #[test]
    fn budget_exhaustion_returns_none() {
        // A Kneser-ish hard-ish instance with a budget of 1 step.
        let g = Graph::cycle(30);
        assert!(try_max_independent_set(&g, 1).is_none());
        assert!(try_max_independent_set(&g, u64::MAX).is_some());
    }

    #[test]
    fn agrees_with_brute_force_on_small_graphs() {
        // Deterministic pseudo-random graphs with 10 nodes.
        let mut s = 12345u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..20 {
            let n = 10;
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if next() % 100 < 30 {
                        edges.push((u, v));
                    }
                }
            }
            let g = Graph::from_edges(n, edges);
            let fast = independence_number(&g);
            let brute = crate::brute::max_independent_set_brute(&g).len();
            assert_eq!(fast, brute, "{g:?}");
        }
    }

    #[test]
    #[should_panic(expected = "128 nodes")]
    fn oversized_graph_panics() {
        let _ = independence_number(&Graph::empty(129));
    }
}
