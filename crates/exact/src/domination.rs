//! Exact minimum dominating set and minimum connected dominating set.

use mcds_graph::{node_mask, subsets, Graph};

/// A lower bound on the number of additional dominators needed: greedily
/// packs uncovered vertices whose closed neighborhoods are pairwise
/// disjoint — each packed vertex needs its own dominator, so the packing
/// size is a valid bound (much stronger than `⌈uncovered/(Δ+1)⌉`).
///
/// Scanning low-degree vertices first packs more of them.
fn packing_lower_bound(g: &Graph, order: &[usize], uncovered: impl Fn(usize) -> bool) -> usize {
    let n = g.num_nodes();
    let mut claimed = vec![false; n];
    let mut bound = 0usize;
    for &v in order {
        if !uncovered(v) || claimed[v] {
            continue;
        }
        if g.neighbors_iter(v).any(|u| claimed[u]) {
            continue;
        }
        bound += 1;
        claimed[v] = true;
        for u in g.neighbors_iter(v) {
            claimed[u] = true;
        }
    }
    bound
}

/// Vertices sorted by ascending degree — the scan order that maximizes
/// the greedy packing bound.  Computed once per solve.
fn degree_order(g: &Graph) -> Vec<usize> {
    let mut order: Vec<usize> = (0..g.num_nodes()).collect();
    order.sort_by_key(|&v| (g.degree(v), v));
    order
}

/// Computes a minimum dominating set exactly (branch & bound).
///
/// Branches on the closed neighborhood of an uncovered vertex with the
/// fewest coverage options, pruning with the disjoint-closed-neighborhood
/// packing bound — a standard, effective combination for small instances
/// (tens of nodes).
pub fn min_dominating_set(g: &Graph) -> Vec<usize> {
    try_min_dominating_set(g, u64::MAX).expect("unbounded budget cannot be exhausted")
}

/// The domination number `γ(G)`.
pub fn domination_number(g: &Graph) -> usize {
    min_dominating_set(g).len()
}

/// Budgeted variant of [`min_dominating_set`]; returns `None` if the
/// search exceeds `max_steps` B&B nodes (a `Some` is always exact).
pub fn try_min_dominating_set(g: &Graph, max_steps: u64) -> Option<Vec<usize>> {
    let n = g.num_nodes();
    if n == 0 {
        return Some(Vec::new());
    }
    // Greedy upper bound to seed the incumbent.
    let greedy = greedy_dominating_set(g);
    let mut search = DsSearch {
        g,
        best: greedy.clone(),
        steps: 0,
        budget: max_steps,
        degree_order: degree_order(g),
    };
    let mut chosen = Vec::new();
    let mut cover_count = vec![0u32; n];
    if !search.run(&mut chosen, &mut cover_count, n) {
        return None;
    }
    Some(search.best)
}

struct DsSearch<'a> {
    g: &'a Graph,
    best: Vec<usize>,
    steps: u64,
    budget: u64,
    degree_order: Vec<usize>,
}

impl DsSearch<'_> {
    /// `uncovered` counts vertices with `cover_count == 0`.
    fn run(
        &mut self,
        chosen: &mut Vec<usize>,
        cover_count: &mut Vec<u32>,
        uncovered: usize,
    ) -> bool {
        self.steps += 1;
        if self.steps > self.budget {
            return false;
        }
        if uncovered == 0 {
            if chosen.len() < self.best.len() {
                self.best = chosen.clone();
            }
            return true;
        }
        // Lower bound: disjoint-closed-neighborhood packing among the
        // uncovered vertices.
        let lb = packing_lower_bound(self.g, &self.degree_order, |v| cover_count[v] == 0);
        if chosen.len() + lb >= self.best.len() {
            return true;
        }
        // Pick the uncovered vertex with the fewest candidate dominators.
        let u = (0..self.g.num_nodes())
            .filter(|&v| cover_count[v] == 0)
            .min_by_key(|&v| self.g.degree(v))
            .expect("uncovered > 0");
        // Candidates: N[u], ordered by how much new coverage they bring.
        let mut candidates: Vec<usize> = subsets::closed_neighborhood(self.g, u);
        candidates.sort_by_key(|&c| {
            std::cmp::Reverse(
                usize::from(cover_count[c] == 0)
                    + self
                        .g
                        .neighbors_iter(c)
                        .filter(|&w| cover_count[w] == 0)
                        .count(),
            )
        });
        for c in candidates {
            let mut newly = 0usize;
            chosen.push(c);
            if cover_count[c] == 0 {
                newly += 1;
            }
            cover_count[c] += 1;
            for w in self.g.neighbors_iter(c) {
                if cover_count[w] == 0 {
                    newly += 1;
                }
                cover_count[w] += 1;
            }
            let ok = self.run(chosen, cover_count, uncovered - newly);
            chosen.pop();
            cover_count[c] -= 1;
            for w in self.g.neighbors_iter(c) {
                cover_count[w] -= 1;
            }
            if !ok {
                return false;
            }
        }
        true
    }
}

fn greedy_dominating_set(g: &Graph) -> Vec<usize> {
    let n = g.num_nodes();
    let mut covered = vec![false; n];
    let mut remaining = n;
    let mut out = Vec::new();
    while remaining > 0 {
        let v = (0..n)
            .max_by_key(|&v| {
                usize::from(!covered[v]) + g.neighbors_iter(v).filter(|&u| !covered[u]).count()
            })
            .expect("nonempty");
        out.push(v);
        if !covered[v] {
            covered[v] = true;
            remaining -= 1;
        }
        for u in g.neighbors_iter(v) {
            if !covered[u] {
                covered[u] = true;
                remaining -= 1;
            }
        }
    }
    out
}

/// Computes a minimum *connected* dominating set exactly, or `None` if the
/// graph is disconnected (no CDS exists) .
///
/// Strategy: iterative deepening on the CDS size `k`, starting from
/// `max(γ(G), diam(G) − 1)`, with a membership search that branches on
/// coverage of an uncovered vertex and prunes by remaining budget.
///
/// Singleton graphs return `Some([v])`; the empty graph returns
/// `Some([])` (vacuously a CDS).
pub fn min_connected_dominating_set(g: &Graph) -> Option<Vec<usize>> {
    try_min_connected_dominating_set(g, u64::MAX).expect("unbounded budget cannot be exhausted")
}

/// The connected domination number `γ_c(G)`, or `None` for disconnected
/// graphs.
pub fn connected_domination_number(g: &Graph) -> Option<usize> {
    min_connected_dominating_set(g).map(|s| s.len())
}

/// Budgeted variant of [`min_connected_dominating_set`].
///
/// * `Ok(Some(set))` — exact optimum found,
/// * `Ok(None)` — graph is disconnected (no CDS exists),
/// * `Err(())` — budget exhausted before the answer was proven.
#[allow(clippy::result_unit_err)]
pub fn try_min_connected_dominating_set(
    g: &Graph,
    max_steps: u64,
) -> Result<Option<Vec<usize>>, ()> {
    try_min_connected_m_dominating(g, 1, max_steps)
}

/// A minimum connected set `S` in which every node outside `S` has at
/// least `m ≥ 1` neighbours in `S`: a CDS at m = 1, a (1, 2)-CDS at
/// m = 2.  `Ok(None)` on a disconnected graph, `Err(())` once the search
/// has taken more than `max_steps` steps.
///
/// Iterative deepening on `|S| = k`, from `max(γ, diam − 1)` at m = 1
/// and from the larger of the forced nodes (degree below m: they can
/// never collect m outside dominators, so they start in S) and the
/// coverage bound `⌈m·n/(Δ + m)⌉` above.  The depths share the budget;
/// the γ solve at m = 1 gets the whole budget and is not charged for it.
pub(crate) fn try_min_connected_m_dominating(
    g: &Graph,
    m: usize,
    max_steps: u64,
) -> Result<Option<Vec<usize>>, ()> {
    let n = g.num_nodes();
    if n == 0 {
        return Ok(Some(Vec::new()));
    }
    if !g.is_connected() {
        return Ok(None);
    }
    let forced: Vec<usize> = (0..n).filter(|&v| g.degree(v) < m).collect();
    let first_k = if m == 1 {
        // Any single node whose closed neighborhood is V is an optimum.
        if let Some(v) = (0..n).find(|&v| g.degree(v) == n - 1) {
            return Ok(Some(vec![v]));
        }
        let gamma = try_min_dominating_set(g, max_steps).ok_or(())?.len();
        let diam_lb = mcds_graph::traversal::diameter(g).map_or(0, |d| d.saturating_sub(1));
        gamma.max(diam_lb)
    } else {
        forced.len().max((m * n).div_ceil(g.max_degree() + m))
    };
    let mut search = ConnectedSearch {
        g,
        m,
        k: 0,
        steps: 0,
        budget: max_steps,
        found: None,
        chosen: Vec::new(),
        in_set: vec![false; n],
        cover: vec![0; n],
        unsatisfied: n,
        degree_order: degree_order(g),
    };
    for &v in &forced {
        search.add(v);
    }
    for k in first_k.max(2)..n {
        search.k = k;
        if !search.run() {
            return Err(());
        }
        if let Some(sol) = search.found {
            debug_assert!(crate::is_m_dominating(g, &sol, m));
            debug_assert!(subsets::is_connected_subset(g, &node_mask(n, &sol)));
            return Ok(Some(sol));
        }
    }
    // The whole vertex set of a connected graph qualifies: no node is
    // left outside to cover.
    Ok(Some((0..n).collect()))
}

/// Depth-bounded search for a connected set of at most `k` nodes that
/// every outside node sees at least `m` times: branch on the closed
/// neighbourhood of an unsatisfied node, and once every node is
/// satisfied, on connectors to the chosen components.
struct ConnectedSearch<'a> {
    g: &'a Graph,
    m: usize,
    k: usize,
    /// Steps taken over every depth so far.
    steps: u64,
    budget: u64,
    found: Option<Vec<usize>>,
    chosen: Vec<usize>,
    in_set: Vec<bool>,
    /// Each node's number of chosen neighbours.
    cover: Vec<u32>,
    /// Nodes outside the set with fewer than `m` chosen neighbours.
    unsatisfied: usize,
    degree_order: Vec<usize>,
}

impl ConnectedSearch<'_> {
    fn is_unsatisfied(&self, v: usize) -> bool {
        !self.in_set[v] && (self.cover[v] as usize) < self.m
    }

    fn unsatisfied_neighbours(&self, v: usize) -> usize {
        self.g
            .neighbors_iter(v)
            .filter(|&w| self.is_unsatisfied(w))
            .count()
    }

    /// Searches for a set of at most `k` nodes.  Returns `false` on budget
    /// exhaustion.
    fn run(&mut self) -> bool {
        self.steps += 1;
        if self.steps > self.budget {
            return false;
        }
        let g = self.g;
        if self.unsatisfied == 0 {
            if !self.chosen.is_empty() && subsets::is_connected_subset(g, &self.in_set) {
                let mut sol = self.chosen.clone();
                sol.sort_unstable();
                self.found = Some(sol);
                return true;
            }
            return self.chosen.len() >= self.k || self.branch_connector();
        }
        let remaining = self.k - self.chosen.len();
        if remaining == 0 || self.bound_exceeds(remaining) {
            return true;
        }
        // Branch on the unsatisfied node with the fewest candidate
        // dominators; its closed neighbourhood is the candidate set.
        let u = (0..g.num_nodes())
            .filter(|&v| self.is_unsatisfied(v))
            .min_by_key(|&v| g.degree(v))
            .expect("unsatisfied > 0");
        let mut candidates = subsets::closed_neighborhood(g, u);
        candidates.retain(|&c| !self.in_set[c]);
        candidates.sort_by_key(|&c| {
            std::cmp::Reverse(
                self.m * usize::from(self.is_unsatisfied(c)) + self.unsatisfied_neighbours(c),
            )
        });
        self.branch(candidates)
    }

    /// Whether no `remaining` more nodes can satisfy every node.  At
    /// m = 1 this is the packing bound.  Above it is the gains bound:
    /// adding `c` shrinks the total coverage deficit by at most its gain,
    /// its own outstanding deficit (which vanishes when it joins) plus
    /// one per still-deficient unchosen neighbour.  Gains computed here
    /// only shrink deeper in the branch (cover counts only grow), so if
    /// even the `remaining` largest gains cannot pay off the deficit, no
    /// completion of this branch can.
    fn bound_exceeds(&self, remaining: usize) -> bool {
        if self.m == 1 {
            return packing_lower_bound(self.g, &self.degree_order, |v| self.is_unsatisfied(v))
                > remaining;
        }
        let mut deficit = 0usize;
        let mut gains: Vec<usize> = Vec::new();
        for v in (0..self.g.num_nodes()).filter(|&v| !self.in_set[v]) {
            let own = self.m.saturating_sub(self.cover[v] as usize);
            deficit += own;
            gains.push(own + self.unsatisfied_neighbours(v));
        }
        gains.sort_unstable_by(|a, b| b.cmp(a));
        gains.iter().take(remaining).sum::<usize>() < deficit
    }

    /// Every node is satisfied but the set is disconnected: add a node
    /// next to a chosen component (adding never unsatisfies a node), those
    /// next to the most components first.
    fn branch_connector(&mut self) -> bool {
        let g = self.g;
        let q = subsets::count_components(g, &self.in_set);
        // Sound prune: any added node merges at most (degree − 1) extra
        // components, so `remaining` adds reduce the count by at most
        // remaining · (Δ − 1).  (A *current*-adjacency bound would be
        // unsound: a zero-gain stepping stone can enable later merges when
        // components sit ≥ 3 hops apart.)
        let remaining = self.k - self.chosen.len();
        if q - 1 > remaining * g.max_degree().saturating_sub(1) {
            return true;
        }
        let mut dsu = subsets::components_dsu(g, &self.in_set);
        let mut cands: Vec<(usize, usize)> = (0..g.num_nodes())
            .filter(|&w| !self.in_set[w])
            .map(|w| {
                let adj = subsets::adjacent_components(g, &self.in_set, &mut dsu, w);
                (adj.len(), w)
            })
            .filter(|&(k, _)| k >= 1)
            .collect();
        cands.sort_by_key(|&(k, w)| (std::cmp::Reverse(k), w));
        self.branch(cands.into_iter().map(|(_, w)| w).collect())
    }

    /// Tries each candidate in turn, stopping at the first set found.
    fn branch(&mut self, candidates: Vec<usize>) -> bool {
        for c in candidates {
            self.add(c);
            let finished = self.run();
            self.remove(c);
            if !finished {
                return false;
            }
            if self.found.is_some() {
                break;
            }
        }
        true
    }

    /// Puts the unchosen `c` in the set, counting it as a chosen
    /// neighbour of each of its neighbours.
    fn add(&mut self, c: usize) {
        if self.is_unsatisfied(c) {
            self.unsatisfied -= 1;
        }
        self.in_set[c] = true;
        self.chosen.push(c);
        for w in self.g.neighbors_iter(c) {
            self.cover[w] += 1;
            if !self.in_set[w] && self.cover[w] as usize == self.m {
                self.unsatisfied -= 1;
            }
        }
    }

    /// Undoes `add(c)`; `c` must be the last node added.
    fn remove(&mut self, c: usize) {
        self.in_set[c] = false;
        self.chosen.pop();
        if self.is_unsatisfied(c) {
            self.unsatisfied += 1;
        }
        for w in self.g.neighbors_iter(c) {
            if !self.in_set[w] && self.cover[w] as usize == self.m {
                self.unsatisfied += 1;
            }
            self.cover[w] -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_graph::properties;

    #[test]
    fn packing_bound_is_sound_and_useful() {
        // Soundness: the packing bound never exceeds γ.
        for g in [
            Graph::path(12),
            Graph::cycle(10),
            Graph::star(7),
            Graph::complete(5),
        ] {
            let order = degree_order(&g);
            let lb = packing_lower_bound(&g, &order, |_| true);
            let gamma = domination_number(&g);
            assert!(lb <= gamma, "{g:?}: lb {lb} > gamma {gamma}");
            assert!(lb >= 1 || g.num_nodes() == 0);
        }
        // Usefulness: on a long path the packing bound equals γ = ⌈n/3⌉
        // (pack every third vertex).
        let p15 = Graph::path(15);
        let order = degree_order(&p15);
        assert_eq!(packing_lower_bound(&p15, &order, |_| true), 5);
    }

    #[test]
    fn domination_numbers_of_named_families() {
        assert_eq!(domination_number(&Graph::empty(0)), 0);
        assert_eq!(domination_number(&Graph::empty(4)), 4);
        assert_eq!(domination_number(&Graph::complete(6)), 1);
        assert_eq!(domination_number(&Graph::star(9)), 1);
        // γ(P_n) = ⌈n/3⌉.
        for n in 1..16 {
            assert_eq!(domination_number(&Graph::path(n)), n.div_ceil(3), "P_{n}");
        }
        // γ(C_n) = ⌈n/3⌉.
        for n in 3..14 {
            assert_eq!(domination_number(&Graph::cycle(n)), n.div_ceil(3), "C_{n}");
        }
    }

    #[test]
    fn dominating_set_is_valid() {
        let g = Graph::from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]);
        let ds = min_dominating_set(&g);
        assert!(properties::is_dominating_set(&g, &ds));
    }

    #[test]
    fn connected_domination_numbers_of_named_families() {
        // γ_c(P_n) = n − 2 for n ≥ 3 (interior path), 1 for n ≤ 2... P_2: {0} dominates both.
        assert_eq!(connected_domination_number(&Graph::path(2)), Some(1));
        for n in 3..12 {
            assert_eq!(
                connected_domination_number(&Graph::path(n)),
                Some(n - 2),
                "P_{n}"
            );
        }
        // γ_c(C_n) = n − 2 for n ≥ 4; C_3 → 1.
        assert_eq!(connected_domination_number(&Graph::cycle(3)), Some(1));
        for n in 4..12 {
            assert_eq!(
                connected_domination_number(&Graph::cycle(n)),
                Some(n - 2),
                "C_{n}"
            );
        }
        assert_eq!(connected_domination_number(&Graph::star(8)), Some(1));
        assert_eq!(connected_domination_number(&Graph::complete(5)), Some(1));
        assert_eq!(connected_domination_number(&Graph::empty(1)), Some(1));
        assert_eq!(connected_domination_number(&Graph::empty(0)), Some(0));
    }

    #[test]
    fn disconnected_graph_has_no_cds() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        assert_eq!(min_connected_dominating_set(&g), None);
        assert_eq!(connected_domination_number(&g), None);
    }

    #[test]
    fn cds_solution_is_valid_and_optimal_vs_brute() {
        let mut s = 999u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut tested = 0;
        while tested < 10 {
            let n = 9;
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if next() % 100 < 35 {
                        edges.push((u, v));
                    }
                }
            }
            let g = Graph::from_edges(n, edges);
            if !g.is_connected() {
                continue;
            }
            tested += 1;
            let fast = min_connected_dominating_set(&g).unwrap();
            assert!(properties::check_cds(&g, &fast).is_ok(), "{g:?}");
            let brute = crate::brute::min_connected_dominating_set_brute(&g).unwrap();
            assert_eq!(fast.len(), brute.len(), "{g:?}");
        }
    }

    #[test]
    fn budget_exhaustion_reports_err() {
        let g = Graph::cycle(20);
        assert!(try_min_connected_dominating_set(&g, 3).is_err());
        // On C20 the root bound ⌈n/(Δ+1)⌉ = γ proves the greedy seed
        // optimal instantly, so even a 1-step budget succeeds — use a
        // graph with bound slack instead: a chord raises Δ to 3, making
        // ⌈30/4⌉ = 8 < γ(C30) = 10, so the search must actually branch.
        let mut edges: Vec<(usize, usize)> = (0..30).map(|v| (v, (v + 1) % 30)).collect();
        edges.push((0, 15));
        let slack = Graph::from_edges(30, edges);
        assert!(try_min_dominating_set(&slack, 1).is_none());
        assert!(try_min_dominating_set(&slack, u64::MAX).is_some());
    }

    #[test]
    fn dominating_set_brute_crosscheck() {
        let mut s = 4242u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..10 {
            let n = 9;
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if next() % 100 < 25 {
                        edges.push((u, v));
                    }
                }
            }
            let g = Graph::from_edges(n, edges);
            let fast = domination_number(&g);
            let brute = crate::brute::min_dominating_set_brute(&g).len();
            assert_eq!(fast, brute, "{g:?}");
        }
    }
}
