//! The exact `(1, m)` search against the two searches it replaced, kept
//! here verbatim as they ran in production: the γ_c search (`CdsSearch`,
//! with the packing bound) and the `(1, 2)`-CDS search (`TwoDomSearch`,
//! with the gains bound).  `try_min_connected_dominating_set` and
//! `try_min_12cds` must return what their oracle returns at every budget
//! in [`BUDGETS`]: the same set, and `Err(())` at exactly the budgets
//! where the oracle runs out, so the one search takes the old searches'
//! steps.  The instances are random G(n, p) graphs, random unit-disk
//! graphs, named families and disconnected graphs, up to n = 22 at m = 1
//! and n = 14 at m = 2, n = 0, 1 and 2 included.  Anything short of
//! equality here is a bug, not a tolerance.

use mcds_exact::{
    is_m_dominating, try_min_12cds, try_min_connected_dominating_set, try_min_dominating_set,
};
use mcds_graph::{node_mask, properties, subsets, Graph};

/// The step budgets every instance is solved at.
const BUDGETS: [u64; 12] = [0, 1, 2, 3, 5, 10, 30, 100, 1_000, 10_000, 100_000, u64::MAX];

type Outcome = Result<Option<Vec<usize>>, ()>;

/// Solves every instance at every budget with both searches and counts
/// the budgets that ran out and the ones that finished.
fn assert_same_outcomes(
    instances: &[(String, Graph)],
    exact: fn(&Graph, u64) -> Outcome,
    oracle: fn(&Graph, u64) -> Outcome,
) -> (usize, usize) {
    let (mut exhausted, mut finished) = (0, 0);
    for (name, g) in instances {
        for budget in BUDGETS {
            let want = oracle(g, budget);
            assert_eq!(exact(g, budget), want, "{name} at budget {budget}");
            if want.is_err() {
                exhausted += 1;
            } else {
                finished += 1;
            }
        }
    }
    (exhausted, finished)
}

#[test]
fn connected_domination_matches_the_cds_search() {
    let instances = instances(22, 0x6a3c);
    assert!(instances.len() >= 300, "only {} instances", instances.len());
    let (exhausted, finished) = assert_same_outcomes(
        &instances,
        try_min_connected_dominating_set,
        oracle_try_min_connected_dominating_set,
    );
    assert!(
        exhausted > 0 && finished > 0,
        "{exhausted} Err, {finished} Ok"
    );
}

#[test]
fn one_two_cds_matches_the_two_domination_search() {
    let instances = instances(14, 0x12cd);
    assert!(instances.len() >= 300, "only {} instances", instances.len());
    let (exhausted, finished) =
        assert_same_outcomes(&instances, try_min_12cds, oracle_try_min_12cds);
    assert!(
        exhausted > 0 && finished > 0,
        "{exhausted} Err, {finished} Ok"
    );
}

/// A xorshift stream, enough to draw the instances without an RNG crate.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// A uniform draw from `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// G(n, p) with `p` in percent.
fn gnp(n: usize, percent: u64, rng: &mut XorShift) -> Graph {
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.next() % 100 < percent {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, edges)
}

/// The unit-disk graph of `n` uniform points in a `side × side` square:
/// an edge wherever two points lie within distance 1.
fn unit_disk(n: usize, side: f64, rng: &mut XorShift) -> Graph {
    let points: Vec<(f64, f64)> = (0..n)
        .map(|_| (side * rng.unit(), side * rng.unit()))
        .collect();
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            let (dx, dy) = (points[u].0 - points[v].0, points[u].1 - points[v].1);
            if dx * dx + dy * dy <= 1.0 {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, edges)
}

/// Two disjoint copies of `g`, side by side.
fn twice(g: &Graph) -> Graph {
    let n = g.num_nodes();
    let edges: Vec<(usize, usize)> = g.edges().collect();
    Graph::from_edges(
        2 * n,
        edges.iter().flat_map(|&(u, v)| [(u, v), (u + n, v + n)]),
    )
}

/// A `rows × cols` grid graph.
fn grid(rows: usize, cols: usize) -> Graph {
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                edges.push((v, v + 1));
            }
            if r + 1 < rows {
                edges.push((v, v + cols));
            }
        }
    }
    Graph::from_edges(rows * cols, edges)
}

/// Named families, disconnected graphs and random instances with at most
/// `max_n` nodes.  Paths and cycles stop at n = 10 and grids at 18 nodes:
/// the m = 1 search is exponential on them (C₁₆ alone takes about 20 s
/// in release).
fn instances(max_n: usize, seed: u64) -> Vec<(String, Graph)> {
    let mut out: Vec<(String, Graph)> = Vec::new();
    for n in 0..=max_n {
        out.push((format!("empty({n})"), Graph::empty(n)));
        out.push((format!("complete({n})"), Graph::complete(n)));
        if n <= 10 {
            out.push((format!("path({n})"), Graph::path(n)));
        }
        if (3..=10).contains(&n) {
            out.push((format!("cycle({n})"), Graph::cycle(n)));
        }
        if n >= 1 {
            out.push((format!("star({n})"), Graph::star(n)));
        }
    }
    for rows in 2..=4 {
        for cols in rows..=max_n.min(18) / rows {
            out.push((format!("grid({rows}x{cols})"), grid(rows, cols)));
        }
    }
    for n in 2..=max_n / 2 {
        out.push((format!("twice(path({n}))"), twice(&Graph::path(n))));
    }
    let mut rng = XorShift(seed);
    for i in 0..120 {
        let n = 3 + i % (max_n - 2);
        let percent = [15, 25, 35, 50][i % 4];
        out.push((
            format!("gnp({n}, {percent}%) #{i}"),
            gnp(n, percent, &mut rng),
        ));
    }
    for i in 0..120 {
        let n = 3 + i % (max_n - 2);
        let degree = [3.0, 4.5, 6.0][i % 3];
        let side = (n as f64 * std::f64::consts::PI / degree).sqrt();
        out.push((
            format!("udg({n}, side {side:.2}) #{i}"),
            unit_disk(n, side, &mut rng),
        ));
    }
    out
}

/// A lower bound on the number of additional dominators needed: greedily
/// packs uncovered vertices whose closed neighborhoods are pairwise
/// disjoint — each packed vertex needs its own dominator, so the packing
/// size is a valid bound (much stronger than `⌈uncovered/(Δ+1)⌉`).
///
/// Scanning low-degree vertices first packs more of them.
fn packing_lower_bound(g: &Graph, cover_count: &[u32], order: &[usize]) -> usize {
    let n = g.num_nodes();
    let mut claimed = vec![false; n];
    let mut bound = 0usize;
    for &v in order {
        if cover_count[v] != 0 || claimed[v] {
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

/// The γ_c search as it ran in production: iterative deepening over the
/// CDS size from `max(γ, diam − 1)`.
///
/// * `Ok(Some(set))` — exact optimum found,
/// * `Ok(None)` — graph is disconnected (no CDS exists),
/// * `Err(())` — budget exhausted before the answer was proven.
fn oracle_try_min_connected_dominating_set(
    g: &Graph,
    max_steps: u64,
) -> Result<Option<Vec<usize>>, ()> {
    let n = g.num_nodes();
    if n == 0 {
        return Ok(Some(Vec::new()));
    }
    if !g.is_connected() {
        return Ok(None);
    }
    if n == 1 {
        return Ok(Some(vec![0]));
    }
    // Any single node whose closed neighborhood is V is an optimum.
    if let Some(v) = (0..n).find(|&v| g.degree(v) == n - 1) {
        return Ok(Some(vec![v]));
    }

    let mut steps = max_steps;
    let gamma = match budgeted(&mut steps, |b| try_min_dominating_set(g, b)) {
        Some(ds) => ds.len(),
        None => return Err(()),
    };
    let diam_lb = mcds_graph::traversal::diameter(g)
        .map(|d| d.saturating_sub(1))
        .unwrap_or(0);
    let mut k = gamma.max(diam_lb).max(2);
    loop {
        if k >= n {
            // The whole vertex set of a connected graph is always a CDS.
            let all: Vec<usize> = (0..n).collect();
            return Ok(Some(all));
        }
        let mut search = CdsSearch {
            g,
            k,
            steps: 0,
            budget: steps,
            found: None,
            degree_order: degree_order(g),
        };
        let mut chosen = Vec::new();
        let mut cover = vec![0u32; n];
        let finished = search.run(&mut chosen, &mut cover, n);
        steps = steps.saturating_sub(search.steps);
        if !finished {
            return Err(());
        }
        if let Some(sol) = search.found {
            debug_assert!(properties::check_cds(g, &sol).is_ok());
            return Ok(Some(sol));
        }
        k += 1;
    }
}

fn budgeted<T>(steps: &mut u64, f: impl FnOnce(u64) -> Option<T>) -> Option<T> {
    // The inner solvers track their own step counts; we approximate the
    // shared budget by giving each call the full remainder.  Cheap and
    // safe: budgets are a coarse runaway guard, not an accounting tool.
    f(*steps)
}

struct CdsSearch<'a> {
    g: &'a Graph,
    k: usize,
    steps: u64,
    budget: u64,
    found: Option<Vec<usize>>,
    degree_order: Vec<usize>,
}

impl CdsSearch<'_> {
    /// Searches for a CDS of size exactly ≤ k.  Returns `false` on budget
    /// exhaustion.
    fn run(&mut self, chosen: &mut Vec<usize>, cover: &mut Vec<u32>, uncovered: usize) -> bool {
        if self.found.is_some() {
            return true;
        }
        self.steps += 1;
        if self.steps > self.budget {
            return false;
        }
        let n = self.g.num_nodes();
        if uncovered == 0 {
            // Dominating: check connectivity of the chosen set.
            let mask = node_mask(n, chosen);
            if subsets::is_connected_subset(self.g, &mask) && !chosen.is_empty() {
                let mut sol = chosen.clone();
                sol.sort_unstable();
                self.found = Some(sol);
            } else if chosen.len() < self.k {
                // Dominating but disconnected: try to add connectors
                // within the remaining budget.  Branch over nodes adjacent
                // to the component containing the first chosen node.
                return self.branch_connector(chosen, cover, uncovered);
            }
            return true;
        }
        let remaining = self.k - chosen.len();
        if remaining == 0 {
            return true;
        }
        // Coverage lower bound: disjoint-neighborhood packing.
        if packing_lower_bound(self.g, cover, &self.degree_order) > remaining {
            return true;
        }
        // Branch on the uncovered vertex with fewest options; candidates
        // must keep the chosen set extendable-connected: after the first
        // pick, only consider candidates within distance 2 of the chosen
        // set?  (Safe superset: all of N[u]; connectivity is enforced at
        // the leaves via branch_connector.)
        let u = (0..n)
            .filter(|&v| cover[v] == 0)
            .min_by_key(|&v| self.g.degree(v))
            .expect("uncovered > 0");
        let mut candidates: Vec<usize> = subsets::closed_neighborhood(self.g, u);
        candidates.sort_by_key(|&c| {
            std::cmp::Reverse(
                usize::from(cover[c] == 0)
                    + self.g.neighbors_iter(c).filter(|&w| cover[w] == 0).count(),
            )
        });
        for c in candidates {
            if chosen.contains(&c) {
                continue;
            }
            let newly = self.apply(c, cover);
            chosen.push(c);
            let ok = self.run(chosen, cover, uncovered - newly);
            chosen.pop();
            self.unapply(c, cover);
            if !ok {
                return false;
            }
            if self.found.is_some() {
                return true;
            }
        }
        true
    }

    /// The chosen set dominates but is disconnected: add a node adjacent
    /// to ≥ 1 chosen component (it keeps domination trivially) and recurse.
    fn branch_connector(
        &mut self,
        chosen: &mut Vec<usize>,
        cover: &mut Vec<u32>,
        uncovered: usize,
    ) -> bool {
        let n = self.g.num_nodes();
        let mask = node_mask(n, chosen);
        let q = subsets::count_components(self.g, &mask);
        let remaining = self.k - chosen.len();
        if q > 1 && remaining == 0 {
            return true;
        }
        // Candidates: nodes adjacent to at least 2 chosen components merge
        // fastest; fall back to any node adjacent to a component.
        let mut dsu = subsets::components_dsu(self.g, &mask);
        let mut cands: Vec<(usize, usize)> = (0..n)
            .filter(|&w| !mask[w])
            .map(|w| {
                let adj = subsets::adjacent_components(self.g, &mask, &mut dsu, w);
                (adj.len(), w)
            })
            .filter(|&(k, _)| k >= 1)
            .collect();
        cands.sort_by_key(|&(k, w)| (std::cmp::Reverse(k), w));
        // Sound prune: any added node merges at most (degree − 1) extra
        // components, so `remaining` adds reduce the count by at most
        // remaining · (Δ − 1).  (A *current*-adjacency bound would be
        // unsound: a zero-gain stepping stone can enable later merges when
        // components sit ≥ 3 hops apart.)
        let delta = self.g.max_degree();
        if q > 1 && (q - 1) > remaining * delta.saturating_sub(1) {
            return true;
        }
        for (_, c) in cands {
            let newly = self.apply(c, cover);
            debug_assert_eq!(newly, 0);
            chosen.push(c);
            let ok = self.run(chosen, cover, uncovered);
            chosen.pop();
            self.unapply(c, cover);
            if !ok {
                return false;
            }
            if self.found.is_some() {
                return true;
            }
        }
        true
    }

    fn apply(&self, c: usize, cover: &mut [u32]) -> usize {
        let mut newly = 0usize;
        if cover[c] == 0 {
            newly += 1;
        }
        cover[c] += 1;
        for w in self.g.neighbors_iter(c) {
            if cover[w] == 0 {
                newly += 1;
            }
            cover[w] += 1;
        }
        newly
    }

    fn unapply(&self, c: usize, cover: &mut [u32]) {
        cover[c] -= 1;
        for w in self.g.neighbors_iter(c) {
            cover[w] -= 1;
        }
    }
}

/// The (1, 2)-CDS search as it ran in production: iterative deepening
/// from the forced nodes and the coverage-deficit bound.
///
/// * `Ok(Some(set))` — exact optimum found,
/// * `Ok(None)` — graph is disconnected (no connected backbone exists),
/// * `Err(())` — budget exhausted before the answer was proven.
fn oracle_try_min_12cds(g: &Graph, max_steps: u64) -> Result<Option<Vec<usize>>, ()> {
    let n = g.num_nodes();
    if n == 0 {
        return Ok(Some(Vec::new()));
    }
    if !g.is_connected() {
        return Ok(None);
    }
    if n <= 2 {
        // A non-member needs two distinct dominators; with ≤ 2 nodes the
        // only (1,2)-CDS is the whole vertex set.
        return Ok(Some((0..n).collect()));
    }
    // Every degree-≤1 node is forced into S (it can never collect two
    // external dominators).  Pre-applying them shrinks the search tree —
    // on trees and stars most of the solution is decided before the
    // first branch — and their count seeds the iterative-deepening depth
    // alongside the coverage-deficit bound.
    let forced: Vec<usize> = (0..n).filter(|&v| g.degree(v) < 2).collect();
    let delta = g.max_degree();
    let deficit_lb = (2 * n).div_ceil(delta + 2);
    let mut k = forced.len().max(deficit_lb).max(2);
    let mut steps = max_steps;
    loop {
        if k >= n {
            // The full vertex set of a connected graph is a (1,2)-CDS:
            // there are no outside nodes left to cover.
            return Ok(Some((0..n).collect()));
        }
        let mut search = TwoDomSearch {
            g,
            k,
            steps: 0,
            budget: steps,
            found: None,
            chosen_mask: vec![false; n],
        };
        let mut chosen = Vec::new();
        let mut cover = vec![0u32; n];
        let mut unsat = n;
        for &v in &forced {
            unsat -= search.apply(v, &mut cover);
            chosen.push(v);
        }
        let finished = search.run(&mut chosen, &mut cover, unsat);
        steps = steps.saturating_sub(search.steps);
        if !finished {
            return Err(());
        }
        if let Some(sol) = search.found {
            debug_assert!(is_m_dominating(g, &sol, 2));
            debug_assert!(subsets::is_connected_subset(g, &node_mask(n, &sol)));
            return Ok(Some(sol));
        }
        k += 1;
    }
}

/// Depth-bounded search for a connected 2-fold dominating set of size
/// ≤ k, mirroring the plain CDS search in `crate::domination`: branch
/// on the coverage of an unsatisfied vertex, enforce connectivity at the
/// leaves by branching over component-adjacent connectors.
struct TwoDomSearch<'a> {
    g: &'a Graph,
    k: usize,
    steps: u64,
    budget: u64,
    found: Option<Vec<usize>>,
    chosen_mask: Vec<bool>,
}

impl TwoDomSearch<'_> {
    /// `unsat` counts nodes that are neither chosen nor 2-covered.
    /// Returns `false` on budget exhaustion.
    fn run(&mut self, chosen: &mut Vec<usize>, cover: &mut Vec<u32>, unsat: usize) -> bool {
        if self.found.is_some() {
            return true;
        }
        self.steps += 1;
        if self.steps > self.budget {
            return false;
        }
        let n = self.g.num_nodes();
        if unsat == 0 {
            let mask = node_mask(n, chosen);
            if !chosen.is_empty() && subsets::is_connected_subset(self.g, &mask) {
                let mut sol = chosen.clone();
                sol.sort_unstable();
                self.found = Some(sol);
            } else if chosen.len() < self.k {
                return self.branch_connector(chosen, cover, unsat);
            }
            return true;
        }
        let remaining = self.k - chosen.len();
        if remaining == 0 {
            return true;
        }
        // Gains bound: adding `c` can shrink the total coverage deficit
        // by at most gain(c) = its own outstanding deficit (which
        // vanishes when it joins) plus one per still-deficient unchosen
        // neighbor.  Gains computed *here* only shrink deeper in the
        // branch (cover counts only grow), so if even the `remaining`
        // largest gains cannot pay off the deficit, no completion of
        // this branch can — an admissible bound strictly stronger than
        // the uniform `remaining · (Δ + 2)` estimate it replaces.
        let mut deficit = 0usize;
        let mut gains: Vec<usize> = Vec::with_capacity(n);
        for v in 0..n {
            if self.chosen_mask[v] {
                continue;
            }
            let own = (2usize).saturating_sub(cover[v] as usize);
            deficit += own;
            gains.push(
                own + self
                    .g
                    .neighbors_iter(v)
                    .filter(|&w| !self.chosen_mask[w] && cover[w] < 2)
                    .count(),
            );
        }
        gains.sort_unstable_by(|a, b| b.cmp(a));
        if gains.iter().take(remaining).sum::<usize>() < deficit {
            return true;
        }
        // Branch on the unsatisfied vertex with the fewest candidate
        // dominators; its closed neighborhood is the candidate set.
        let u = (0..n)
            .filter(|&v| !self.chosen_mask[v] && cover[v] < 2)
            .min_by_key(|&v| self.g.degree(v))
            .expect("unsat > 0");
        let mut candidates: Vec<usize> = subsets::closed_neighborhood(self.g, u);
        candidates.retain(|&c| !self.chosen_mask[c]);
        candidates.sort_by_key(|&c| {
            std::cmp::Reverse(
                2 * usize::from(!self.chosen_mask[c] && cover[c] < 2)
                    + self
                        .g
                        .neighbors_iter(c)
                        .filter(|&w| !self.chosen_mask[w] && cover[w] < 2)
                        .count(),
            )
        });
        for c in candidates {
            let newly = self.apply(c, cover);
            chosen.push(c);
            let ok = self.run(chosen, cover, unsat - newly);
            chosen.pop();
            self.unapply(c, cover);
            if !ok {
                return false;
            }
            if self.found.is_some() {
                return true;
            }
        }
        true
    }

    /// The chosen set 2-dominates but is disconnected: add connectors
    /// (adding a node never *un*satisfies anything) and recurse.  Same
    /// sound `(q − 1) > remaining·(Δ − 1)` prune as the CDS search.
    fn branch_connector(
        &mut self,
        chosen: &mut Vec<usize>,
        cover: &mut Vec<u32>,
        unsat: usize,
    ) -> bool {
        let n = self.g.num_nodes();
        let mask = node_mask(n, chosen);
        let q = subsets::count_components(self.g, &mask);
        let remaining = self.k - chosen.len();
        if q > 1 && remaining == 0 {
            return true;
        }
        let delta = self.g.max_degree();
        if q > 1 && (q - 1) > remaining * delta.saturating_sub(1) {
            return true;
        }
        let mut dsu = subsets::components_dsu(self.g, &mask);
        let mut cands: Vec<(usize, usize)> = (0..n)
            .filter(|&w| !mask[w])
            .map(|w| {
                let adj = subsets::adjacent_components(self.g, &mask, &mut dsu, w);
                (adj.len(), w)
            })
            .filter(|&(k, _)| k >= 1)
            .collect();
        cands.sort_by_key(|&(k, w)| (std::cmp::Reverse(k), w));
        for (_, c) in cands {
            let newly = self.apply(c, cover);
            debug_assert_eq!(newly, 0);
            chosen.push(c);
            let ok = self.run(chosen, cover, unsat);
            chosen.pop();
            self.unapply(c, cover);
            if !ok {
                return false;
            }
            if self.found.is_some() {
                return true;
            }
        }
        true
    }

    /// Marks `c` chosen, bumps neighbor cover counts, and returns how
    /// many nodes just became satisfied.
    fn apply(&mut self, c: usize, cover: &mut [u32]) -> usize {
        let mut newly = 0usize;
        if cover[c] < 2 {
            newly += 1; // c satisfies itself by joining the set.
        }
        self.chosen_mask[c] = true;
        for w in self.g.neighbors_iter(c) {
            cover[w] += 1;
            if !self.chosen_mask[w] && cover[w] == 2 {
                newly += 1;
            }
        }
        newly
    }

    fn unapply(&mut self, c: usize, cover: &mut [u32]) {
        self.chosen_mask[c] = false;
        for w in self.g.neighbors_iter(c) {
            cover[w] -= 1;
        }
    }
}
