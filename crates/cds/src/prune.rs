//! Redundant-node pruning — a validity-preserving post-pass (an extension
//! beyond the paper, ablated in the E6 experiment).
//!
//! A CDS node is *redundant* if removing it leaves the set both dominating
//! and connected.  Pruning scans candidates in ascending `(degree, id)`
//! order — low-degree members (leaf-like connectors) are the likeliest
//! redundant ones — and removes greedily.  The result is a minimal — not
//! minimum — CDS contained in the input.
//!
//! Two kernels implement the same scan (see [`crate::kernel`]):
//!
//! * **scalar** — the original per-candidate re-check: rebuild the set
//!   minus `v` and re-run the full domination + connectivity scan,
//! * **bitset** — incremental: maintain `cover[u] = |N(u) ∩ S|` counts
//!   and a set of known cut vertices of `G[S]`, seeded by one masked
//!   Tarjan pass over a [`mcds_graph::bitgraph::BitSet`] and extended by
//!   exact local searches around each candidate (`CutVertices`), so a
//!   candidate is accepted or rejected in `O(deg v)` plus a search near
//!   `v`, and state is patched instead of rebuilt.
//!
//! Both accept exactly the same removals in the same order, so the
//! output is byte-identical (`tests/kernel_equiv.rs`, which also diffs
//! the bitset scan against a reference that reruns the masked Tarjan
//! pass after every accepted removal).

use mcds_graph::bitgraph::{self, ArticulationScratch, BitSet};
use mcds_graph::{node_mask, subsets, RandomAccessGraph};

use crate::kernel::{self, Kernel};
use crate::CdsError;

/// Greedily removes redundant nodes from a valid CDS.
///
/// Returns the pruned node set (sorted).  The output is *1-minimal*: no
/// single further removal keeps it a CDS.
///
/// # Errors
///
/// Returns the typed violation (from [`crate::check_cds`]) if `set` is
/// not a valid CDS of `g` to begin with.
pub fn prune_cds<G: RandomAccessGraph>(g: &G, set: &[usize]) -> Result<Vec<usize>, CdsError> {
    prune_cds_with(g, set, kernel::select(g.num_nodes()))
}

/// [`prune_cds`] with an explicit kernel choice (tests and benches; the
/// public entry point selects automatically).
///
/// # Errors
///
/// Same as [`prune_cds`].
pub fn prune_cds_with<G: RandomAccessGraph>(
    g: &G,
    set: &[usize],
    kernel: Kernel,
) -> Result<Vec<usize>, CdsError> {
    crate::check_cds(g, set)?;
    let current: Vec<usize> = mcds_graph::node_set(set.iter().copied());
    let order = scan_order(g, &current);
    match kernel {
        Kernel::Scalar => Ok(prune_scalar(g, current, &order)),
        Kernel::Bitset => {
            let (kept, stats) = prune_bitset(g, &current, &order);
            stats.flush();
            Ok(kept)
        }
    }
}

/// The candidate order both kernels scan: ascending `(degree, id)`.
fn scan_order<G: RandomAccessGraph>(g: &G, set: &[usize]) -> Vec<usize> {
    let mut order = set.to_vec();
    order.sort_by_key(|&v| (g.degree(v), v));
    order
}

/// Original per-candidate re-check: `O(n + m)` per attempted removal.
fn prune_scalar<G: RandomAccessGraph>(
    g: &G,
    mut current: Vec<usize>,
    order: &[usize],
) -> Vec<usize> {
    for &v in order {
        if current.len() <= 1 {
            break;
        }
        let candidate: Vec<usize> = current.iter().copied().filter(|&u| u != v).collect();
        if is_cds_fast(g, &candidate) {
            current = candidate;
        }
    }
    current
}

/// Incremental kernel: a removal of `v` from the valid CDS `S` keeps it
/// a CDS iff
///
/// 1. `cover[v] ≥ 1` — `v` itself stays dominated,
/// 2. every non-member neighbor `u` of `v` has `cover[u] ≥ 2` — `u`
///    keeps a dominator after losing `v`,
/// 3. `v` is not an articulation point of `G[S]` — connectivity holds
///    (member neighbors stay dominated by membership).
///
/// These are exactly the conditions the scalar full re-scan tests, so
/// scanning the same order yields the identical set.  `cover` is patched
/// in `O(deg v)` per removal; condition 3, the only non-local one, is
/// asked last and answered by [`CutVertices`].
fn prune_bitset<G: RandomAccessGraph>(
    g: &G,
    current: &[usize],
    order: &[usize],
) -> (Vec<usize>, PruneStats) {
    let n = g.num_nodes();
    let rows = kernel::maybe_rows(g);
    let rows = rows.as_ref();
    let mut in_set = BitSet::from_nodes(n, current);
    let mut size = current.len();
    let mut cover = vec![0u32; n];
    for &v in current {
        kernel::for_each_neighbor(g, rows, v, |u| cover[u] += 1);
    }
    let mut cuts = CutVertices::new(g, &in_set);
    for &v in order {
        if size <= 1 {
            break;
        }
        if cover[v] == 0 || cuts.known_cut(v) {
            continue;
        }
        let mut dominated = true;
        kernel::for_each_neighbor(g, rows, v, |u| {
            if dominated && !in_set.contains(u) && cover[u] < 2 {
                dominated = false;
            }
        });
        if !dominated || cuts.is_cut(&in_set, v) {
            continue;
        }
        in_set.remove(v);
        size -= 1;
        kernel::for_each_neighbor(g, rows, v, |u| cover[u] -= 1);
        cuts.removed(&in_set, v, cover[v]);
        debug_assert!(is_cds_fast(g, &in_set.to_nodes()));
    }
    (in_set.to_nodes(), cuts.stats)
}

/// Work counters of one bitset prune scan, flushed once per call to the
/// `prune.*` counters of [`mcds_obs`].
#[derive(Debug, Default)]
struct PruneStats {
    /// Masked Tarjan passes over all of `G[S]`, the up-front one included.
    global_passes: u64,
    /// Candidates a local certificate proved not to be cut vertices.
    certified_noncut: u64,
    /// Candidates a local search proved to be cut vertices.
    certified_cut: u64,
    /// Successor visits made by local searches (aborted ones included).
    search_visits: u64,
}

impl PruneStats {
    fn flush(&self) {
        mcds_obs::counter!("prune.global_passes", self.global_passes);
        mcds_obs::counter!("prune.certified_noncut", self.certified_noncut);
        mcds_obs::counter!("prune.certified_cut", self.certified_cut);
        mcds_obs::counter!("prune.search_visits", self.search_visits);
    }
}

/// The cut vertices of `G[S]`, kept valid while the prune scan shrinks
/// the connected `G[S]` one non-cut member at a time.
///
/// Every node in `known` is a cut vertex of the current `G[S]`, and
/// while `exact` holds (from a global pass until the next removal)
/// `known` is all of them.  Removing a non-cut `v` keeps every other cut
/// vertex a cut vertex, except possibly `v`'s only `S`-neighbour when
/// `v` is a leaf; that one is dropped (proofs in DESIGN.md §14).  A
/// member outside `known` between passes is decided by [`LocalSearch`],
/// and once the local work since the last pass outgrows one pass, the
/// pass is rerun instead, so the scan makes at most one pass more than
/// it accepts removals.
struct CutVertices<'g, G> {
    g: &'g G,
    known: BitSet,
    exact: bool,
    scratch: ArticulationScratch,
    /// Work of one global pass: `Σ_{u∈S}(deg u + 1)` successor visits.
    pass_cost: u64,
    /// Local-search successor visits since the last global pass.
    spent: u64,
    search: LocalSearch,
    stats: PruneStats,
}

impl<'g, G: RandomAccessGraph> CutVertices<'g, G> {
    /// Runs the up-front global pass over `G[in_set]`.
    fn new(g: &'g G, in_set: &BitSet) -> Self {
        let n = g.num_nodes();
        let mut cuts = CutVertices {
            g,
            known: BitSet::new(n),
            exact: false,
            scratch: ArticulationScratch::new(),
            pass_cost: in_set.iter_ones().map(|u| g.degree(u) as u64 + 1).sum(),
            spent: 0,
            search: LocalSearch::new(n),
            stats: PruneStats::default(),
        };
        cuts.global_pass(in_set);
        cuts
    }

    fn global_pass(&mut self, in_set: &BitSet) {
        bitgraph::masked_articulation_points(self.g, in_set, &mut self.scratch, &mut self.known);
        self.exact = true;
        self.spent = 0;
        self.stats.global_passes += 1;
    }

    /// Whether `v` is already known to be a cut vertex (no work).
    fn known_cut(&self, v: usize) -> bool {
        self.known.contains(v)
    }

    /// Whether member `v` is a cut vertex of `G[in_set]`.
    fn is_cut(&mut self, in_set: &BitSet, v: usize) -> bool {
        if self.exact || self.known_cut(v) {
            return self.known_cut(v);
        }
        let budget = self.pass_cost.saturating_sub(self.spent);
        let mut work = 0;
        let verdict = self.search.run(self.g, in_set, v, budget, &mut work);
        self.spent += work;
        self.stats.search_visits += work;
        match verdict {
            Some(true) => {
                self.stats.certified_cut += 1;
                self.known.insert(v);
                true
            }
            Some(false) => {
                self.stats.certified_noncut += 1;
                false
            }
            None => {
                self.global_pass(in_set);
                self.known_cut(v)
            }
        }
    }

    /// Records that the non-cut member `v`, which had `s_degree` member
    /// neighbours, has just been removed from `in_set`.
    fn removed(&mut self, in_set: &BitSet, v: usize, s_degree: u32) {
        self.exact = false;
        self.pass_cost -= self.g.degree(v) as u64 + 1;
        if s_degree == 1 {
            if let Some(parent) = self.g.successors(v).find(|&u| in_set.contains(u)) {
                self.known.remove(parent);
            }
        }
        debug_assert!(self.known_are_cut_vertices(in_set));
    }

    /// Debug check of the invariant: `known` ⊆ cut vertices of `G[S]`.
    fn known_are_cut_vertices(&self, in_set: &BitSet) -> bool {
        let mut all = BitSet::new(self.g.num_nodes());
        let mut scratch = ArticulationScratch::new();
        bitgraph::masked_articulation_points(self.g, in_set, &mut scratch, &mut all);
        self.known.and_count(&all) == self.known.count_ones()
    }
}

/// The exact local test for "is `v` a cut vertex of the connected
/// `G[S]`": breadth-first searches of `G[S − v]` from every
/// `S`-neighbour of `v`, interleaved through one FIFO queue and masked
/// by membership as the global pass is, with union-find over the
/// searches.  When all searches have merged, the `S`-neighbours share a
/// component and `v` is not a cut vertex.  When one class of merged
/// searches runs out of frontier first, its nodes form a whole component
/// of `G[S − v]` that misses some `S`-neighbour, so `v` is one.
///
/// Memory is two `u32` arrays of at most `n` entries (visit stamps and
/// the queue) plus two of at most `deg v` (classes and frontiers).
struct LocalSearch {
    /// `seen[u] − base` is the search that reached `u` in the test that
    /// started at `base`; stamps below it are stale.
    seen: Vec<u32>,
    /// The first stamp of the next test.
    next_base: u32,
    queue: Vec<u32>,
    /// Union-find parent of each search.
    class: Vec<u32>,
    /// Reached but unexpanded nodes of each class root.
    frontier: Vec<u32>,
}

impl LocalSearch {
    fn new(n: usize) -> Self {
        assert!(
            u32::try_from(n).is_ok(),
            "local cut search stores node ids as u32, got {n} nodes"
        );
        LocalSearch {
            seen: vec![0; n],
            next_base: 1,
            queue: Vec::new(),
            class: Vec::new(),
            frontier: Vec::new(),
        }
    }

    fn root(&mut self, mut s: usize) -> usize {
        while self.class[s] as usize != s {
            let up = self.class[self.class[s] as usize];
            self.class[s] = up;
            s = up as usize;
        }
        s
    }

    /// `Some(true)` if `v` is a cut vertex of the connected `G[in_set]`,
    /// `Some(false)` if not, `None` once `work` (successor visits, added
    /// to the caller's tally) would exceed `budget`.
    fn run<G: RandomAccessGraph>(
        &mut self,
        g: &G,
        in_set: &BitSet,
        v: usize,
        budget: u64,
        work: &mut u64,
    ) -> Option<bool> {
        let k = g.degree(v) as u32;
        if u32::MAX - self.next_base < k {
            self.seen.fill(0);
            self.next_base = 1;
        }
        let base = self.next_base;
        self.next_base += k;
        self.queue.clear();
        self.class.clear();
        self.frontier.clear();
        for u in g.successors(v) {
            *work += 1;
            if in_set.contains(u) {
                let s = self.class.len() as u32;
                self.seen[u] = base + s;
                self.queue.push(u as u32);
                self.class.push(s);
                self.frontier.push(1);
            }
        }
        *work += 1;
        let mut classes = self.class.len();
        if classes < 2 {
            // A leaf of a connected graph never disconnects it.
            return Some(false);
        }
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            let u = u as usize;
            let label = self.seen[u];
            let c = self.root((label - base) as usize);
            for w in g.successors(u) {
                *work += 1;
                if w == v || !in_set.contains(w) {
                    continue;
                }
                if self.seen[w] < base {
                    self.seen[w] = label;
                    self.queue.push(w as u32);
                    self.frontier[c] += 1;
                    continue;
                }
                let d = self.root((self.seen[w] - base) as usize);
                if d != c {
                    self.class[d] = c as u32;
                    self.frontier[c] += self.frontier[d];
                    classes -= 1;
                    if classes == 1 {
                        return Some(false);
                    }
                }
            }
            *work += 1;
            self.frontier[c] -= 1;
            if self.frontier[c] == 0 {
                return Some(true);
            }
            if *work > budget {
                return None;
            }
        }
        unreachable!("a class empties its frontier before the queue runs dry")
    }
}

/// CDS check without the diagnostic string machinery (hot path).
///
/// Early-exits on the first uncovered vertex; the number of scan steps
/// taken is flushed to the `prune.scan_steps` counter so the
/// short-circuit is observable.
pub(crate) fn is_cds_fast<G: RandomAccessGraph>(g: &G, set: &[usize]) -> bool {
    let (ok, steps) = is_cds_fast_counted(g, set);
    mcds_obs::counter!("prune.scan_steps", steps);
    ok
}

/// [`is_cds_fast`] returning the number of domination-scan steps it
/// performed before deciding (for the short-circuit regression test).
///
/// Scalar semantics: one step per vertex inspected in id order, stopping
/// at the first uncovered vertex.  Above the kernel threshold the
/// domination side runs as a word-parallel coverage mask instead — OR
/// the closed neighborhood of every member into a
/// [`mcds_graph::bitgraph::BitSet`] (one step per member row), then find
/// the first gap with [`BitSet::first_unset`].
pub(crate) fn is_cds_fast_counted<G: RandomAccessGraph>(g: &G, set: &[usize]) -> (bool, u64) {
    if set.is_empty() {
        return (g.num_nodes() == 0, 0);
    }
    match kernel::select(g.num_nodes()) {
        Kernel::Scalar => is_cds_fast_scalar(g, set),
        Kernel::Bitset => is_cds_fast_bitset(g, set),
    }
}

fn is_cds_fast_scalar<G: RandomAccessGraph>(g: &G, set: &[usize]) -> (bool, u64) {
    let mask = node_mask(g.num_nodes(), set);
    let mut steps = 0u64;
    for v in 0..g.num_nodes() {
        steps += 1;
        if !mask[v] && !g.successors(v).any(|u| mask[u]) {
            return (false, steps);
        }
    }
    (subsets::is_connected_subset(g, &mask), steps)
}

fn is_cds_fast_bitset<G: RandomAccessGraph>(g: &G, set: &[usize]) -> (bool, u64) {
    let n = g.num_nodes();
    // Row-OR coverage mask: members cover themselves and their rows.
    let mut covered = BitSet::from_nodes(n, set);
    let mut steps = 0u64;
    for &v in set {
        steps += 1;
        for u in g.successors(v) {
            covered.insert(u);
        }
    }
    if covered.first_unset().is_some() {
        return (false, steps);
    }
    let mask = node_mask(n, set);
    (subsets::is_connected_subset(g, &mask), steps)
}

/// How many nodes pruning saved on `set` (convenience for experiments).
///
/// # Errors
///
/// Propagates the validity error from [`prune_cds`].
pub fn pruning_savings<G: RandomAccessGraph>(g: &G, set: &[usize]) -> Result<usize, CdsError> {
    let pruned = prune_cds(g, set)?;
    Ok(set.len() - pruned.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{greedy_cds, waf_cds};
    use mcds_graph::Graph;

    #[test]
    fn pruned_set_is_valid_and_minimal() {
        let g = Graph::cycle(12);
        let cds = waf_cds(&g).unwrap();
        let pruned = prune_cds(&g, cds.nodes()).unwrap();
        assert!(crate::check_cds(&g, &pruned).is_ok());
        assert!(pruned.len() <= cds.len());
        // 1-minimality: removing any single node breaks the CDS.
        for &v in &pruned {
            let smaller: Vec<usize> = pruned.iter().copied().filter(|&u| u != v).collect();
            assert!(
                !is_cds_fast(&g, &smaller) || smaller.is_empty() && g.num_nodes() == 0,
                "node {v} still redundant"
            );
        }
    }

    #[test]
    fn whole_vertex_set_prunes_substantially() {
        let g = Graph::path(10);
        let all: Vec<usize> = (0..10).collect();
        let pruned = prune_cds(&g, &all).unwrap();
        // Optimal CDS of P10 is the 8 interior nodes; pruning from V can
        // only drop the two endpoints.
        assert_eq!(pruned.len(), 8);
    }

    #[test]
    fn invalid_input_is_rejected() {
        let g = Graph::path(5);
        assert!(prune_cds(&g, &[0, 4]).is_err());
        assert!(pruning_savings(&g, &[]).is_err());
    }

    #[test]
    fn complete_graph_prunes_to_one() {
        let g = Graph::complete(8);
        let all: Vec<usize> = (0..8).collect();
        assert_eq!(prune_cds(&g, &all).unwrap().len(), 1);
    }

    #[test]
    fn savings_reported() {
        let g = Graph::complete(5);
        let all: Vec<usize> = (0..5).collect();
        assert_eq!(pruning_savings(&g, &all).unwrap(), 4);
    }

    #[test]
    fn algorithm_outputs_rarely_shrink_much() {
        // Pruning the paper's algorithms' outputs should stay valid; the
        // savings are usually zero or tiny (their outputs are lean).
        for g in [Graph::path(20), Graph::cycle(15)] {
            let cds = greedy_cds(&g).unwrap();
            let pruned = prune_cds(&g, cds.nodes()).unwrap();
            assert!(crate::check_cds(&g, &pruned).is_ok());
        }
    }

    /// The bitset scan of `set` with its per-call work counters.
    fn bitset_scan(g: &Graph, set: &[usize]) -> (Vec<usize>, PruneStats) {
        prune_bitset(g, set, &scan_order(g, set))
    }

    /// Seeded giant-component UDGs, around average degree 10.
    fn udg_instances() -> Vec<Graph> {
        use mcds_rng::{rngs::StdRng, SeedableRng};
        (0..12u64)
            .map(|seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let n = 60 + 20 * seed as usize;
                let side = (n as f64 * std::f64::consts::PI / 10.0).sqrt();
                mcds_udg::gen::giant_component_instance(&mut rng, n, side)
                    .graph()
                    .clone()
            })
            .collect()
    }

    #[test]
    fn local_search_agrees_with_tarjan_on_every_member() {
        let mut graphs = udg_instances();
        graphs.extend([
            Graph::path(9),
            Graph::cycle(12),
            Graph::complete(6),
            // Two triangles sharing the cut vertex 2, plus a pendant 5.
            Graph::from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)]),
        ]);
        for g in &graphs {
            let n = g.num_nodes();
            let greedy = greedy_cds(g).unwrap().nodes().to_vec();
            for set in [(0..n).collect::<Vec<_>>(), greedy] {
                let in_set = BitSet::from_nodes(n, &set);
                let mut cut = BitSet::new(n);
                bitgraph::masked_articulation_points(
                    g,
                    &in_set,
                    &mut ArticulationScratch::new(),
                    &mut cut,
                );
                let mut search = LocalSearch::new(n);
                for &v in &set {
                    let verdict = search.run(g, &in_set, v, u64::MAX, &mut 0);
                    assert_eq!(verdict, Some(cut.contains(v)), "n {n}, v {v}");
                }
            }
        }
    }

    #[test]
    fn local_search_gives_up_past_its_budget() {
        // Node 0 of C12 is not a cut vertex, but its two searches only
        // meet at the far side, about 30 successor visits away.
        let g = Graph::cycle(12);
        let in_set = BitSet::from_nodes(12, &(0..12).collect::<Vec<_>>());
        let mut search = LocalSearch::new(12);
        let mut work = 0;
        assert_eq!(search.run(&g, &in_set, 0, 10, &mut work), None);
        assert!(work > 10);
        assert_eq!(search.run(&g, &in_set, 0, u64::MAX, &mut 0), Some(false));
    }

    #[test]
    fn cycle_forces_cut_certificates_then_a_refresh() {
        // After C64 loses nodes 0 and 1, every later candidate is a new cut
        // vertex of the remaining path, certified by exhausting its short
        // side; that work outgrows one pass and triggers the second.
        let g = Graph::cycle(64);
        let all: Vec<usize> = (0..64).collect();
        let (kept, stats) = bitset_scan(&g, &all);
        assert_eq!(kept, prune_scalar(&g, all.clone(), &scan_order(&g, &all)));
        assert_eq!(stats.global_passes, 2);
        assert!(stats.certified_cut > 0, "{stats:?}");
        // One pass over the 62 members left visits 3 successors each.
        assert!(stats.search_visits > 3 * 62, "{stats:?}");
    }

    #[test]
    fn clique_members_are_certified_noncut_locally() {
        // K8 from V: the first removal is answered by the up-front pass,
        // the next six by a search whose sources all meet at once.
        let g = Graph::complete(8);
        let (kept, stats) = bitset_scan(&g, &(0..8).collect::<Vec<_>>());
        assert_eq!(kept, vec![7]);
        assert_eq!(stats.global_passes, 1);
        assert_eq!(stats.certified_noncut, 6);
        assert_eq!(stats.certified_cut, 0);
        assert!(stats.search_visits > 0);
    }

    #[test]
    fn removing_a_leaf_drops_its_parent_from_the_known_cuts() {
        // P6 from V: the pass marks 1..=4.  Once the leaf 0 goes, 1 is a
        // leaf itself, so the set must forget it and keep the rest.
        let g = Graph::path(6);
        let mut in_set = BitSet::from_nodes(6, &(0..6).collect::<Vec<_>>());
        let mut cuts = CutVertices::new(&g, &in_set);
        assert_eq!(cuts.known.to_nodes(), vec![1, 2, 3, 4]);
        in_set.remove(0);
        cuts.removed(&in_set, 0, 1);
        assert_eq!(cuts.known.to_nodes(), vec![2, 3, 4]);
        assert!(cuts.known_are_cut_vertices(&in_set));
        assert!(!cuts.is_cut(&in_set, 1));
        assert!(cuts.is_cut(&in_set, 2));
    }

    #[test]
    fn passes_stay_within_one_plus_the_removals() {
        let mut graphs = udg_instances();
        graphs.extend([Graph::cycle(64), Graph::path(40), Graph::complete(12)]);
        for g in &graphs {
            let n = g.num_nodes();
            let greedy = greedy_cds(g).unwrap().nodes().to_vec();
            for set in [(0..n).collect::<Vec<_>>(), greedy] {
                let (kept, stats) = bitset_scan(g, &set);
                let removed = (set.len() - kept.len()) as u64;
                assert!(stats.global_passes <= 1 + removed, "n {n}: {stats:?}");
                assert_eq!(kept, prune_scalar(g, set.clone(), &scan_order(g, &set)));
            }
        }
    }

    #[test]
    fn kernels_agree_on_structured_graphs() {
        for (g, set) in [
            (Graph::path(10), (0..10).collect::<Vec<_>>()),
            (Graph::complete(8), (0..8).collect()),
            (Graph::cycle(12), (0..12).collect()),
            (
                Graph::from_edges(7, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6)]),
                (0..7).collect(),
            ),
        ] {
            let a = prune_cds_with(&g, &set, Kernel::Scalar).unwrap();
            let b = prune_cds_with(&g, &set, Kernel::Bitset).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn domination_scan_short_circuits() {
        // Set {98, 99} on P100: vertex 0 is uncovered, so the scalar scan
        // must stop after inspecting it — one step, not one hundred.
        let g = Graph::path(100);
        let (ok, steps) = is_cds_fast_scalar(&g, &[98, 99]);
        assert!(!ok);
        assert_eq!(steps, 1, "scan did not short-circuit");
        // A valid CDS scans everything exactly once.
        let interior: Vec<usize> = (1..99).collect();
        let (ok, steps) = is_cds_fast_scalar(&g, &interior);
        assert!(ok);
        assert_eq!(steps, 100);
        // The bitset coverage mask agrees on both verdicts.
        assert!(!is_cds_fast_bitset(&g, &[98, 99]).0);
        assert!(is_cds_fast_bitset(&g, &interior).0);
    }

    #[test]
    fn scan_steps_reach_the_obs_counter() {
        mcds_obs::enable();
        let g = Graph::path(50);
        let before = mcds_obs::counter_value("prune.scan_steps");
        let _ = is_cds_fast(&g, &[48, 49]);
        let after = mcds_obs::counter_value("prune.scan_steps");
        // Other parallel tests may bump the counter too; the short-circuit
        // contract is that this call added at least its own single step.
        assert!(after > before, "counter did not move: {before} -> {after}");
    }

    #[test]
    fn scan_counters_reach_the_obs_registry() {
        mcds_obs::enable();
        let g = Graph::cycle(64);
        let all: Vec<usize> = (0..64).collect();
        let names = [
            "prune.global_passes",
            "prune.certified_noncut",
            "prune.certified_cut",
            "prune.search_visits",
        ];
        let before = names.map(mcds_obs::counter_value);
        prune_cds_with(&g, &all, Kernel::Bitset).unwrap();
        let after = names.map(mcds_obs::counter_value);
        let (_, stats) = bitset_scan(&g, &all);
        let own = [
            stats.global_passes,
            stats.certified_noncut,
            stats.certified_cut,
            stats.search_visits,
        ];
        // Parallel tests share the registry, so each counter grew by at
        // least this call's own count.
        for i in 0..names.len() {
            assert!(after[i] >= before[i] + own[i], "{}", names[i]);
        }
    }
}
