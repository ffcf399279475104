//! Redundant-node pruning — a validity-preserving post-pass (an extension
//! beyond the paper, ablated in the E6 experiment).
//!
//! A CDS node is *redundant* if removing it leaves the set both dominating
//! and connected.  Pruning scans candidates in ascending `(degree, id)`
//! order — low-degree members (leaf-like connectors) are the likeliest
//! redundant ones — and removes greedily.  The result is a minimal — not
//! minimum — CDS contained in the input.
//!
//! The scan is incremental: it maintains `cover[u] = |N(u) ∩ S|` counts
//! and a set of known cut vertices of `G[S]`, seeded by one masked
//! Tarjan pass over a [`mcds_graph::bitgraph::BitSet`] and extended by
//! exact local searches around each candidate (`CutVertices`), so a
//! candidate is accepted or rejected in `O(deg v)` plus a search near
//! `v`, and state is patched instead of rebuilt.  It accepts exactly the
//! removals, in the same order, of the original per-candidate re-check
//! (rebuild the set minus `v`, re-run the full domination +
//! connectivity scan) and of a scan that reruns the masked Tarjan pass
//! after every accepted removal; `tests/kernel_equiv.rs` keeps both as
//! oracles and diffs against them.
//!
//! The same scan prunes the fault-tolerant family's `(k, m)` backbones
//! ([`crate::fault::prune_m_cds`]): `m` raises the two coverage
//! thresholds, and `biconnect` adds a masked Tarjan test of `S − v` after
//! the local tests pass and repeats the pass until it removes nothing.
//! `tests/fault_equiv.rs` keeps the family's old sweep as the oracle.

use mcds_graph::bitgraph::{self, ArticulationScratch, BitSet};
use mcds_graph::subsets::LocalSearch;
use mcds_graph::Graph;

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
pub fn prune_cds(g: &Graph, set: &[usize]) -> Result<Vec<usize>, CdsError> {
    crate::check_cds(g, set)?;
    Ok(prune_valid(g, set, 1, false))
}

/// [`prune_bitset`] on a `set` the caller has validated, flushing its
/// counters.
pub(crate) fn prune_valid(g: &Graph, set: &[usize], m: usize, biconnect: bool) -> Vec<usize> {
    let current = mcds_graph::node_set(set.iter().copied());
    let (kept, stats) = prune_bitset(g, &current, m, biconnect);
    stats.flush();
    kept
}

/// The incremental scan of the sorted, connected, m-fold dominating set
/// `current`, candidates in ascending `(degree, id)` order: a removal of
/// `v` from such a set `S` keeps it one iff
///
/// 1. `cover[v] ≥ m` — `v` itself stays m-fold dominated,
/// 2. every non-member neighbor `u` of `v` has `cover[u] ≥ m + 1` — `u`
///    keeps `m` dominators after losing `v`,
/// 3. `v` is not an articulation point of `G[S]` — connectivity holds
///    (member neighbors stay dominated by membership).
///
/// These are exactly the conditions a full re-check of `S − v` tests
/// (`m = 1` is the CDS check), so the scan keeps the same removals.
/// `cover` is patched in `O(deg v)` per removal; condition 3, the only
/// non-local one, is asked last and answered by [`CutVertices`].
///
/// With `biconnect` (`S` is then biconnected too), `v` is removed only
/// if a masked Tarjan pass finds no cut vertex in `S − v`, and the pass
/// over the candidates is repeated until it removes nothing.  Without it
/// one pass is a fixpoint for `m ≥ 1` (DESIGN.md §11); `m = 0` repeats.
fn prune_bitset(
    g: &Graph,
    current: &[usize],
    m: usize,
    biconnect: bool,
) -> (Vec<usize>, PruneStats) {
    let n = g.num_nodes();
    let m = u32::try_from(m).unwrap_or(u32::MAX);
    let mut order = current.to_vec();
    order.sort_by_key(|&v| (g.degree(v), v));
    let mut in_set = BitSet::from_nodes(n, current);
    let mut size = current.len();
    let mut cover = vec![0u32; n];
    for &v in current {
        g.neighbors_iter(v).for_each(|u| cover[u] += 1);
    }
    let mut cuts = CutVertices::new(g, &in_set);
    loop {
        let mut removed = false;
        for &v in &order {
            if size <= 1 {
                break;
            }
            if !in_set.contains(v) || cover[v] < m || cuts.known_cut(v) {
                continue;
            }
            let dominated = g
                .neighbors_iter(v)
                .all(|u| in_set.contains(u) || cover[u] > m);
            if !dominated || cuts.is_cut(&in_set, v) {
                continue;
            }
            if biconnect && !cuts.biconnected_without(&mut in_set, v) {
                continue;
            }
            in_set.remove(v);
            size -= 1;
            removed = true;
            g.neighbors_iter(v).for_each(|u| cover[u] -= 1);
            cuts.removed(&in_set, v, cover[v]);
            debug_assert!(crate::fault::check_m_cds(g, &in_set.to_nodes(), m as usize).is_ok());
        }
        if !removed || (m > 0 && !biconnect) {
            break;
        }
    }
    (in_set.to_nodes(), cuts.stats)
}

/// Work counters of one prune scan, flushed once per call to the
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
struct CutVertices<'g> {
    g: &'g Graph,
    known: BitSet,
    exact: bool,
    scratch: ArticulationScratch,
    /// The cut vertices of `G[S − v]` in `biconnected_without`.
    probe: BitSet,
    /// Work of one global pass: `Σ_{u∈S}(deg u + 1)` successor visits.
    pass_cost: u64,
    /// Local-search successor visits since the last global pass.
    spent: u64,
    search: LocalSearch,
    stats: PruneStats,
}

impl<'g> CutVertices<'g> {
    /// Runs the up-front global pass over `G[in_set]`.
    fn new(g: &'g Graph, in_set: &BitSet) -> Self {
        let n = g.num_nodes();
        let mut cuts = CutVertices {
            g,
            known: BitSet::new(n),
            exact: false,
            scratch: ArticulationScratch::new(),
            probe: BitSet::new(n),
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
        let verdict = self
            .search
            .run(self.g, |u| in_set.contains(u), v, budget, &mut work);
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

    /// Whether `G[S − v]` has no cut vertex (`in_set` is restored).
    fn biconnected_without(&mut self, in_set: &mut BitSet, v: usize) -> bool {
        in_set.remove(v);
        bitgraph::masked_articulation_points(self.g, in_set, &mut self.scratch, &mut self.probe);
        in_set.insert(v);
        self.probe.iter_ones().next().is_none()
    }

    /// Records that the non-cut member `v`, which had `s_degree` member
    /// neighbours, has just been removed from `in_set`.
    fn removed(&mut self, in_set: &BitSet, v: usize, s_degree: u32) {
        self.exact = false;
        self.pass_cost -= self.g.degree(v) as u64 + 1;
        if s_degree == 1 {
            if let Some(parent) = self.g.neighbors_iter(v).find(|&u| in_set.contains(u)) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, Solver};
    use mcds_graph::Graph;

    fn solve(alg: Algorithm, g: &Graph) -> Vec<usize> {
        Solver::new(alg).solve(g).unwrap().nodes().to_vec()
    }

    #[test]
    fn pruned_set_is_valid_and_minimal() {
        let g = Graph::cycle(12);
        let cds = solve(Algorithm::WafTree, &g);
        let pruned = prune_cds(&g, &cds).unwrap();
        assert!(crate::check_cds(&g, &pruned).is_ok());
        assert!(pruned.len() <= cds.len());
        // 1-minimality: removing any single node breaks the CDS.
        for &v in &pruned {
            let smaller: Vec<usize> = pruned.iter().copied().filter(|&u| u != v).collect();
            assert!(
                crate::check_cds(&g, &smaller).is_err(),
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
        assert!(prune_cds(&g, &[]).is_err());
    }

    #[test]
    fn complete_graph_prunes_to_one() {
        let g = Graph::complete(8);
        let all: Vec<usize> = (0..8).collect();
        assert_eq!(prune_cds(&g, &all).unwrap().len(), 1);
    }

    #[test]
    fn algorithm_outputs_rarely_shrink_much() {
        // Pruning the paper's algorithms' outputs should stay valid; the
        // savings are usually zero or tiny (their outputs are lean).
        for g in [Graph::path(20), Graph::cycle(15)] {
            let cds = solve(Algorithm::GreedyConnect, &g);
            let pruned = prune_cds(&g, &cds).unwrap();
            assert!(crate::check_cds(&g, &pruned).is_ok());
        }
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
    fn cycle_forces_cut_certificates_then_a_refresh() {
        // After C64 loses nodes 0 and 1, every later candidate is a new cut
        // vertex of the remaining path, certified by exhausting its short
        // side; that work outgrows one pass and triggers the second.
        let g = Graph::cycle(64);
        let all: Vec<usize> = (0..64).collect();
        let (_, stats) = prune_bitset(&g, &all, 1, false);
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
        let (kept, stats) = prune_bitset(&g, &(0..8).collect::<Vec<_>>(), 1, false);
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
            let greedy = solve(Algorithm::GreedyConnect, g);
            for set in [(0..n).collect::<Vec<_>>(), greedy] {
                let (kept, stats) = prune_bitset(g, &set, 1, false);
                let removed = (set.len() - kept.len()) as u64;
                assert!(stats.global_passes <= 1 + removed, "n {n}: {stats:?}");
            }
        }
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
        prune_cds(&g, &all).unwrap();
        let after = names.map(mcds_obs::counter_value);
        let (_, stats) = prune_bitset(&g, &all, 1, false);
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
