//! Fault-tolerant backbone family: (1,m)- and (2,m)-CDS constructions
//! (ROADMAP item 4, after Zhang–Zhou–Ko–Du and Zhou et al. 2023).
//!
//! The paper's two-phased CDS is a single-point-of-failure backbone: one
//! dominator dies and coverage or connectivity breaks.  This module
//! generalizes both phases and adds a connectivity-hardening post-pass:
//!
//! 1. **m-fold domination** ([`m_fold_dominators`],
//!    [`weighted_m_fold_dominators`]) — a node-weighted greedy that keeps
//!    electing dominators until every non-backbone node is covered by at
//!    least `m` of them, so any `m − 1` dominator deaths leave every
//!    client covered.  Its lazy queue also runs Chvátal's set cover
//!    (`m = 1`) and greedy growth (`m = 1`, gray candidates only).
//! 2. **Weighted connectors** ([`weighted_max_gain_connectors`]) — the
//!    paper's max-gain rule with component merges priced per unit of node
//!    weight (cross-multiplied integer arithmetic; no floats, so
//!    selection stays deterministic), falling back to shortest-path
//!    connectors when only stepping stones remain.  Under equal positive
//!    weights this is phase 2's kernel, [`connect::max_gain_then_paths`].
//! 3. **2-connectivity augmentation** ([`biconnect_augment`]) — repeated
//!    cut-vertex elimination: while the backbone has an articulation
//!    point `c`, reconnect a fragment of `backbone − c` to the rest via a
//!    shortest path in `G` avoiding `c` and absorb the path's interior.
//!    Because a dominating backbone keeps every node of `G` within one
//!    hop, each augmenting path lives in the backbone's 2-hop
//!    neighborhood.
//!
//! The result is a `(k,m)` backbone: `k = 2` survives any single node
//! failure with connectivity intact, `m ≥ 2` keeps every client covered
//! through `m − 1` dominator failures.  Degenerate-size conventions match
//! `mcds_exact::is_biconnected`: singletons and adjacent pairs count as
//! biconnected.
//!
//! All entry points are also reachable through the [`crate::Solver`]
//! builder (`.m(2)`, `.biconnect(true)`), which owns timing, verification
//! ([`check_m_cds`]) and the m-aware pruning post-pass ([`prune_m_cds`],
//! the prune's incremental scan).  Every biconnectivity test is one
//! masked Tarjan pass ([`bitgraph::masked_articulation_points`]) over a
//! membership mask; no induced subgraph is copied.  The loops these
//! replaced live on as the oracles of `tests/fault_equiv.rs`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use mcds_graph::bitgraph::{self, ArticulationScratch, BitSet};
use mcds_graph::{node_mask, subsets, Graph};

use crate::{connect, prune, CdsError};

/// Elects an m-fold dominating set greedily with unit node weights:
/// every node outside the returned set has ≥ `m` neighbors inside it.
///
/// `m = 0` returns the empty set; `m = 1` is Chvátal's greedy
/// dominating set.  Always feasible: a node nobody else can cover `m`
/// times is eventually elected itself.
pub fn m_fold_dominators(g: &Graph, m: usize) -> Vec<usize> {
    weighted_m_fold_dominators(g, &vec![1u64; g.num_nodes()], m)
        .expect("unit weights are always valid")
}

/// Node-weighted greedy m-fold domination: repeatedly elects the node
/// with the best coverage-deficit reduction per unit weight (ties to the
/// smaller id), until every non-member has ≥ `m` member neighbors.
///
/// Weights are abstract costs (e.g. inverse residual energy); the
/// comparison `gain_a / w_a > gain_b / w_b` is evaluated as
/// `gain_a · w_b > gain_b · w_a` in 128-bit integers, so the election is
/// exact and deterministic.  Zero weights are allowed and sort first.
///
/// The election is lazy.  Electing a node only lowers deficits, so gains
/// only fall and a queue entry's gain bounds its true one from above.
/// The top entry is recomputed when popped: if its gain still holds, no
/// other entry can beat it, even on ties, so it is the argmax a rescan
/// would find; else it is requeued with its true gain.
/// `mfold.candidates_scanned` counts the initial scan plus the pops.
///
/// The same queue, at `m = 1` with unit weights and restricted to gray
/// candidates, runs greedy growth ([`crate::Algorithm::GreedyGrowth`]).
///
/// # Errors
///
/// [`CdsError::InvalidSet`] if `weights.len() != g.num_nodes()`.
pub fn weighted_m_fold_dominators(
    g: &Graph,
    weights: &[u64],
    m: usize,
) -> Result<Vec<usize>, CdsError> {
    let n = g.num_nodes();
    if weights.len() != n {
        return Err(CdsError::InvalidSet(format!(
            "weight vector has {} entries for {} nodes",
            weights.len(),
            n
        )));
    }
    let mut out = elect(g, weights, m, false);
    out.sort_unstable();
    Ok(out)
}

/// The lazy election of [`weighted_m_fold_dominators`], returning the
/// elected nodes in election order (`weights.len()` must be
/// `g.num_nodes()`).
///
/// With `gray_only` (greedy growth, `m = 1` only), only gray nodes
/// (dominated non-members) are candidates after the first pick, so the
/// elected set stays connected.  The queue is emptied after that pick,
/// and a node is queued with its exact gain when an election turns it
/// gray, so each candidate keeps one upper-bound entry and the argmax
/// argument above holds.  Growth needs a connected graph: while a node
/// is undominated, a gray neighbour of it has a positive gain.
pub(crate) fn elect(g: &Graph, weights: &[u64], m: usize, gray_only: bool) -> Vec<usize> {
    debug_assert!(!gray_only || m == 1);
    let n = g.num_nodes();
    if m == 0 || n == 0 {
        return Vec::new();
    }
    // Remaining deficit of v: 0 once elected, else max(0, m − elected
    // neighbors of v).
    let mut deficit = vec![m; n];
    // Electing u erases u's own deficit and covers each unsatisfied
    // non-member neighbor once more.
    let entry = |deficit: &[usize], node: usize| Candidate {
        gain: deficit[node] + g.neighbors_iter(node).filter(|&w| deficit[w] > 0).count(),
        weight: weights[node],
        node,
    };
    let mut queue: BinaryHeap<Candidate> = (0..n)
        .map(|node| entry(&deficit, node))
        .filter(|c| c.gain > 0)
        .collect();
    let mut scanned = n as u64;
    let mut total: usize = n * m;
    let mut out = Vec::new();
    let mut turned_gray = Vec::new();
    while total > 0 {
        let top = queue
            .pop()
            .expect("positive total deficit implies a positive-gain candidate");
        scanned += 1;
        let u = top.node;
        let now = entry(&deficit, u).gain;
        if now < top.gain {
            if now > 0 {
                queue.push(Candidate { gain: now, ..top });
            }
            continue;
        }
        total -= now;
        deficit[u] = 0;
        out.push(u);
        if gray_only && out.len() == 1 {
            queue.clear();
        }
        for w in g.neighbors_iter(u) {
            if gray_only && deficit[w] == 1 {
                turned_gray.push(w);
            }
            deficit[w] = deficit[w].saturating_sub(1);
        }
        let entries = turned_gray.drain(..).map(|w| entry(&deficit, w));
        queue.extend(entries.filter(|c| c.gain > 0));
    }
    mcds_obs::counter!("mfold.candidates_scanned", scanned);
    mcds_obs::counter!("mfold.selected", out.len() as u64);
    out
}

/// A queue entry of the m-fold election: the greatest entry has the best
/// gain per unit weight, then the smallest id.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    gain: usize,
    weight: u64,
    node: usize,
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        let lhs = self.gain as u128 * u128::from(other.weight);
        let rhs = other.gain as u128 * u128::from(self.weight);
        lhs.cmp(&rhs).then(other.node.cmp(&self.node))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Candidate {}

/// Phase 2 for the fault-tolerant family: connects the components of
/// `G[seed]` by repeatedly adding the non-seed node with the best
/// component-merge gain per unit weight, then falls back to
/// shortest-path connectors once only zero-gain stepping stones remain
/// (an m-fold seed is dominating, so components sit ≤ 3 hops apart but
/// not always ≤ 2 as an MIS would — Lemma 9 does not apply).
///
/// Returns the connectors only (sorted, disjoint from `seed`).
///
/// Equal positive weights price every merge alike, so the rule is the
/// unweighted one and [`connect::max_gain_then_paths`] runs it.  Only
/// unequal or all-zero weights run the rescan below, the one
/// implementation of the ratio rule (all-zero weights tie every
/// candidate, so it picks the smallest id that merges, not the most).
///
/// # Errors
///
/// * [`CdsError::EmptyGraph`] on the empty graph,
/// * [`CdsError::InvalidSet`] if the weight vector is malformed or the
///   seed is empty,
/// * [`CdsError::DisconnectedGraph`] if `g` is disconnected and the
///   merges stall before connecting the seed.
pub fn weighted_max_gain_connectors(
    g: &Graph,
    seed: &[usize],
    weights: &[u64],
) -> Result<Vec<usize>, CdsError> {
    let n = g.num_nodes();
    if n == 0 {
        return Err(CdsError::EmptyGraph);
    }
    if weights.len() != n {
        return Err(CdsError::InvalidSet(format!(
            "weight vector has {} entries for {} nodes",
            weights.len(),
            n
        )));
    }
    if seed.is_empty() {
        return Err(CdsError::InvalidSet("empty seed set".into()));
    }
    if weights[0] > 0 && weights.iter().all(|&w| w == weights[0]) {
        let mut connectors = connect::max_gain_then_paths_unchecked(g, seed)?;
        connectors.sort_unstable();
        return Ok(connectors);
    }
    let mut mask = node_mask(n, seed);
    let mut connectors: Vec<usize> = Vec::new();
    loop {
        let q = subsets::count_components(g, &mask);
        if q <= 1 {
            break;
        }
        let mut dsu = subsets::components_dsu(g, &mask);
        // Best (merge-gain, node) per unit weight; gain = adjacent
        // components − 1 merges performed by the addition.
        let mut best: Option<(usize, usize)> = None;
        for w in 0..n {
            if mask[w] {
                continue;
            }
            let adj = subsets::adjacent_components(g, &mask, &mut dsu, w).len();
            if adj < 2 {
                continue;
            }
            let gain = adj - 1;
            let better = match best {
                None => true,
                Some((bg, bw)) => {
                    let lhs = gain as u128 * u128::from(weights[bw]);
                    let rhs = bg as u128 * u128::from(weights[w]);
                    lhs > rhs || (lhs == rhs && w < bw)
                }
            };
            if better {
                best = Some((gain, w));
            }
        }
        match best {
            Some((_, w)) => {
                mask[w] = true;
                connectors.push(w);
                mcds_obs::counter!("connectors.selected");
            }
            None => {
                // Only stepping stones remain: let the shortest-path
                // walker finish (it reports DisconnectedGraph if `g`
                // itself cannot connect the seed).
                let current: Vec<usize> = (0..n).filter(|&v| mask[v]).collect();
                let rest = connect::path_connectors(g, &current)?;
                connectors.extend(rest);
                break;
            }
        }
    }
    connectors.sort_unstable();
    Ok(connectors)
}

/// Hardens a connected dominating `set` to 2-vertex-connectivity by
/// cut-vertex elimination, returning the augmented set (sorted,
/// superset of the input).
///
/// While the induced backbone has an articulation point `c` (the
/// smallest, by one masked Tarjan pass): find a shortest path in `G − c`
/// from the fragment of `backbone − c` holding the smallest member to
/// the rest of the backbone (the search that also finishes
/// [`connect::path_connectors`]), and absorb the path's interior nodes.
/// Each round strictly shrinks the number of fragments at `c`, and each
/// absorbed path adds ≥ 1 new node, so the pass terminates in ≤ n
/// augmentations.  Only *adds* nodes: every domination property of the
/// input is preserved.
///
/// Connected sets of size ≤ 2 have no cut vertex and are returned
/// unchanged (biconnected by the convention of
/// `mcds_exact::is_biconnected`).
///
/// # Errors
///
/// * [`CdsError::InvalidSet`] if `set` is empty on a non-empty graph,
/// * [`CdsError::NotConnected`] if `G[set]` is disconnected,
/// * [`CdsError::NotBiconnected`] if some cut vertex cannot be bypassed
///   because `g` itself is not 2-connected.
pub fn biconnect_augment(g: &Graph, set: &[usize]) -> Result<Vec<usize>, CdsError> {
    let n = g.num_nodes();
    if n == 0 {
        return Ok(Vec::new());
    }
    if set.is_empty() {
        return Err(CdsError::InvalidSet("empty backbone".into()));
    }
    let mut backbone = BitSet::from_nodes(n, set);
    let mut scratch = ArticulationScratch::new();
    let mut cut = BitSet::new(n);
    if bitgraph::masked_articulation_points(g, &backbone, &mut scratch, &mut cut) > 1 {
        return Err(CdsError::NotConnected);
    }
    let mut added = 0u64;
    let mut paths = 0u64;
    while let Some(c) = cut.iter_ones().next() {
        let path = connect::shortest_bridge(g, &backbone, Some(c))
            .ok_or(CdsError::NotBiconnected { cut: c })?;
        paths += 1;
        added += path.len() as u64;
        for v in path {
            backbone.insert(v);
        }
        bitgraph::masked_articulation_points(g, &backbone, &mut scratch, &mut cut);
    }
    mcds_obs::counter!("augment.paths", paths);
    mcds_obs::counter!("augment.added", added);
    Ok(backbone.to_nodes())
}

/// Checks the `(1,m)` backbone contract: `set` is connected in `g` and
/// every node outside it has ≥ `m` neighbors inside.
///
/// # Errors
///
/// * [`CdsError::InvalidSet`] for an empty set on a non-empty graph,
/// * [`CdsError::NotMDominating`] naming the first under-covered node,
/// * [`CdsError::NotConnected`] if `G[set]` is disconnected.
pub fn check_m_cds(g: &Graph, set: &[usize], m: usize) -> Result<(), CdsError> {
    let n = g.num_nodes();
    if n == 0 {
        return Ok(());
    }
    if set.is_empty() {
        return Err(CdsError::InvalidSet(
            "empty set on a non-empty graph".into(),
        ));
    }
    let mask = node_mask(n, set);
    for v in 0..n {
        if mask[v] {
            continue;
        }
        let have = g.neighbors_iter(v).filter(|&u| mask[u]).count();
        if have < m {
            return Err(CdsError::NotMDominating {
                node: v,
                have,
                need: m,
            });
        }
    }
    if !subsets::is_connected_subset(g, &mask) {
        return Err(CdsError::NotConnected);
    }
    Ok(())
}

/// Checks that `G[set]` is biconnected, with the degenerate-size
/// conventions of `mcds_exact::is_biconnected` (a singleton or an
/// adjacent pair counts), by one masked Tarjan pass; names a concrete
/// cut vertex or reports disconnection.
///
/// # Errors
///
/// * [`CdsError::InvalidSet`] for an empty set on a non-empty graph,
/// * [`CdsError::NotConnected`] if `G[set]` is disconnected,
/// * [`CdsError::NotBiconnected`] naming the smallest cut vertex.
pub fn check_biconnected(g: &Graph, set: &[usize]) -> Result<(), CdsError> {
    let n = g.num_nodes();
    if n == 0 {
        return Ok(());
    }
    if set.is_empty() {
        return Err(CdsError::InvalidSet(
            "empty set on a non-empty graph".into(),
        ));
    }
    let mut cut = BitSet::new(n);
    let mask = BitSet::from_nodes(n, set);
    if bitgraph::masked_articulation_points(g, &mask, &mut ArticulationScratch::new(), &mut cut) > 1
    {
        return Err(CdsError::NotConnected);
    }
    match cut.iter_ones().next() {
        Some(cut) => Err(CdsError::NotBiconnected { cut }),
        None => Ok(()),
    }
}

/// Greedily removes redundant nodes from a `(k,m)` backbone: a node is
/// dropped only if the remainder stays m-fold dominating, connected, and
/// (when `biconnect` is set) biconnected.  The output is 1-minimal for
/// exactly that property set, so the pass is idempotent.
///
/// After the entry checks this is the prune's incremental scan
/// ([`crate::prune::prune_cds`]'s), with `m` in its coverage thresholds
/// and, under `biconnect`, a masked Tarjan test of each removal and
/// passes repeated until one removes nothing.
///
/// # Errors
///
/// Propagates the [`check_m_cds`] violation (or the
/// [`check_biconnected`] one) if `set` does not satisfy the contract to
/// begin with.
pub fn prune_m_cds(
    g: &Graph,
    set: &[usize],
    m: usize,
    biconnect: bool,
) -> Result<Vec<usize>, CdsError> {
    check_m_cds(g, set, m)?;
    if biconnect {
        check_biconnected(g, set)?;
    }
    Ok(prune::prune_valid(g, set, m, biconnect))
}

/// Named node-weight assignments for the minimum-weight objective
/// ([`weighted_m_fold_dominators`] / [`weighted_max_gain_connectors`]).
///
/// The schemes are synthetic stand-ins for deployment costs (inverse
/// residual energy, rental price, …): `Unit` recovers the unweighted
/// size objective, `Degree` prices hubs proportionally to their load,
/// and `Random` draws adversarial costs from a seed.  All three are pure
/// functions of the graph (and the seed), so weighted runs keep the
/// workspace determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightScheme {
    /// Every node costs 1 — the classic minimum-size objective.
    Unit,
    /// `degree(v) + 1` — electing a hub costs what it coordinates.
    Degree,
    /// Pseudorandom costs in `1..=16`, derived from the seed with a
    /// splitmix64 stream (independent of any global RNG state).
    Random(u64),
}

/// Rejected `--weights` selector, echoing the valid names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownWeightScheme(pub String);

impl std::fmt::Display for UnknownWeightScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown weight scheme `{}` (valid: unit, degree, random)",
            self.0
        )
    }
}

impl std::error::Error for UnknownWeightScheme {}

impl WeightScheme {
    /// Parses a scheme selector; `seed` feeds [`WeightScheme::Random`]
    /// and is ignored by the deterministic schemes.
    pub fn parse(name: &str, seed: u64) -> Result<WeightScheme, UnknownWeightScheme> {
        match name {
            "unit" => Ok(WeightScheme::Unit),
            "degree" => Ok(WeightScheme::Degree),
            "random" => Ok(WeightScheme::Random(seed)),
            other => Err(UnknownWeightScheme(other.to_string())),
        }
    }

    /// The selector name ([`WeightScheme::parse`] inverse, seed aside).
    pub fn name(&self) -> &'static str {
        match self {
            WeightScheme::Unit => "unit",
            WeightScheme::Degree => "degree",
            WeightScheme::Random(_) => "random",
        }
    }

    /// Materializes the per-node weight vector for `g`.
    pub fn weights(&self, g: &Graph) -> Vec<u64> {
        let n = g.num_nodes();
        match *self {
            WeightScheme::Unit => vec![1; n],
            WeightScheme::Degree => (0..n).map(|v| g.degree(v) as u64 + 1).collect(),
            WeightScheme::Random(seed) => {
                let mut state = seed;
                (0..n)
                    .map(|_| {
                        state = splitmix64(state);
                        state % 16 + 1
                    })
                    .collect()
            }
        }
    }

    /// Total cost of `nodes` under this scheme (weights from `g`).
    pub fn total(&self, g: &Graph, nodes: &[usize]) -> u64 {
        let w = self.weights(g);
        nodes.iter().map(|&v| w[v]).sum()
    }
}

/// One step of the splitmix64 sequence — the standard seed expander,
/// kept local so `mcds-cds` needs no RNG dependency for weight synthesis.
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, Cds, Solver};
    use mcds_graph::Graph;

    /// The `(k, m)` backbone the solver builds: `k = 2` with `biconnect`.
    fn family(g: &Graph, m: usize, biconnect: bool) -> Result<Cds, CdsError> {
        Solver::new(Algorithm::GreedyConnect)
            .m(m)
            .biconnect(biconnect)
            .solve(g)
            .map(|s| s.into_cds())
    }

    fn gnarly() -> Graph {
        Graph::from_edges(
            12,
            [
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 8),
                (8, 9),
                (9, 10),
                (10, 11),
                (11, 0),
                (2, 8),
                (5, 11),
            ],
        )
    }

    #[test]
    fn m_fold_dominators_meet_their_coverage_contract() {
        for g in [
            gnarly(),
            Graph::cycle(15),
            Graph::complete(6),
            Graph::path(10),
        ] {
            for m in 1..=3 {
                let doms = m_fold_dominators(&g, m);
                let mask = node_mask(g.num_nodes(), &doms);
                for v in 0..g.num_nodes() {
                    if !mask[v] {
                        let have = g.neighbors_iter(v).filter(|&u| mask[u]).count();
                        assert!(have >= m, "node {v} covered {have} < {m} in {g:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn m_zero_and_degenerate_inputs() {
        assert!(m_fold_dominators(&Graph::cycle(5), 0).is_empty());
        assert!(m_fold_dominators(&Graph::empty(0), 2).is_empty());
        // A singleton graph must elect itself.
        assert_eq!(m_fold_dominators(&Graph::empty(1), 2), vec![0]);
        // Degree-starved nodes elect themselves rather than looping.
        let p2 = Graph::path(2);
        assert_eq!(m_fold_dominators(&p2, 3), vec![0, 1]);
    }

    #[test]
    fn weights_steer_the_election() {
        // On a star, the hub wins at unit weights (it covers everyone),
        // but a prohibitive hub weight pushes the election to the leaves.
        let star = Graph::star(6);
        let unit = m_fold_dominators(&star, 1);
        assert_eq!(unit, vec![0]);
        let mut costly_hub = vec![1u64; 6];
        costly_hub[0] = 1_000_000;
        let avoided = weighted_m_fold_dominators(&star, &costly_hub, 1).unwrap();
        // Leaves cannot cover each other, so the hub still appears, but
        // only after every leaf elected itself.
        assert!(avoided.len() > 1);
        let bad = weighted_m_fold_dominators(&star, &[1, 2], 1);
        assert!(matches!(bad, Err(CdsError::InvalidSet(_))));
    }

    #[test]
    fn weighted_connectors_connect_m_fold_seeds() {
        for g in [gnarly(), Graph::cycle(15), Graph::path(12)] {
            let weights = vec![1u64; g.num_nodes()];
            for m in 1..=3 {
                let doms = m_fold_dominators(&g, m);
                let conn = weighted_max_gain_connectors(&g, &doms, &weights).unwrap();
                let all: Vec<usize> = mcds_graph::node_set(doms.iter().chain(&conn).copied());
                assert!(
                    subsets::is_connected_subset(&g, &node_mask(g.num_nodes(), &all)),
                    "m={m} {g:?}"
                );
                for c in &conn {
                    assert!(doms.binary_search(c).is_err(), "connector {c} in seed");
                }
            }
        }
    }

    #[test]
    fn augmentation_produces_biconnected_backbones() {
        // Cycles and chorded cycles are 2-connected, so augmentation
        // must succeed; start from a deliberately fragile seed.
        for g in [gnarly(), Graph::cycle(9), Graph::complete(7)] {
            let cds = family(&g, 1, false).unwrap();
            let aug = biconnect_augment(&g, cds.nodes()).unwrap();
            assert!(check_biconnected(&g, &aug).is_ok(), "{g:?}");
            // Superset of the input: augmentation only adds.
            for v in cds.nodes() {
                assert!(aug.binary_search(v).is_ok());
            }
        }
    }

    #[test]
    fn augmentation_rejects_graphs_with_unavoidable_cuts() {
        // A path's interior nodes are articulation points of the graph
        // itself; a backbone spanning both sides cannot be biconnected.
        let g = Graph::path(7);
        let backbone: Vec<usize> = (1..6).collect();
        match biconnect_augment(&g, &backbone) {
            Err(CdsError::NotBiconnected { cut }) => assert!(backbone.contains(&cut)),
            other => panic!("expected NotBiconnected, got {other:?}"),
        }
        // Trivially small backbones pass unchanged.
        assert_eq!(biconnect_augment(&g, &[3]).unwrap(), vec![3]);
        assert_eq!(biconnect_augment(&g, &[3, 4]).unwrap(), vec![3, 4]);
        // Disconnected backbones are rejected up front.
        assert_eq!(biconnect_augment(&g, &[1, 5]), Err(CdsError::NotConnected));
    }

    #[test]
    fn check_m_cds_reports_the_first_violation() {
        let g = Graph::cycle(6);
        assert!(check_m_cds(&g, &[0, 1, 2, 3, 4], 2).is_ok());
        match check_m_cds(&g, &[0, 1, 2], 2) {
            Err(CdsError::NotMDominating { node, have, need }) => {
                assert_eq!((node, have, need), (3, 1, 2));
            }
            other => panic!("expected NotMDominating, got {other:?}"),
        }
        assert_eq!(check_m_cds(&g, &[0, 3], 1), Err(CdsError::NotConnected));
        assert!(matches!(
            check_m_cds(&g, &[], 1),
            Err(CdsError::InvalidSet(_))
        ));
    }

    #[test]
    fn m_aware_pruning_is_idempotent_and_contract_preserving() {
        for g in [gnarly(), Graph::cycle(12)] {
            for m in 1..=2 {
                for biconnect in [false, true] {
                    let cds = family(&g, m, biconnect).unwrap();
                    let pruned = prune_m_cds(&g, cds.nodes(), m, biconnect).unwrap();
                    assert!(check_m_cds(&g, &pruned, m).is_ok(), "m={m} {g:?}");
                    if biconnect {
                        assert!(check_biconnected(&g, &pruned).is_ok(), "m={m} {g:?}");
                    }
                    let again = prune_m_cds(&g, &pruned, m, biconnect).unwrap();
                    assert_eq!(again, pruned, "prune not idempotent, m={m} {g:?}");
                }
            }
        }
    }

    #[test]
    fn whole_family_on_named_graphs() {
        for g in [gnarly(), Graph::cycle(10), Graph::complete(8)] {
            for m in 1..=3 {
                let plain = family(&g, m, false).unwrap();
                assert!(check_m_cds(&g, plain.nodes(), m).is_ok());
                let hard = family(&g, m, true).unwrap();
                assert!(check_m_cds(&g, hard.nodes(), m).is_ok());
                assert!(check_biconnected(&g, hard.nodes()).is_ok());
                // Hardening never shrinks the backbone.
                assert!(hard.len() >= plain.len());
            }
        }
        assert_eq!(
            family(&Graph::empty(0), 2, false),
            Err(CdsError::EmptyGraph)
        );
        assert_eq!(
            family(&Graph::from_edges(4, [(0, 1), (2, 3)]), 2, false),
            Err(CdsError::DisconnectedGraph)
        );
    }

    #[test]
    fn backbone_survives_single_dominator_failure_when_m_is_2() {
        // The robustness claim in miniature: kill any single backbone
        // node of a (2,2) backbone and every surviving non-member is
        // still covered, and the survivors stay connected.
        let g = gnarly();
        let cds = family(&g, 2, true).unwrap();
        for &dead in cds.nodes() {
            let survivors: Vec<usize> =
                cds.nodes().iter().copied().filter(|&v| v != dead).collect();
            let mask = node_mask(g.num_nodes(), &survivors);
            for v in 0..g.num_nodes() {
                if v == dead || mask[v] {
                    continue;
                }
                assert!(
                    g.neighbors_iter(v).any(|u| mask[u]),
                    "node {v} uncovered after killing {dead}"
                );
            }
            assert!(
                subsets::is_connected_subset(&g, &mask),
                "backbone split after killing {dead}"
            );
        }
    }
}
