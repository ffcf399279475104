//! The unified [`Solver`] entry point: the one path through every CDS
//! construction in this crate.
//!
//! ```
//! use mcds_graph::Graph;
//! use mcds_cds::{Algorithm, Solver};
//!
//! let g = Graph::cycle(16);
//! let solution = Solver::new(Algorithm::GreedyConnect)
//!     .root(3)
//!     .prune(true)
//!     .solve(&g)?;
//! assert!(solution.cds().verify(&g).is_ok());
//! assert!(solution.ratio_bound().is_some());
//! assert!(solution.timings().total() >= solution.timings().phase1);
//! # Ok::<(), mcds_cds::CdsError>(())
//! ```
//!
//! Beyond dispatch, the solver owns the cross-cutting concerns: input
//! validation with typed [`CdsError`]s, per-phase wall-clock accounting
//! ([`PhaseTimings`]), optional post-verification, and the optional
//! pruning post-pass.

use std::time::{Duration, Instant};

use mcds_graph::RandomAccessGraph;
use mcds_mis::{variants, BfsMis};

use crate::algorithms::Algorithm;
use crate::fault::WeightScheme;
use crate::{connect, fault, growth, prune, setcover, waf, Cds, CdsError};

/// Wall-clock time spent in each stage of a solve.  Every solve laps the
/// stages it runs; a stage it skips (no verification, no pruning, no
/// augmentation, no phase 2 for greedy growth) stays zero.
///
/// The phase names follow the paper's two-phase structure; `build` is for
/// callers that also time instance construction (the experiment harness
/// folds UDG generation in via [`Solution::set_build_time`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Instance/graph construction (set by the caller; the solver itself
    /// receives a finished graph).
    pub build: Duration,
    /// Phase 1 — dominator election (MIS, set cover, or greedy growth).
    pub phase1: Duration,
    /// Phase 2 — connector selection.
    pub phase2: Duration,
    /// The 2-connectivity augmentation pass ([`Solver::biconnect`]).
    pub augment: Duration,
    /// Post-verification against the reference predicates.
    pub verify: Duration,
    /// The pruning post-pass.
    pub prune: Duration,
}

impl PhaseTimings {
    /// Total accounted time across all stages.
    pub fn total(&self) -> Duration {
        self.build + self.phase1 + self.phase2 + self.augment + self.verify + self.prune
    }
}

/// Lap timer over the stages of one solve.  Each stage laps it before
/// its span closes, so a trace attributes the clock read to that stage.
struct Stopwatch {
    last: Instant,
}

impl Stopwatch {
    fn new() -> Self {
        Stopwatch {
            last: Instant::now(),
        }
    }

    /// Time since the previous lap.
    fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let since = now - self.last;
        self.last = now;
        since
    }
}

/// Configurable CDS construction: pick the [`Algorithm`], then opt into a
/// root, verification, pruning or the fault-tolerant family before
/// calling [`Solver::solve`].
///
/// Defaults: root 0 (for the rooted algorithms), no verification, no
/// pruning, `m = 1`, no augmentation, unit weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Solver {
    algorithm: Algorithm,
    root: Option<usize>,
    prune: bool,
    verify: bool,
    m: usize,
    biconnect: bool,
    weights: WeightScheme,
}

impl Solver {
    /// A solver for `algorithm` with default configuration.
    pub fn new(algorithm: Algorithm) -> Self {
        Solver {
            algorithm,
            root: None,
            prune: false,
            verify: false,
            m: 1,
            biconnect: false,
            weights: WeightScheme::Unit,
        }
    }

    /// Roots the construction at `root` (the elected leader).
    ///
    /// Only [`Algorithm::WafTree`] and [`Algorithm::GreedyConnect`] are
    /// root-sensitive; the baselines ignore the root but still validate
    /// it, so a bad root errors uniformly across algorithms.
    pub fn root(mut self, root: usize) -> Self {
        self.root = Some(root);
        self
    }

    /// Enables the validity-preserving pruning post-pass (see
    /// [`crate::prune::prune_cds`]); role labels of surviving nodes are
    /// kept.
    pub fn prune(mut self, on: bool) -> Self {
        self.prune = on;
        self
    }

    /// Re-checks the result against the reference CDS predicates before
    /// returning (an end-to-end guard for experiment pipelines).
    pub fn verify(mut self, on: bool) -> Self {
        self.verify = on;
        self
    }

    /// Requests an m-fold dominating backbone: every non-backbone node
    /// must be covered by at least `m` dominators, so any `m − 1`
    /// dominator failures leave every client covered.
    ///
    /// `m = 1` (the default) runs the configured [`Algorithm`]
    /// unchanged.  For `m ≥ 2` the two phases route through the
    /// generalized constructions in [`crate::fault`] — the node-weighted
    /// m-fold greedy and the weighted max-gain connectors — regardless
    /// of the configured algorithm, which then only labels the result.
    /// The configured root is validated but not used by this family.
    ///
    /// # Panics
    ///
    /// If `m` is outside `1..=3` (the family the differential suite
    /// covers; higher folds exceed what a unit-disk neighborhood can
    /// promise).
    pub fn m(mut self, m: usize) -> Self {
        assert!((1..=3).contains(&m), "m must be in 1..=3, got {m}");
        self.m = m;
        self
    }

    /// Appends the 2-connectivity augmentation pass
    /// ([`crate::fault::biconnect_augment`]) after phase 2, producing a
    /// `(2,m)` backbone that survives any single node failure with
    /// connectivity intact.  Fails with [`CdsError::NotBiconnected`]
    /// when the input graph itself has an unavoidable cut vertex.
    pub fn biconnect(mut self, on: bool) -> Self {
        self.biconnect = on;
        self
    }

    /// Optimizes for total node weight under `scheme` instead of raw
    /// size.  [`WeightScheme::Unit`] (the default) leaves every
    /// algorithm untouched; any other scheme routes both phases through
    /// the weighted constructions of [`crate::fault`] — even at
    /// `m = 1`, where it yields a minimum-weight CDS heuristic — and the
    /// configured [`Algorithm`] then only labels the result, exactly as
    /// [`Solver::m`] above 1 does.
    pub fn weight_scheme(mut self, scheme: WeightScheme) -> Self {
        self.weights = scheme;
        self
    }

    /// The configured algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The configured weight scheme.
    pub fn weights(&self) -> WeightScheme {
        self.weights
    }

    /// Runs the configured construction on `g`.
    ///
    /// # Errors
    ///
    /// * [`CdsError::EmptyGraph`] if `g` has no nodes,
    /// * [`CdsError::InvalidRoot`] if a configured root is out of range,
    /// * [`CdsError::DisconnectedGraph`] if `g` is disconnected,
    /// * any typed verification error when [`Solver::verify`] is on and
    ///   the construction produced an invalid set (a bug, not an input
    ///   condition),
    /// * [`CdsError::Stalled`] if connector selection wedges (likewise
    ///   impossible on valid inputs),
    /// * [`CdsError::NotBiconnected`] if [`Solver::biconnect`] is set
    ///   but the graph's own cut vertices make a 2-connected backbone
    ///   impossible.
    pub fn solve<G: RandomAccessGraph>(&self, g: &G) -> Result<Solution, CdsError> {
        let n = g.num_nodes();
        if n == 0 {
            return Err(CdsError::EmptyGraph);
        }
        if let Some(root) = self.root {
            if root >= n {
                return Err(CdsError::InvalidRoot { root, nodes: n });
            }
        }
        let root = self.root.unwrap_or(0);
        let _solve_span = mcds_obs::span("solve");
        let mut watch = Stopwatch::new();
        let mut timings = PhaseTimings::default();

        let (dominators, mut connectors) = if self.m > 1 || self.weights != WeightScheme::Unit {
            // The fault-tolerant / weighted family: phases route through
            // the generalized m-fold constructions (see `Solver::m` and
            // `Solver::weight_scheme`).
            let pre = mcds_obs::span("solve.precheck");
            if !g.is_connected() {
                return Err(CdsError::DisconnectedGraph);
            }
            drop(pre);
            let weights = self.weights.weights(g);
            let p1 = mcds_obs::span("solve.phase1");
            let doms = fault::weighted_m_fold_dominators(g, &weights, self.m)?;
            timings.phase1 = watch.lap();
            drop(p1);
            let p2 = mcds_obs::span("solve.phase2");
            let conn = fault::weighted_max_gain_connectors(g, &doms, &weights)?;
            timings.phase2 = watch.lap();
            drop(p2);
            (doms, conn)
        } else {
            self.base_phases(g, root, &mut watch, &mut timings)?
        };
        if self.biconnect {
            let a = mcds_obs::span("solve.augment");
            let nodes: Vec<usize> =
                mcds_graph::node_set(dominators.iter().chain(&connectors).copied());
            let augmented = fault::biconnect_augment(g, &nodes)?;
            let dom_mask = mcds_graph::node_mask(n, &dominators);
            connectors = augmented.into_iter().filter(|&v| !dom_mask[v]).collect();
            timings.augment = watch.lap();
            drop(a);
        }
        mcds_obs::counter!("solve.runs");
        mcds_obs::counter!("solve.dominators", dominators.len() as u64);
        mcds_obs::counter!("solve.connectors", connectors.len() as u64);

        let assemble = mcds_obs::span("solve.assemble");
        let mut cds = Cds::new(dominators, connectors);
        drop(assemble);
        if self.verify {
            let v = mcds_obs::span("solve.verify");
            if self.m > 1 || self.biconnect {
                fault::check_m_cds(g, cds.nodes(), self.m)?;
                if self.biconnect {
                    fault::check_biconnected(g, cds.nodes())?;
                }
            } else {
                cds.verify(g)?;
            }
            timings.verify = watch.lap();
            drop(v);
        }
        let mut pruned_from = None;
        if self.prune {
            let p = mcds_obs::span("solve.prune");
            let kept = if self.verify {
                // `solve.verify` ran the checks the prune entries open with.
                prune::prune_valid(g, cds.nodes(), self.m, self.biconnect)
            } else if self.m > 1 || self.biconnect {
                fault::prune_m_cds(g, cds.nodes(), self.m, self.biconnect)?
            } else {
                prune::prune_cds(g, cds.nodes())?
            };
            if kept.len() < cds.len() {
                pruned_from = Some(cds.len());
                mcds_obs::counter!("prune.removed", (cds.len() - kept.len()) as u64);
                let keep = |v: &&usize| kept.binary_search(v).is_ok();
                cds = Cds::new(
                    cds.dominators().iter().filter(keep).copied().collect(),
                    cds.connectors().iter().filter(keep).copied().collect(),
                );
            }
            timings.prune = watch.lap();
            drop(p);
        }

        Ok(Solution {
            algorithm: self.algorithm,
            cds,
            timings,
            pruned_from,
        })
    }

    /// The classic (m = 1) phase pair for the configured algorithm.
    fn base_phases<G: RandomAccessGraph>(
        &self,
        g: &G,
        root: usize,
        watch: &mut Stopwatch,
        timings: &mut PhaseTimings,
    ) -> Result<(Vec<usize>, Vec<usize>), CdsError> {
        Ok(match self.algorithm {
            Algorithm::WafTree => {
                let p1 = mcds_obs::span("solve.phase1");
                let phase1 = BfsMis::compute(g, root);
                if !phase1.tree().spans(g) {
                    return Err(CdsError::DisconnectedGraph);
                }
                let mis = phase1.mis().to_vec();
                timings.phase1 = watch.lap();
                drop(p1);
                let p2 = mcds_obs::span("solve.phase2");
                let connectors = waf::waf_connectors(g, &phase1, root);
                timings.phase2 = watch.lap();
                drop(p2);
                (mis, connectors)
            }
            Algorithm::GreedyConnect => {
                let p1 = mcds_obs::span("solve.phase1");
                let phase1 = BfsMis::compute(g, root);
                if !phase1.tree().spans(g) {
                    return Err(CdsError::DisconnectedGraph);
                }
                let mis = phase1.mis().to_vec();
                timings.phase1 = watch.lap();
                drop(p1);
                let p2 = mcds_obs::span("solve.phase2");
                // The spanning BFS tree above proved `g` connected.
                let connectors =
                    connect::max_gain_connectors_unchecked(g, &mis).map_err(|e| match e {
                        // An MIS of a connected graph can never stall
                        // (Lemma 9); surface any other error as-is.
                        CdsError::Stalled(msg) => {
                            CdsError::Stalled(format!("unexpected on MIS seed: {msg}"))
                        }
                        other => other,
                    })?;
                timings.phase2 = watch.lap();
                drop(p2);
                (mis, connectors)
            }
            Algorithm::ChvatalSetCover => {
                // The connectivity BFS is real work on large graphs;
                // span it so trace coverage accounts for it.
                let pre = mcds_obs::span("solve.precheck");
                if !g.is_connected() {
                    return Err(CdsError::DisconnectedGraph);
                }
                drop(pre);
                let p1 = mcds_obs::span("solve.phase1");
                let ds = setcover::chvatal_dominating_set(g);
                timings.phase1 = watch.lap();
                drop(p1);
                let p2 = mcds_obs::span("solve.phase2");
                let connectors = connect::path_connectors_unchecked(g, &ds);
                timings.phase2 = watch.lap();
                drop(p2);
                (ds, connectors)
            }
            Algorithm::ArbitraryMis => {
                let pre = mcds_obs::span("solve.precheck");
                if !g.is_connected() {
                    return Err(CdsError::DisconnectedGraph);
                }
                drop(pre);
                let p1 = mcds_obs::span("solve.phase1");
                let mis = variants::lexicographic_mis(g);
                timings.phase1 = watch.lap();
                drop(p1);
                let p2 = mcds_obs::span("solve.phase2");
                let connectors = connect::max_gain_then_paths_unchecked(g, &mis)?;
                timings.phase2 = watch.lap();
                drop(p2);
                (mis, connectors)
            }
            Algorithm::GreedyGrowth => {
                let pre = mcds_obs::span("solve.precheck");
                if !g.is_connected() {
                    return Err(CdsError::DisconnectedGraph);
                }
                drop(pre);
                // Single-phase: the whole grown set counts as phase 1.
                let p1 = mcds_obs::span("solve.phase1");
                let set = growth::grow(g);
                timings.phase1 = watch.lap();
                drop(p1);
                (set, Vec::new())
            }
        })
    }
}

/// The outcome of a [`Solver`] run: the [`Cds`] plus its provenance
/// (algorithm, per-phase timings, pruning effect, proven ratio bound).
///
/// It has no `PartialEq`: two solves of one input differ in their wall
/// times.  Compare [`Solution::cds`] instead.
#[derive(Debug, Clone)]
pub struct Solution {
    algorithm: Algorithm,
    cds: Cds,
    timings: PhaseTimings,
    pruned_from: Option<usize>,
}

impl Solution {
    /// The algorithm that produced this solution.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The constructed CDS with its phase roles.
    pub fn cds(&self) -> &Cds {
        &self.cds
    }

    /// All CDS nodes (sorted); shorthand for `self.cds().nodes()`.
    pub fn nodes(&self) -> &[usize] {
        self.cds.nodes()
    }

    /// Total CDS size.
    pub fn len(&self) -> usize {
        self.cds.len()
    }

    /// Returns `true` if the CDS has no nodes.
    pub fn is_empty(&self) -> bool {
        self.cds.is_empty()
    }

    /// Per-phase wall-clock accounting.
    pub fn timings(&self) -> &PhaseTimings {
        &self.timings
    }

    /// Folds the caller's instance-construction time into
    /// [`PhaseTimings::build`] (the solver never sees graph generation).
    pub fn set_build_time(&mut self, build: Duration) {
        self.timings.build = build;
    }

    /// Pre-pruning CDS size, if pruning was enabled and removed nodes.
    pub fn pruned_from(&self) -> Option<usize> {
        self.pruned_from
    }

    /// The proven approximation-ratio bound for this algorithm on unit-
    /// disk graphs, if a constant one is known (Theorems 8 and 10).
    pub fn ratio_bound(&self) -> Option<f64> {
        self.algorithm.ratio_bound()
    }

    /// Consumes the solution, keeping only the CDS.
    pub fn into_cds(self) -> Cds {
        self.cds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::WeightScheme;
    use mcds_graph::{properties, Graph};

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

    /// P12, C10, `gnarly` and a seeded 60-node connected UDG.
    fn root_battery() -> Vec<Graph> {
        use mcds_rng::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(60);
        let udg = mcds_udg::gen::connected_uniform(&mut rng, 60, 4.0, 100)
            .expect("dense deployments are connected");
        assert_eq!(udg.len(), 60);
        vec![
            Graph::path(12),
            Graph::cycle(10),
            gnarly(),
            udg.graph().clone(),
        ]
    }

    #[test]
    fn every_algorithm_at_every_root() {
        let root_blind = [
            Algorithm::ChvatalSetCover,
            Algorithm::ArbitraryMis,
            Algorithm::GreedyGrowth,
        ];
        for g in root_battery() {
            let n = g.num_nodes();
            for alg in Algorithm::ALL {
                let at_zero = Solver::new(alg).solve(&g).unwrap();
                let family_at_zero = Solver::new(alg).m(2).solve(&g).unwrap();
                for root in 0..n {
                    let sol = Solver::new(alg).root(root).solve(&g).unwrap();
                    assert_eq!(sol.algorithm(), alg);
                    sol.cds()
                        .verify(&g)
                        .unwrap_or_else(|e| panic!("{alg} root {root} n {n}: {e}"));
                    if root_blind.contains(&alg) {
                        assert_eq!(sol.cds(), at_zero.cds(), "{alg} root {root} n {n}");
                    }
                    let family = Solver::new(alg).m(2).root(root).solve(&g).unwrap();
                    assert!(crate::fault::check_m_cds(&g, family.nodes(), 2).is_ok());
                    assert_eq!(family.cds(), family_at_zero.cds(), "{alg} m=2 root {root}");
                }
            }
        }
    }

    #[test]
    fn greedy_errors_on_bad_inputs() {
        let solver = Solver::new(Algorithm::GreedyConnect);
        assert_eq!(
            solver.solve(&Graph::empty(0)).err(),
            Some(CdsError::EmptyGraph)
        );
        let split = Graph::from_edges(4, [(0, 1), (2, 3)]);
        assert_eq!(
            solver.solve(&split).err(),
            Some(CdsError::DisconnectedGraph)
        );
    }

    #[test]
    fn greedy_valid_on_named_families() {
        let graphs = [
            Graph::empty(1),
            Graph::path(2),
            Graph::path(15),
            Graph::cycle(13),
            Graph::star(9),
            Graph::complete(6),
        ];
        for g in &graphs {
            let sol = Solver::new(Algorithm::GreedyConnect).solve(g).unwrap();
            let cds = sol.cds();
            cds.verify(g).unwrap_or_else(|e| panic!("{g:?}: {e}"));
            assert!(
                properties::is_maximal_independent_set(g, cds.dominators()),
                "{g:?}"
            );
        }
    }

    #[test]
    fn greedy_never_larger_than_waf_with_same_root() {
        // Both algorithms share phase 1; greedy's phase 2 is at least as
        // economical on these families (not a theorem in general, but a
        // strong regularity the paper's Section IV motivates).
        let chorded = Graph::from_edges(
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
                (0, 6),
                (3, 9),
            ],
        );
        for g in [Graph::path(20), Graph::cycle(17), chorded] {
            let waf = Solver::new(Algorithm::WafTree).solve(&g).unwrap();
            let greedy = Solver::new(Algorithm::GreedyConnect).solve(&g).unwrap();
            assert!(
                greedy.len() <= waf.len(),
                "{g:?}: greedy {} > waf {}",
                greedy.len(),
                waf.len()
            );
        }
    }

    #[test]
    fn greedy_every_root_is_valid() {
        let g = Graph::cycle(10);
        for root in 0..10 {
            let sol = Solver::new(Algorithm::GreedyConnect)
                .root(root)
                .solve(&g)
                .unwrap();
            sol.cds()
                .verify(&g)
                .unwrap_or_else(|e| panic!("root {root}: {e}"));
        }
    }

    #[test]
    fn greedy_connector_gains_all_positive() {
        let g = Graph::path(25);
        let sol = Solver::new(Algorithm::GreedyConnect).solve(&g).unwrap();
        let cds = sol.cds();
        // Recompute the selection sequence (Cds stores connectors sorted).
        let seq = connect::max_gain_connectors(&g, cds.dominators()).unwrap();
        let trace = connect::gain_trace(&g, cds.dominators(), &seq);
        assert!(trace.iter().all(|&t| t >= 1));
        assert_eq!(
            mcds_graph::node_set(seq),
            cds.connectors().to_vec(),
            "sorted selection sequence must equal the stored connectors"
        );
    }

    #[test]
    fn typed_input_errors() {
        assert_eq!(
            Solver::new(Algorithm::WafTree)
                .solve(&Graph::empty(0))
                .err(),
            Some(CdsError::EmptyGraph)
        );
        for alg in [Algorithm::GreedyConnect, Algorithm::WafTree] {
            assert_eq!(
                Solver::new(alg).root(7).solve(&Graph::path(3)).err(),
                Some(CdsError::InvalidRoot { root: 7, nodes: 3 })
            );
        }
        // Baselines validate the root too, even though they ignore it.
        assert_eq!(
            Solver::new(Algorithm::GreedyGrowth)
                .root(99)
                .solve(&Graph::path(3))
                .err(),
            Some(CdsError::InvalidRoot { root: 99, nodes: 3 })
        );
        let split = Graph::from_edges(4, [(0, 1), (2, 3)]);
        for alg in Algorithm::ALL {
            assert_eq!(
                Solver::new(alg).solve(&split).err(),
                Some(CdsError::DisconnectedGraph),
                "{alg}"
            );
        }
    }

    #[test]
    fn verify_and_prune_flags() {
        let g = Graph::cycle(15);
        for alg in Algorithm::ALL {
            let sol = Solver::new(alg).verify(true).prune(true).solve(&g).unwrap();
            assert!(properties::is_connected_dominating_set(&g, sol.nodes()));
            if let Some(before) = sol.pruned_from() {
                assert!(sol.len() < before, "{alg}");
            }
            // Pruned roles stay a partition of the pruned set.
            let rebuilt: Vec<usize> = mcds_graph::node_set(
                sol.cds()
                    .dominators()
                    .iter()
                    .chain(sol.cds().connectors())
                    .copied(),
            );
            assert_eq!(rebuilt, sol.nodes(), "{alg}");
        }
    }

    #[test]
    fn every_solve_fills_its_timings() {
        // Large enough that every stage outlasts a clock tick.
        let g = Graph::cycle(400);
        let timed = Solver::new(Algorithm::GreedyConnect)
            .verify(true)
            .solve(&g)
            .unwrap();
        let t = *timed.timings();
        // The two phases and the verification ran, so each lapped the
        // clock; the skipped stages stay zero.
        assert!(t.phase1 > Duration::ZERO, "{t:?}");
        assert!(t.phase2 > Duration::ZERO, "{t:?}");
        assert!(t.verify > Duration::ZERO, "{t:?}");
        assert_eq!(
            (t.build, t.augment, t.prune),
            (Duration::ZERO, Duration::ZERO, Duration::ZERO)
        );
        assert_eq!(t.total(), t.phase1 + t.phase2 + t.verify);
        let mut s = timed.clone();
        s.set_build_time(Duration::from_millis(3));
        assert_eq!(s.timings().build, Duration::from_millis(3));
        assert!(s.timings().total() >= Duration::from_millis(3));
    }

    #[test]
    fn ratio_bound_flows_from_algorithm() {
        let g = Graph::path(9);
        let sol = Solver::new(Algorithm::WafTree).solve(&g).unwrap();
        assert_eq!(sol.ratio_bound(), Algorithm::WafTree.ratio_bound());
        let sol = Solver::new(Algorithm::GreedyGrowth).solve(&g).unwrap();
        assert_eq!(sol.ratio_bound(), None);
    }

    #[test]
    fn fault_tolerant_family_through_the_builder() {
        let g = gnarly();
        for m in 1..=3 {
            for biconnect in [false, true] {
                let sol = Solver::new(Algorithm::GreedyConnect)
                    .m(m)
                    .biconnect(biconnect)
                    .verify(true)
                    .prune(true)
                    .solve(&g)
                    .unwrap();
                assert!(
                    crate::fault::check_m_cds(&g, sol.nodes(), m).is_ok(),
                    "m={m} biconnect={biconnect}"
                );
                if biconnect {
                    assert!(
                        crate::fault::check_biconnected(&g, sol.nodes()).is_ok(),
                        "m={m}"
                    );
                }
                // Roles stay a partition after m-aware pruning.
                let rebuilt: Vec<usize> = mcds_graph::node_set(
                    sol.cds()
                        .dominators()
                        .iter()
                        .chain(sol.cds().connectors())
                        .copied(),
                );
                assert_eq!(rebuilt, sol.nodes(), "m={m} biconnect={biconnect}");
            }
        }
        // The m = 1, no-augmentation configuration must stay bit-identical
        // to the classic path (the determinism contract).
        let classic = Solver::new(Algorithm::GreedyConnect).solve(&g).unwrap();
        let via_m = Solver::new(Algorithm::GreedyConnect)
            .m(1)
            .solve(&g)
            .unwrap();
        assert_eq!(classic.cds(), via_m.cds());
    }

    #[test]
    fn weighted_solves_are_valid_and_deterministic() {
        let g = gnarly();
        for scheme in [
            WeightScheme::Unit,
            WeightScheme::Degree,
            WeightScheme::Random(42),
        ] {
            for m in 1..=2 {
                let a = Solver::new(Algorithm::GreedyConnect)
                    .m(m)
                    .weight_scheme(scheme)
                    .verify(true)
                    .solve(&g)
                    .unwrap();
                let b = Solver::new(Algorithm::GreedyConnect)
                    .m(m)
                    .weight_scheme(scheme)
                    .verify(true)
                    .solve(&g)
                    .unwrap();
                assert_eq!(a.cds(), b.cds(), "{scheme:?} m={m}");
                assert!(properties::is_connected_dominating_set(&g, a.nodes()));
            }
        }
        // Unit weights must not perturb the classic m = 1 path.
        let classic = Solver::new(Algorithm::GreedyConnect).solve(&g).unwrap();
        let unit = Solver::new(Algorithm::GreedyConnect)
            .weight_scheme(WeightScheme::Unit)
            .solve(&g)
            .unwrap();
        assert_eq!(classic.cds(), unit.cds());
    }

    #[test]
    fn weight_scheme_vectors_and_totals() {
        let g = gnarly();
        let n = g.num_nodes();
        assert_eq!(WeightScheme::Unit.weights(&g), vec![1; n]);
        let deg = WeightScheme::Degree.weights(&g);
        assert!((0..n).all(|v| deg[v] == g.degree(v) as u64 + 1));
        let r1 = WeightScheme::Random(7).weights(&g);
        assert_eq!(r1, WeightScheme::Random(7).weights(&g));
        assert_ne!(r1, WeightScheme::Random(8).weights(&g));
        assert!(r1.iter().all(|&w| (1..=16).contains(&w)));
        assert_eq!(WeightScheme::Unit.total(&g, &[0, 3, 5]), 3);
        assert_eq!(
            WeightScheme::parse("degree", 0).unwrap(),
            WeightScheme::Degree
        );
        assert_eq!(
            WeightScheme::parse("random", 5).unwrap(),
            WeightScheme::Random(5)
        );
        assert!(WeightScheme::parse("bogus", 0).is_err());
    }

    #[test]
    fn biconnect_fails_typed_on_graphs_with_cut_vertices() {
        // Every backbone of a path must cross its interior cut vertices.
        let g = Graph::path(8);
        let err = Solver::new(Algorithm::GreedyConnect)
            .biconnect(true)
            .solve(&g)
            .unwrap_err();
        assert!(matches!(err, CdsError::NotBiconnected { .. }), "{err:?}");
    }

    #[test]
    #[should_panic(expected = "m must be in 1..=3")]
    fn out_of_family_m_panics() {
        let _ = Solver::new(Algorithm::WafTree).m(4);
    }

    #[test]
    fn pruning_whole_vertex_set_keeps_roles_consistent() {
        // A case where pruning definitely removes nodes: run the chvatal
        // baseline on a path, whose set-cover dominators + path connectors
        // can carry slack.
        let g = Graph::path(30);
        let sol = Solver::new(Algorithm::ChvatalSetCover)
            .prune(true)
            .solve(&g)
            .unwrap();
        assert!(properties::is_connected_dominating_set(&g, sol.nodes()));
    }
}
