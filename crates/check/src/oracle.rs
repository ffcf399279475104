//! The differential oracle: random small UDGs solved exactly and
//! checked against every approximation algorithm.
//!
//! The paper's guarantees are *relative* to the exact optimum `γ_c`:
//! Theorem 8 bounds the WAF construction by `7⅓·γ_c` and Theorem 10
//! bounds the new greedy-connector construction by `6 7/18·γ_c`.  On
//! instances small enough for [`mcds_exact::brute`] those right-hand
//! sides are computable, so the bounds become machine-checkable
//! properties rather than plotted trends.  One oracle case checks, on
//! the giant component of a random deployment:
//!
//! * the brute-force optimum agrees with the branch & bound solver
//!   (differential check *inside* `mcds-exact`),
//! * every [`Algorithm`] produces a verified CDS no smaller than the
//!   optimum,
//! * the WAF and greedy-connector sizes respect Theorems 8 and 10,
//! * the first-fit MIS is no larger than the exact independence number,
//!   which itself respects Corollary 7 (`α ≤ 11/3·γ_c + 1`),
//! * pruning is idempotent and validity-preserving.

use mcds_cds::{prune, Algorithm, Solver};
use mcds_exact::brute;
use mcds_geom::Point;
use mcds_graph::{properties, traversal::largest_component, Graph};
use mcds_mis::{bounds, BfsMis};
use mcds_rng::rngs::StdRng;
use mcds_rng::Rng;
use mcds_udg::{gen as deploy, Udg};

use crate::gen::Gen;
use crate::runner::TestResult;

/// Hard cap on oracle instance size: beyond this the exact solvers stop
/// being "obviously correct references" on a test budget.
pub const MAX_ORACLE_NODES: usize = 18;

/// Node count up to which the `O(2ⁿ)` brute solver is also run and
/// cross-checked against branch & bound.
pub const MAX_BRUTE_NODES: usize = 16;

/// The deployment families the differential suite draws from — the same
/// three regimes the experiment harness sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// Uniform in a square: the literature's standard setup.
    Uniform,
    /// Clustered hotspots: small MISs, stresses connector selection.
    Clustered,
    /// Long thin corridor: large diameter, stresses `γ_c` and the chain
    /// worst cases.
    Corridor,
}

impl Deployment {
    /// All deployment families, in generation order.
    pub const ALL: [Deployment; 3] = [
        Deployment::Uniform,
        Deployment::Clustered,
        Deployment::Corridor,
    ];
}

/// One differential-oracle input: a deployment family and its points.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleCase {
    /// The family the points were drawn from (kept through shrinking,
    /// so a shrunk counterexample still names its regime).
    pub kind: Deployment,
    /// The deployed points; the oracle works on the giant component of
    /// their unit-disk graph.
    pub points: Vec<Point>,
}

/// Generator of [`OracleCase`]s with at most `max_n` points
/// (`max_n ≤ 18`); shrinks by dropping points.
#[derive(Debug, Clone)]
pub struct OracleGen {
    max_n: usize,
}

/// Oracle cases over all three deployment families with `4..=max_n`
/// points.
///
/// # Panics
///
/// Panics if `max_n` exceeds [`MAX_ORACLE_NODES`] or is below 4.
pub fn oracle_cases(max_n: usize) -> OracleGen {
    assert!(
        (4..=MAX_ORACLE_NODES).contains(&max_n),
        "oracle instances need 4..=18 points, got {max_n}"
    );
    OracleGen { max_n }
}

impl Gen for OracleGen {
    type Value = OracleCase;

    fn generate(&self, rng: &mut StdRng) -> OracleCase {
        let n = rng.gen_range(4..=self.max_n);
        let kind = Deployment::ALL[rng.gen_range(0..Deployment::ALL.len())];
        let points = match kind {
            Deployment::Uniform => {
                let side = rng.gen_range(1.5..=3.5);
                deploy::uniform_in_square(rng, n, side)
            }
            Deployment::Clustered => {
                let clusters = rng.gen_range(1..=3usize).min(n);
                let per = n.div_ceil(clusters);
                let mut pts = deploy::clustered(rng, clusters, per, 3.0, 0.8);
                pts.truncate(n);
                pts
            }
            Deployment::Corridor => {
                let length = rng.gen_range(3.0..=6.0);
                deploy::corridor(rng, n, length, 1.0)
            }
        };
        OracleCase { kind, points }
    }

    fn shrink(&self, value: &OracleCase) -> Vec<OracleCase> {
        let pts = &value.points;
        let mut out = Vec::new();
        if pts.len() > 2 {
            out.push(OracleCase {
                kind: value.kind,
                points: pts[..pts.len() / 2].to_vec(),
            });
            for i in 0..pts.len() {
                let mut smaller = pts.clone();
                smaller.remove(i);
                out.push(OracleCase {
                    kind: value.kind,
                    points: smaller,
                });
            }
        }
        out
    }
}

/// The exact connected domination number of `g`, brute-forced when
/// small enough and cross-checked against branch & bound.
///
/// # Errors
///
/// Returns a message when the two exact solvers disagree or the brute
/// optimum fails the CDS predicates — either is a solver bug.
pub fn exact_gamma_c(g: &Graph) -> Result<usize, String> {
    let bnb = mcds_exact::min_connected_dominating_set(g)
        .ok_or("branch & bound found no CDS on a connected graph")?;
    if !properties::is_connected_dominating_set(g, &bnb) {
        return Err(format!("branch & bound optimum {bnb:?} is not a CDS"));
    }
    if g.num_nodes() <= MAX_BRUTE_NODES {
        let brute = brute::min_connected_dominating_set_brute(g)
            .ok_or("brute force found no CDS on a connected graph")?;
        if !properties::is_connected_dominating_set(g, &brute) {
            return Err(format!("brute optimum {brute:?} is not a CDS"));
        }
        if brute.len() != bnb.len() {
            return Err(format!(
                "exact solvers disagree: brute γ_c = {}, branch & bound γ_c = {}",
                brute.len(),
                bnb.len()
            ));
        }
    }
    Ok(bnb.len())
}

/// The paper's size bound for `alg` at the given optimum, if one is
/// proven (Theorems 8 and 10).
pub fn size_bound(alg: Algorithm, gamma_c: usize) -> Option<f64> {
    match alg {
        Algorithm::WafTree => Some(bounds::waf_size_bound(gamma_c)),
        Algorithm::GreedyConnect => Some(bounds::greedy_size_bound(gamma_c)),
        _ => None,
    }
}

/// Runs the full differential check on one [`OracleCase`].
///
/// Returns [`TestResult::Discard`] when the giant component has fewer
/// than 2 nodes (no meaningful CDS instance), [`TestResult::Fail`] on
/// the first violated invariant, and [`TestResult::Pass`] otherwise.
pub fn check_oracle_case(case: &OracleCase) -> TestResult {
    let udg = Udg::build(case.points.clone());
    let giant = largest_component(udg.graph());
    if giant.len() < 2 {
        return TestResult::Discard;
    }
    let sub = udg.restricted_to(&giant);
    let g = sub.graph();
    debug_assert!(g.is_connected());

    let gamma_c = match exact_gamma_c(g) {
        Ok(v) => v,
        Err(e) => return TestResult::Fail(format!("{:?}: {e}", case.kind)),
    };

    // Corollary 7 against the exact independence number, and the
    // first-fit MIS against α.
    let alpha = mcds_exact::independence_number(g);
    let alpha_bound = bounds::alpha_upper_bound(gamma_c);
    if alpha as f64 > alpha_bound + 1e-9 {
        return TestResult::Fail(format!(
            "{:?}: Corollary 7 violated: α = {alpha} > 11/3·{gamma_c} + 1 = {alpha_bound}",
            case.kind
        ));
    }
    let mis = BfsMis::compute(g, 0);
    if mis.len() > alpha {
        return TestResult::Fail(format!(
            "{:?}: first-fit MIS of {} nodes exceeds α = {alpha}",
            case.kind,
            mis.len()
        ));
    }

    for alg in Algorithm::ALL {
        let cds = match Solver::new(alg).solve(g) {
            Ok(solution) => solution.into_cds(),
            Err(e) => {
                return TestResult::Fail(format!(
                    "{:?}: {alg} errored on a connected instance: {e}",
                    case.kind
                ))
            }
        };
        if let Err(e) = cds.verify(g) {
            return TestResult::Fail(format!(
                "{:?}: {alg} produced an invalid CDS: {e}",
                case.kind
            ));
        }
        if cds.len() < gamma_c {
            return TestResult::Fail(format!(
                "{:?}: {alg} \"beat\" the exact optimum ({} < γ_c = {gamma_c}) — an exact-solver bug",
                case.kind,
                cds.len()
            ));
        }
        if let Some(bound) = size_bound(alg, gamma_c) {
            if cds.len() as f64 > bound + 1e-9 {
                return TestResult::Fail(format!(
                    "{:?}: {alg} ratio bound violated: |CDS| = {} > {bound} (γ_c = {gamma_c})",
                    case.kind,
                    cds.len()
                ));
            }
        }

        // Pruning: validity-preserving and idempotent.
        let once = match prune::prune_cds(g, cds.nodes()) {
            Ok(set) => set,
            Err(e) => return TestResult::Fail(format!("{:?}: {alg} prune failed: {e}", case.kind)),
        };
        if !properties::is_connected_dominating_set(g, &once) {
            return TestResult::Fail(format!(
                "{:?}: {alg} pruned set is not a CDS: {once:?}",
                case.kind
            ));
        }
        let twice = match prune::prune_cds(g, &once) {
            Ok(set) => set,
            Err(e) => {
                return TestResult::Fail(format!("{:?}: {alg} re-prune failed: {e}", case.kind))
            }
        };
        if twice != once {
            return TestResult::Fail(format!(
                "{:?}: {alg} pruning not idempotent: {once:?} -> {twice:?}",
                case.kind
            ));
        }
        if once.len() < gamma_c {
            return TestResult::Fail(format!(
                "{:?}: {alg} pruned below the optimum ({} < {gamma_c})",
                case.kind,
                once.len()
            ));
        }
    }
    TestResult::Pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_rng::SeedableRng;

    #[test]
    fn oracle_cases_respect_the_node_cap() {
        let gen = oracle_cases(12);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let case = gen.generate(&mut rng);
            assert!((4..=12).contains(&case.points.len()));
        }
    }

    #[test]
    fn all_deployment_kinds_are_generated() {
        let gen = oracle_cases(10);
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 3];
        for _ in 0..100 {
            let case = gen.generate(&mut rng);
            seen[Deployment::ALL
                .iter()
                .position(|&k| k == case.kind)
                .unwrap()] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn shrinking_preserves_kind_and_drops_points() {
        let gen = oracle_cases(14);
        let mut rng = StdRng::seed_from_u64(3);
        let case = gen.generate(&mut rng);
        for cand in gen.shrink(&case) {
            assert_eq!(cand.kind, case.kind);
            assert!(cand.points.len() < case.points.len());
        }
    }

    #[test]
    fn exact_gamma_c_matches_known_families() {
        assert_eq!(exact_gamma_c(&Graph::path(6)).unwrap(), 4);
        assert_eq!(exact_gamma_c(&Graph::star(7)).unwrap(), 1);
        assert_eq!(exact_gamma_c(&Graph::cycle(9)).unwrap(), 7);
    }

    #[test]
    fn size_bounds_exist_exactly_for_the_two_phased_theorems() {
        assert_eq!(size_bound(Algorithm::WafTree, 3), Some(22.0));
        let greedy = size_bound(Algorithm::GreedyConnect, 18).unwrap();
        assert!((greedy - 115.0).abs() < 1e-9);
        assert_eq!(size_bound(Algorithm::GreedyGrowth, 3), None);
        assert_eq!(size_bound(Algorithm::ChvatalSetCover, 3), None);
    }

    #[test]
    fn oracle_accepts_a_healthy_instance_and_discards_dust() {
        let gen = oracle_cases(12);
        let mut rng = StdRng::seed_from_u64(4);
        let mut passes = 0;
        for _ in 0..20 {
            if check_oracle_case(&gen.generate(&mut rng)) == TestResult::Pass {
                passes += 1;
            }
        }
        assert!(passes > 0, "no oracle case passed");
        // Two far-apart points: giant component of size 1 -> discard.
        let dust = OracleCase {
            kind: Deployment::Uniform,
            points: vec![Point::new(0.0, 0.0), Point::new(50.0, 50.0)],
        };
        assert_eq!(check_oracle_case(&dust), TestResult::Discard);
    }
}
