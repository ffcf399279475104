//! Shared sweep machinery for the ratio experiments (E3–E6).
//!
//! All per-trial fan-out goes through the process-wide worker pool
//! ([`mcds_pool::global`], sized by `--threads`).  Trials are
//! embarrassingly parallel, each instance draws from its own split RNG
//! stream ([`mcds_rng::split_seed`]), and [`mcds_pool::ThreadPool::
//! parallel_map`] returns results in input order — so every number a
//! sweep reports is bit-identical at any pool width.

use std::time::{Duration, Instant};

use mcds_cds::{Algorithm, PhaseTimings, Solution, Solver, WeightScheme};
use mcds_exact::try_min_connected_dominating_set;
use mcds_graph::{traversal, Graph};
use mcds_mis::{bounds, BfsMis};
use mcds_rng::rngs::StdRng;
use mcds_rng::SeedableRng;
use mcds_udg::{gen, Udg};

/// One (n, side) cell of a sweep grid.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Number of nodes per instance.
    pub n: usize,
    /// Side of the deployment square (radius is 1).
    pub side: f64,
    /// Instances to sample.
    pub instances: usize,
}

/// The exact-`γ_c` ladder of E3–E5: density cells small enough for the
/// exact branch and bound.  E16 runs its middle five cells.
pub const EXACT_LADDER: [Cell; 7] = [
    Cell {
        n: 12,
        side: 1.5,
        instances: 40,
    },
    Cell {
        n: 16,
        side: 2.0,
        instances: 40,
    },
    Cell {
        n: 20,
        side: 2.5,
        instances: 40,
    },
    Cell {
        n: 24,
        side: 3.0,
        instances: 30,
    },
    Cell {
        n: 28,
        side: 3.0,
        instances: 30,
    },
    Cell {
        n: 32,
        side: 3.5,
        instances: 20,
    },
    Cell {
        n: 40,
        side: 4.0,
        instances: 12,
    },
];

/// [`EXACT_LADDER`], or for `--quick` its n = 16 and n = 24 cells with
/// 6 and 4 instances.
pub fn exact_ladder(quick: bool) -> Vec<Cell> {
    if quick {
        vec![
            Cell {
                instances: 6,
                ..EXACT_LADDER[1]
            },
            Cell {
                instances: 4,
                ..EXACT_LADDER[3]
            },
        ]
    } else {
        EXACT_LADDER.to_vec()
    }
}

impl Cell {
    /// The cell's RNG stream family: one master seed per cell, split
    /// into one independent stream per instance index.
    fn cell_seed(&self, seed: u64) -> u64 {
        seed ^ (self.n as u64) << 20 ^ self.side.to_bits()
    }
}

/// Generates `cell.instances` connected UDG instances for a cell,
/// deterministically from `seed` (falls back to giant components when
/// full connectivity is too rare).
///
/// Instance `i` draws from RNG stream `i` of the cell's master seed, so
/// trials are independent of each other and of the pool width; the
/// returned vector is identical for any `--threads` value.
pub fn instances(cell: Cell, seed: u64) -> Vec<Udg> {
    let pool = mcds_pool::global::pool();
    pool.parallel_map((0..cell.instances).collect(), |_, i| {
        instance(cell, seed, i)
    })
}

/// Generates instance `i` of the cell (RNG stream `i` of the cell's
/// master seed) — the building block for binaries that fan out their own
/// per-trial work.
pub fn instance(cell: Cell, seed: u64, i: usize) -> Udg {
    let mut rng = StdRng::from_stream(cell.cell_seed(seed), i as u64);
    match gen::connected_uniform(&mut rng, cell.n, cell.side, 30) {
        Some(u) => u,
        None => gen::giant_component_instance(&mut rng, cell.n, cell.side),
    }
}

/// One algorithm run on one instance with full phase accounting:
/// generation (`build`), MIS/dominators (`phase1`), connectors
/// (`phase2`), and verification wall time.
#[derive(Debug, Clone)]
pub struct Trial {
    /// The solved instance's node count.
    pub n: usize,
    /// The solution, including [`PhaseTimings`].
    pub solution: Solution,
}

/// Generates the cell's instances and solves each with `alg`, fanning
/// trials over the worker pool: each trial solves with
/// `.m(m).biconnect(biconnect).weight_scheme(weights)`.  Timings are
/// measured per trial (`gen`/`mis`/`connect`/`augment`/`verify` map to
/// [`PhaseTimings`]'s `build`/`phase1`/`phase2`/`augment`/`verify`);
/// sizes are deterministic, wall times of course are not.  With `m = 1`,
/// `biconnect` off and unit weights (the builder defaults) each trial is
/// the classic two-phase solve.
///
/// Instances the family cannot harden — `biconnect` requested but the
/// instance has a cut vertex no augmentation can bypass — are skipped,
/// so the returned vector may be shorter than `cell.instances`.
pub fn timed_family_trials(
    alg: Algorithm,
    cell: Cell,
    seed: u64,
    m: usize,
    biconnect: bool,
    weights: WeightScheme,
) -> Vec<Trial> {
    let pool = mcds_pool::global::pool();
    pool.parallel_map((0..cell.instances).collect(), |_, i| {
        let gen_start = Instant::now();
        let udg = instance(cell, seed, i);
        let gen_time = gen_start.elapsed();
        match Solver::new(alg)
            .verify(true)
            .m(m)
            .biconnect(biconnect)
            .weight_scheme(weights)
            .solve(udg.graph())
        {
            Ok(mut solution) => {
                solution.set_build_time(gen_time);
                Some(Trial {
                    n: udg.len(),
                    solution,
                })
            }
            Err(e) if biconnect => {
                debug_assert!(
                    matches!(e, mcds_cds::CdsError::NotBiconnected { .. }),
                    "unexpected family failure: {e}"
                );
                None
            }
            Err(e) => panic!("connected instance failed to solve: {e}"),
        }
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Mean per-phase timings over a set of trials (zeros for no trials).
pub fn mean_timings(trials: &[Trial]) -> PhaseTimings {
    let k = trials.len().max(1) as u32;
    let mut sum = PhaseTimings::default();
    for t in trials {
        let pt = t.solution.timings();
        sum.build += pt.build;
        sum.phase1 += pt.phase1;
        sum.phase2 += pt.phase2;
        sum.augment += pt.augment;
        sum.verify += pt.verify;
        sum.prune += pt.prune;
    }
    PhaseTimings {
        build: sum.build / k,
        phase1: sum.phase1 / k,
        phase2: sum.phase2 / k,
        augment: sum.augment / k,
        verify: sum.verify / k,
        prune: sum.prune / k,
    }
}

/// `Duration` as fractional milliseconds with 3 decimals (CSV/table
/// convention for the timing artifacts).
pub fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Result of measuring one algorithm against the exact optimum on one
/// instance.
#[derive(Debug, Clone, Copy)]
pub struct RatioSample {
    /// CDS size produced by the algorithm.
    pub cds_size: usize,
    /// Exact `γ_c`.
    pub gamma_c: usize,
    /// `cds_size / γ_c`.
    pub ratio: f64,
}

/// Runs `alg` on the instance and divides by the *exact* `γ_c` (budgeted
/// solver).  Returns `None` when the exact solver exhausts `budget` or
/// the instance degenerated to a single node.
pub fn ratio_against_exact(alg: Algorithm, udg: &Udg, budget: u64) -> Option<RatioSample> {
    let g = udg.graph();
    if g.num_nodes() < 2 {
        return None;
    }
    let cds = Solver::new(alg).solve(g).ok()?.into_cds();
    debug_assert!(cds.verify(g).is_ok());
    let opt = try_min_connected_dominating_set(g, budget).ok()??;
    let gamma_c = opt.len().max(1);
    Some(RatioSample {
        cds_size: cds.len(),
        gamma_c,
        ratio: cds.len() as f64 / gamma_c as f64,
    })
}

/// A certified lower bound on `γ_c` for instances beyond exact-`γ_c`
/// reach: `max(diam − 1, ⌈3(α̂ − 1)/11⌉)`, where `α̂` is the exact
/// independence number when a modest branch & bound budget suffices
/// (instances up to ~200 nodes), and the first-fit MIS size (itself a
/// lower bound on `α`) otherwise.  Valid on unit-disk graphs (the second
/// term inverts Corollary 7).
pub fn gamma_c_lower_bound(g: &Graph) -> usize {
    let diam_lb = traversal::diameter(g)
        .map(bounds::gamma_lower_bound_from_diameter)
        .unwrap_or(0);
    // The exact search solves sparse UDGs up to its 128-node cap in
    // milliseconds; beyond that, fall back to the first-fit MIS size
    // (still a valid lower bound on α).
    let alpha_hat = if g.num_nodes() <= 128 {
        mcds_exact::try_max_independent_set(g, 1_000_000)
            .map(|s| s.len())
            .unwrap_or_else(|| BfsMis::compute(g, 0).len())
    } else {
        BfsMis::compute(g, 0).len()
    };
    let alpha_lb = bounds::gamma_lower_bound_from_alpha(alpha_hat);
    diam_lb.max(alpha_lb).max(1)
}

/// The shared body of the Theorem-8/Theorem-10 ratio experiments (E4 and
/// E5): sweeps density cells, measures `|CDS|/γ_c` against the exact
/// optimum, prints the table, and exits nonzero if the paper's proven
/// bound was ever violated.
pub fn run_ratio_experiment(alg: Algorithm, bound: f64, theorem: &str, cfg: &crate::ExpConfig) {
    use crate::{f2, f3, stats, Table};

    let cells = exact_ladder(cfg.quick);

    println!(
        "{}: |CDS({})| / gamma_c on random connected UDGs (exact optimum)\n",
        theorem,
        alg.name()
    );
    let mut table = Table::new(&[
        "n",
        "side",
        "solved",
        "mean |CDS|",
        "mean gc",
        "mean ratio",
        "max ratio",
        "bound",
        "violations",
    ]);
    let mut csv = cfg.csv(&format!("exp_{}_ratio", alg.name()));
    if let Some(w) = csv.as_mut() {
        w.row(&[
            "n",
            "side",
            "solved",
            "mean_cds",
            "mean_gamma_c",
            "mean_ratio",
            "max_ratio",
            "violations",
        ]);
    }

    let mut violations = 0usize;
    let pool = mcds_pool::global::pool();
    for cell in cells {
        // The exact solver dominates each trial; fan trials over the
        // pool (results come back in input order, so the aggregation —
        // and the CSV — is independent of the width).
        let samples = pool.parallel_map(instances(cell, cfg.seed), |_, udg| {
            ratio_against_exact(alg, &udg, mcds_exact::DEFAULT_BUDGET)
        });
        let mut sizes = Vec::new();
        let mut gammas = Vec::new();
        let mut ratios = Vec::new();
        for s in samples.into_iter().flatten() {
            if s.ratio > bound + 1e-9 {
                violations += 1;
            }
            sizes.push(s.cds_size as f64);
            gammas.push(s.gamma_c as f64);
            ratios.push(s.ratio);
        }
        let row = [
            cell.n.to_string(),
            f2(cell.side),
            ratios.len().to_string(),
            f2(stats::mean(&sizes)),
            f2(stats::mean(&gammas)),
            f3(stats::mean(&ratios)),
            f3(stats::max(&ratios)),
            f3(bound),
            violations.to_string(),
        ];
        table.row(&row);
        if let Some(w) = csv.as_mut() {
            w.row(&[
                cell.n.to_string(),
                f2(cell.side),
                ratios.len().to_string(),
                f3(stats::mean(&sizes)),
                f3(stats::mean(&gammas)),
                f3(stats::mean(&ratios)),
                f3(stats::max(&ratios)),
                violations.to_string(),
            ]);
        }
    }
    table.print();
    println!();
    if violations == 0 {
        println!(
            "RESULT: {} held on every solved instance (empirical ratios sit far \
             below the worst-case bound {:.3}, as expected on random inputs).",
            theorem, bound
        );
    } else {
        println!("RESULT: {violations} bound VIOLATIONS — investigate!");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instances_are_connected_and_deterministic() {
        let cell = Cell {
            n: 30,
            side: 3.0,
            instances: 4,
        };
        let a = instances(cell, 7);
        let b = instances(cell, 7);
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.points(), y.points());
            assert!(x.graph().is_connected());
        }
    }

    #[test]
    fn instances_identical_at_any_pool_width() {
        // The determinism contract: a wide pool produces byte-identical
        // instances.  Use explicit pools rather than the global one so
        // this test cannot race with siblings over process state.
        let cell = Cell {
            n: 40,
            side: 3.5,
            instances: 6,
        };
        let seed = cell.cell_seed(42);
        let make = |pool: &mcds_pool::ThreadPool| -> Vec<Udg> {
            pool.parallel_map((0..cell.instances).collect(), |_, i| {
                let mut rng = StdRng::from_stream(seed, i as u64);
                match gen::connected_uniform(&mut rng, cell.n, cell.side, 30) {
                    Some(u) => u,
                    None => gen::giant_component_instance(&mut rng, cell.n, cell.side),
                }
            })
        };
        let seq = make(&mcds_pool::ThreadPool::new(1));
        let par = make(&mcds_pool::ThreadPool::new(4));
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.points(), b.points());
            assert_eq!(a.graph(), b.graph());
        }
    }

    #[test]
    fn timed_trials_record_phases_and_stay_deterministic() {
        let cell = Cell {
            n: 30,
            side: 3.0,
            instances: 3,
        };
        let trials = || {
            timed_family_trials(
                Algorithm::GreedyConnect,
                cell,
                9,
                1,
                false,
                WeightScheme::Unit,
            )
        };
        let (a, b) = (trials(), trials());
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            // Sizes and node sets are pure functions of the seed; wall
            // times are not.
            assert_eq!(x.solution.nodes(), y.solution.nodes());
            assert_eq!(x.n, y.n);
        }
        // At the builder defaults each trial is the classic solve of its
        // instance.
        for (i, t) in a.iter().enumerate() {
            let classic = Solver::new(Algorithm::GreedyConnect)
                .solve(instance(cell, 9, i).graph())
                .unwrap();
            assert_eq!(t.solution.nodes(), classic.nodes());
        }
        let m = mean_timings(&a);
        assert!(m.total() >= m.phase1);
        assert_eq!(mean_timings(&[]), PhaseTimings::default());
        assert_eq!(ms(Duration::from_millis(2)), "2.000");
        // The hardened variants run (skipping unharden-able instances)
        // and keep the m-fold contract.
        let hard = timed_family_trials(
            Algorithm::GreedyConnect,
            cell,
            9,
            2,
            true,
            WeightScheme::Unit,
        );
        assert!(hard.len() <= cell.instances);
        for t in &hard {
            assert!(t.solution.len() >= 2, "a (2,2) backbone has >= 2 nodes");
        }
    }

    #[test]
    fn ratio_sample_respects_paper_bound() {
        let cell = Cell {
            n: 24,
            side: 3.0,
            instances: 3,
        };
        for udg in instances(cell, 11) {
            if let Some(s) = ratio_against_exact(Algorithm::GreedyConnect, &udg, 20_000_000) {
                assert!(s.ratio <= mcds_mis::bounds::GREEDY_RATIO + 1e-9);
                assert!(s.cds_size >= s.gamma_c);
            }
        }
    }

    #[test]
    fn lower_bound_is_sound_on_solvable_instances() {
        let cell = Cell {
            n: 20,
            side: 2.5,
            instances: 3,
        };
        for udg in instances(cell, 13) {
            let lb = gamma_c_lower_bound(udg.graph());
            if let Ok(Some(opt)) = try_min_connected_dominating_set(udg.graph(), 20_000_000) {
                assert!(lb <= opt.len().max(1), "lb {lb} > γ_c {}", opt.len());
            }
        }
    }
}
