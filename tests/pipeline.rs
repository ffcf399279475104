//! End-to-end integration: point set → UDG → every algorithm → verified
//! CDS → paper bounds, with exact optima where reachable.

use mcds::exact;
use mcds::mis::bounds;
use mcds::prelude::*;
use mcds_rng::rngs::StdRng;
use mcds_rng::SeedableRng;

fn connected_instance(seed: u64, n: usize, side: f64) -> Udg {
    let mut rng = StdRng::seed_from_u64(seed);
    mcds::udg::gen::connected_uniform(&mut rng, n, side, 50)
        .unwrap_or_else(|| mcds::udg::gen::giant_component_instance(&mut rng, n, side))
}

#[test]
fn every_algorithm_yields_valid_cds_on_random_udgs() {
    for seed in 0..8u64 {
        let udg = connected_instance(seed, 80, 5.0);
        let g = udg.graph();
        for alg in Algorithm::ALL {
            let solution = Solver::new(alg).solve(g).expect("connected instance");
            solution
                .cds()
                .verify(g)
                .unwrap_or_else(|e| panic!("seed {seed}, {alg}: {e}"));
        }
    }
}

#[test]
fn theorem_8_and_10_hold_against_exact_optimum() {
    let mut checked = 0;
    for seed in 100..130u64 {
        let udg = connected_instance(seed, 18, 2.2);
        let g = udg.graph();
        if g.num_nodes() < 2 {
            continue;
        }
        let Ok(Some(opt)) = exact::try_min_connected_dominating_set(g, 30_000_000) else {
            continue;
        };
        let gamma_c = opt.len().max(1);
        checked += 1;
        let waf = Solver::new(Algorithm::WafTree).solve(g).unwrap();
        let greedy = Solver::new(Algorithm::GreedyConnect).solve(g).unwrap();
        assert!(
            waf.len() as f64 <= bounds::waf_size_bound(gamma_c) + 1e-9,
            "seed {seed}: Theorem 8 violated ({} > 7.33 * {gamma_c})",
            waf.len()
        );
        assert!(
            greedy.len() as f64 <= bounds::greedy_size_bound(gamma_c) + 1e-9,
            "seed {seed}: Theorem 10 violated ({} > 6.39 * {gamma_c})",
            greedy.len()
        );
    }
    assert!(
        checked >= 10,
        "exact solver solved only {checked} instances"
    );
}

#[test]
fn corollary_7_holds_against_exact_optima() {
    let mut checked = 0;
    for seed in 200..224u64 {
        let udg = connected_instance(seed, 16, 2.0);
        let g = udg.graph();
        if g.num_nodes() < 2 {
            continue;
        }
        let Some(alpha) = exact::try_max_independent_set(g, 30_000_000).map(|s| s.len()) else {
            continue;
        };
        let Ok(Some(opt)) = exact::try_min_connected_dominating_set(g, 30_000_000) else {
            continue;
        };
        checked += 1;
        assert!(
            alpha as f64 <= bounds::alpha_upper_bound(opt.len()) + 1e-9,
            "seed {seed}: Corollary 7 violated (alpha {alpha}, gamma_c {})",
            opt.len()
        );
        // The BFS-first-fit MIS is an independent set, so it never
        // exceeds alpha.
        assert!(BfsMis::compute(g, 0).len() <= alpha, "seed {seed}");
    }
    assert!(
        checked >= 10,
        "exact solver solved only {checked} instances"
    );
}

#[test]
fn greedy_never_beaten_by_waf_on_shared_phase1() {
    // Same root, same MIS: greedy's connector phase is never worse in
    // total size on these instances (empirical regularity; the paper's
    // point is the tighter worst-case bound).
    let mut greedy_wins = 0usize;
    let mut total = 0usize;
    for seed in 300..320u64 {
        let udg = connected_instance(seed, 100, 6.0);
        let g = udg.graph();
        if g.num_nodes() < 2 {
            continue;
        }
        let waf = Solver::new(Algorithm::WafTree).root(0).solve(g).unwrap();
        let greedy = Solver::new(Algorithm::GreedyConnect)
            .root(0)
            .solve(g)
            .unwrap();
        assert_eq!(
            waf.cds().dominators(),
            greedy.cds().dominators(),
            "shared phase 1"
        );
        total += 1;
        if greedy.len() <= waf.len() {
            greedy_wins += 1;
        }
    }
    assert!(
        greedy_wins * 10 >= total * 9,
        "greedy should match or beat WAF almost always: {greedy_wins}/{total}"
    );
}

#[test]
fn pruning_preserves_validity_and_never_grows() {
    for seed in 400..406u64 {
        let udg = connected_instance(seed, 70, 5.0);
        let g = udg.graph();
        for alg in Algorithm::ALL {
            let cds = Solver::new(alg).solve(g).expect("connected");
            let pruned = mcds::cds::prune::prune_cds(g, cds.nodes()).expect("valid input");
            assert!(pruned.len() <= cds.len());
            assert!(properties::check_cds(g, &pruned).is_ok());
        }
    }
}

#[test]
fn degenerate_topologies_across_the_stack() {
    // Single node.
    let single = Udg::build(vec![Point::ORIGIN]);
    let cds = Solver::new(Algorithm::GreedyConnect)
        .solve(single.graph())
        .unwrap();
    assert_eq!(cds.nodes(), &[0]);
    // Two nodes at exactly unit distance.
    let pair = Udg::build(vec![Point::ORIGIN, Point::new(1.0, 0.0)]);
    let cds = Solver::new(Algorithm::WafTree).solve(pair.graph()).unwrap();
    cds.cds().verify(pair.graph()).unwrap();
    assert!(cds.len() <= 2);
    // Disconnected pair.
    let split = Udg::build(vec![Point::ORIGIN, Point::new(3.0, 0.0)]);
    assert_eq!(
        Solver::new(Algorithm::GreedyConnect)
            .solve(split.graph())
            .err(),
        Some(CdsError::DisconnectedGraph)
    );
    // Collinear unit chain (the paper's worst-case family).
    let chain = Udg::build(mcds::udg::gen::linear_chain(30, 1.0));
    let cds = Solver::new(Algorithm::GreedyConnect)
        .solve(chain.graph())
        .unwrap();
    cds.cds().verify(chain.graph()).unwrap();
    // γ_c(P_30) = 28; greedy should stay in the proven band.
    assert!(cds.len() as f64 <= bounds::greedy_size_bound(28));
}
