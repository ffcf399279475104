//! The theorem catalog: every claim of the paper asserted by name on
//! deterministic instance batteries.  This file is the executable
//! statement of what "reproduced" means for this repository.

use mcds::cds::accounting::greedy_accounting;
use mcds::exact;
use mcds::geom::packing::phi;
use mcds::mis::bounds;
use mcds::mis::constructions::{fig1_three_star, fig1_two_star, fig2_chain};
use mcds::mis::packing::{check_lemma5, check_theorem3, check_theorem6};
use mcds::mis::stars::{star_decomposition, verify_decomposition};
use mcds::prelude::*;
use mcds_rng::rngs::StdRng;
use mcds_rng::SeedableRng;

/// A deterministic battery of small connected UDGs with exact optima in
/// reach.
fn exact_battery() -> Vec<Udg> {
    let mut out = Vec::new();
    for seed in 0..30u64 {
        let mut rng = StdRng::seed_from_u64(7_000 + seed);
        if let Some(udg) = mcds::udg::gen::connected_uniform(&mut rng, 18, 2.2, 50) {
            out.push(udg);
        }
    }
    // Structured extremes.
    out.push(Udg::build(mcds::udg::gen::linear_chain(12, 1.0)));
    out.push(Udg::build(mcds::udg::gen::linear_chain(7, 0.6)));
    out
}

#[test]
fn theorem_3_phi_bounds_hold_and_are_tight_for_small_stars() {
    // Tightness at n = 2, 3 via the paper's own constructions.
    let c2 = fig1_two_star(0.02);
    let chk2 = check_theorem3(c2.set[0], &c2.set, &c2.independent, 0.0).unwrap();
    assert!(chk2.holds);
    assert_eq!(chk2.count, phi(2));

    let c3 = fig1_three_star(0.02);
    let chk3 = check_theorem3(c3.set[0], &c3.set, &c3.independent, 0.0).unwrap();
    assert!(chk3.holds);
    assert_eq!(chk3.count, phi(3));
}

#[test]
fn lemma_4_star_decomposition_exists_for_all_battery_instances() {
    for udg in exact_battery() {
        if udg.len() < 2 {
            continue;
        }
        let stars = star_decomposition(udg.points()).expect("connected battery instance");
        verify_decomposition(udg.points(), &stars).expect("valid decomposition");
    }
}

#[test]
fn lemma_5_telescoping_holds_with_mis_packings() {
    for udg in exact_battery() {
        if udg.len() < 3 {
            continue;
        }
        let mis = BfsMis::compute(udg.graph(), 0);
        let mis_points: Vec<_> = mis.mis().iter().map(|&i| udg.points()[i]).collect();
        let stars = star_decomposition(udg.points()).expect("connected");
        // Check the inequality with the first star in the role of S.
        let chk =
            check_lemma5(udg.points(), stars[0].members(), &mis_points, 0.0).expect("valid inputs");
        assert!(chk.holds, "outside {} > {}", chk.count, chk.bound);
    }
}

#[test]
fn theorem_6_holds_with_mis_packings() {
    for udg in exact_battery() {
        if udg.len() < 2 {
            continue;
        }
        let mis = BfsMis::compute(udg.graph(), 0);
        let mis_points: Vec<_> = mis.mis().iter().map(|&i| udg.points()[i]).collect();
        let chk = check_theorem6(udg.points(), &mis_points, 0.0).expect("valid inputs");
        assert!(chk.holds);
    }
}

#[test]
fn corollary_7_alpha_bound_on_exact_battery() {
    for udg in exact_battery() {
        let g = udg.graph();
        if g.num_nodes() < 2 {
            continue;
        }
        let alpha = exact::independence_number(g);
        let gamma_c = exact::connected_domination_number(g).expect("connected");
        assert!(
            alpha as f64 <= bounds::alpha_upper_bound(gamma_c) + 1e-9,
            "alpha {alpha}, gamma_c {gamma_c}"
        );
    }
}

#[test]
fn theorem_8_including_the_remark_minus_one() {
    // The paper remarks "with a more subtle analysis, we can actually
    // show |I ∪ C| ≤ 7⅓γ_c − 1"; assert the stronger form too.
    for udg in exact_battery() {
        let g = udg.graph();
        if g.num_nodes() < 2 {
            continue;
        }
        let gamma_c = exact::connected_domination_number(g).expect("connected");
        let cds = Solver::new(Algorithm::WafTree).solve(g).expect("connected");
        assert!(
            (cds.len() as f64) <= bounds::waf_size_bound(gamma_c) + 1e-9,
            "Theorem 8: {} vs 7.33*{gamma_c}",
            cds.len()
        );
        assert!(
            (cds.len() as f64) <= bounds::waf_size_bound(gamma_c) - 1.0 + 1e-9,
            "Theorem 8 remark: {} vs 7.33*{gamma_c} - 1",
            cds.len()
        );
    }
}

#[test]
fn theorem_10_final_bound_and_proof_anatomy() {
    for udg in exact_battery() {
        let g = udg.graph();
        if g.num_nodes() < 2 {
            continue;
        }
        let gamma_c = exact::connected_domination_number(g).expect("connected");
        let cds = Solver::new(Algorithm::GreedyConnect)
            .solve(g)
            .expect("connected");
        assert!(
            (cds.len() as f64) <= bounds::greedy_size_bound(gamma_c) + 1e-9,
            "Theorem 10: {} vs 6.39*{gamma_c}",
            cds.len()
        );
        // Internal accounting (C1/C2/C3 split).
        let acc = greedy_accounting(g, 0).expect("connected");
        acc.check(gamma_c).expect("proof anatomy holds");
    }
}

#[test]
fn lemma_9_greedy_never_stalls_on_bfs_mis_seeds() {
    // 60 random connected graphs — general graphs, not only UDGs: the
    // argument needs only the first-fit structure.
    let mut s = 2024u64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut tested = 0;
    while tested < 60 {
        let n = 6 + (next() % 20) as usize;
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if next() % 100 < 20 {
                    edges.push((u, v));
                }
            }
        }
        let g = Graph::from_edges(n, edges);
        if !g.is_connected() {
            continue;
        }
        tested += 1;
        let mis = BfsMis::compute(&g, 0).mis().to_vec();
        let conn = mcds::cds::connect::max_gain_connectors(&g, &mis);
        assert!(conn.is_ok(), "Lemma 9 violated on {g:?}");
    }
}

#[test]
fn figure_2_achieves_the_conjectured_optimum_for_every_n() {
    for n in 3..=48 {
        let c = fig2_chain(n, 0.02);
        c.verify().unwrap();
        assert_eq!(c.independent.len(), 3 * (n + 1), "n = {n}");
        assert_eq!(
            c.independent.len() as f64,
            bounds::alpha_conjectured_bound(n),
            "construction meets the conjectured bound exactly at n = {n}"
        );
    }
}
