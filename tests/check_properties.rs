//! Workspace-wide property tests on the in-tree `mcds-check` engine.
//!
//! The core invariants of the paper's objects on randomized point sets,
//! run in the default `cargo test -q` with deterministic seeds and
//! automatic counterexample shrinking.

use mcds::prelude::*;
use mcds_check::gen::point_sets;
use mcds_check::{prop_assert, prop_assert_eq, prop_assume, Property, TestResult};

#[test]
fn udg_grid_equals_naive() {
    Property::new("udg_grid_equals_naive")
        .cases(64)
        .run(&point_sets(1..=120, 5.0), |points| {
            let fast = Udg::build(points.clone());
            let slow = Udg::build_naive(points.clone(), 1.0);
            prop_assert_eq!(fast.graph(), slow.graph());
            TestResult::Pass
        });
}

/// The grid build does not depend on node labels: built over the points
/// in sweep order (by y, then x), it is the caller-order graph relabelled.
#[test]
fn grid_build_commutes_with_relabelling() {
    Property::new("grid_build_commutes_with_relabelling")
        .cases(48)
        .run(&point_sets(0..=150, 6.0), |points| {
            let mut order: Vec<usize> = (0..points.len()).collect();
            order.sort_by(|&a, &b| {
                (points[a].y.total_cmp(&points[b].y)).then(points[a].x.total_cmp(&points[b].x))
            });
            let udg = Udg::build(points.clone());
            let swept = Udg::build(order.iter().map(|&v| points[v]).collect());
            let relabelled = Graph::from_edges(
                points.len(),
                swept.graph().edges().map(|(u, v)| (order[u], order[v])),
            );
            prop_assert_eq!(&relabelled, udg.graph());
            TestResult::Pass
        });
}

#[test]
fn first_fit_mis_invariants() {
    Property::new("first_fit_mis_invariants")
        .cases(64)
        .run(&point_sets(1..=100, 4.0), |points| {
            let udg = Udg::build(points.clone());
            let g = udg.graph();
            // Work on the largest component (MIS election needs a rooted
            // component).
            let comp = mcds::graph::traversal::largest_component(g);
            let root = comp[0];
            let mis = BfsMis::compute(g, root);
            prop_assert!(properties::is_independent_set(g, mis.mis()));
            // Maximal within the root's component: every component node is
            // dominated.
            let mask = mcds::graph::node_mask(g.num_nodes(), mis.mis());
            for &v in &comp {
                let dominated = mask[v] || g.neighbors_iter(v).any(|u| mask[u]);
                prop_assert!(dominated, "component node {} undominated", v);
            }
            TestResult::Pass
        });
}

#[test]
fn all_algorithms_valid_on_connected_instances() {
    Property::new("all_algorithms_valid_on_connected_instances")
        .cases(64)
        .run(&point_sets(1..=90, 4.0), |points| {
            let udg = Udg::build(points.clone());
            let comp = mcds::graph::traversal::largest_component(udg.graph());
            let sub = udg.restricted_to(&comp);
            let g = sub.graph();
            prop_assume!(g.num_nodes() >= 2);
            for alg in Algorithm::ALL {
                let solution = Solver::new(alg)
                    .solve(g)
                    .expect("connected by construction");
                prop_assert!(solution.cds().verify(g).is_ok(), "{} failed", alg);
            }
            TestResult::Pass
        });
}

#[test]
fn greedy_and_waf_respect_alpha_band() {
    Property::new("greedy_and_waf_respect_alpha_band")
        .cases(64)
        .run(&point_sets(1..=60, 3.0), |points| {
            // Without exact gamma_c, check the unconditional structural
            // band |CDS| <= 2|I| + 1 shared by the WAF-style two-phased
            // constructions.
            let udg = Udg::build(points.clone());
            let comp = mcds::graph::traversal::largest_component(udg.graph());
            let sub = udg.restricted_to(&comp);
            let g = sub.graph();
            prop_assume!(g.num_nodes() >= 2);
            let waf = Solver::new(Algorithm::WafTree).solve(g).expect("connected");
            let greedy = Solver::new(Algorithm::GreedyConnect)
                .solve(g)
                .expect("connected");
            let i = waf.cds().dominators().len();
            prop_assert!(waf.len() <= 2 * i + 1);
            prop_assert!(greedy.len() <= 2 * i + 1);
            TestResult::Pass
        });
}

#[test]
fn pruned_cds_is_one_minimal() {
    Property::new("pruned_cds_is_one_minimal")
        .cases(64)
        .run(&point_sets(1..=50, 3.0), |points| {
            let udg = Udg::build(points.clone());
            let comp = mcds::graph::traversal::largest_component(udg.graph());
            let sub = udg.restricted_to(&comp);
            let g = sub.graph();
            prop_assume!(g.num_nodes() >= 3);
            let cds = Solver::new(Algorithm::GreedyConnect)
                .solve(g)
                .expect("connected");
            let pruned = mcds::cds::prune::prune_cds(g, cds.nodes()).expect("valid");
            prop_assert!(properties::check_cds(g, &pruned).is_ok());
            // 1-minimality.
            for &v in &pruned {
                let smaller: Vec<usize> = pruned.iter().copied().filter(|&u| u != v).collect();
                if !smaller.is_empty() {
                    prop_assert!(
                        !properties::is_connected_dominating_set(g, &smaller),
                        "node {} redundant after pruning",
                        v
                    );
                }
            }
            TestResult::Pass
        });
}

#[test]
fn instance_io_roundtrip() {
    Property::new("instance_io_roundtrip")
        .cases(64)
        .run(&point_sets(1..=80, 6.0), |points| {
            let udg = Udg::build(points.clone());
            let text = mcds::udg::io::write_instance(&udg);
            let back = mcds::udg::io::parse_instance(&text).expect("own output parses");
            prop_assert_eq!(back.points(), udg.points());
            prop_assert_eq!(back.graph(), udg.graph());
            TestResult::Pass
        });
}

#[test]
fn exact_alpha_at_least_any_mis() {
    Property::new("exact_alpha_at_least_any_mis").cases(64).run(
        &point_sets(1..=26, 2.5),
        |points| {
            let udg = Udg::build(points.clone());
            let g = udg.graph();
            let alpha = mcds::exact::independence_number(g);
            let comp = mcds::graph::traversal::largest_component(g);
            let mis = BfsMis::compute(g, comp[0]);
            prop_assert!(mis.len() <= alpha);
            let lex = mcds::mis::variants::lexicographic_mis(g);
            prop_assert!(lex.len() <= alpha);
            TestResult::Pass
        },
    );
}

#[test]
fn corollary7_on_tiny_instances() {
    Property::new("corollary7_on_tiny_instances").cases(64).run(
        &point_sets(1..=14, 1.8),
        |points| {
            let udg = Udg::build(points.clone());
            let comp = mcds::graph::traversal::largest_component(udg.graph());
            let sub = udg.restricted_to(&comp);
            let g = sub.graph();
            prop_assume!(g.num_nodes() >= 2);
            let alpha = mcds::exact::independence_number(g);
            let gamma_c = mcds::exact::connected_domination_number(g).expect("connected");
            prop_assert!(
                alpha as f64 <= mcds::mis::bounds::alpha_upper_bound(gamma_c) + 1e-9,
                "alpha {} gamma_c {}",
                alpha,
                gamma_c
            );
            TestResult::Pass
        },
    );
}
