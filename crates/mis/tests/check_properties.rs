//! Property tests for the MIS machinery and Section-II geometry, on the
//! in-tree `mcds-check` engine.
//!
//! Graphs are drawn as in the graph crate's properties: a node count in
//! `2..=max_n − 1` and up to `3 (max_n − 1)` endpoint pairs, reduced
//! modulo the node count with self-loops dropped.  Point sets sit on the
//! 1/1000 lattice of a square.

use mcds_check::gen::{point_sets, u64s, usizes, vecs, UsizeGen, VecGen};
use mcds_check::{prop_assert, prop_assert_eq, prop_assume, Property, TestResult};
use mcds_geom::packing::{is_independent, phi};
use mcds_geom::Point;
use mcds_graph::{properties, Graph};
use mcds_mis::packing::{check_theorem3, covered_by_point, covered_by_set};
use mcds_mis::stars::{star_decomposition, verify_decomposition};
use mcds_mis::{first_fit, variants, BfsMis};
use mcds_udg::Udg;

type GraphGen = (UsizeGen, VecGen<(UsizeGen, UsizeGen)>);

/// Node counts `2..=max_n − 1` with up to `3 (max_n − 1)` raw edges.
fn graphs(max_n: usize) -> GraphGen {
    (
        usizes(2..=max_n - 1),
        vecs((usizes(0..=1023), usizes(0..=1023)), 0..=3 * (max_n - 1)),
    )
}

fn graph(&(n, ref raw): &(usize, Vec<(usize, usize)>)) -> Graph {
    let edges: Vec<(usize, usize)> = raw
        .iter()
        .map(|&(u, v)| (u % n, v % n))
        .filter(|(u, v)| u != v)
        .collect();
    Graph::from_edges(n, edges)
}

#[test]
fn first_fit_output_is_independent_for_any_order() {
    Property::new("first_fit_output_is_independent_for_any_order")
        .cases(96)
        .run(&(graphs(24), u64s(0..=999)), |(drawn, perm_seed)| {
            // Derive a permutation from the seed.
            let g = graph(drawn);
            let n = g.num_nodes();
            let mut order: Vec<usize> = (0..n).collect();
            let mut s = perm_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
            for i in (1..n).rev() {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                order.swap(i, (s % (i as u64 + 1)) as usize);
            }
            let mis = first_fit(&g, &order);
            prop_assert!(properties::is_maximal_independent_set(&g, &mis));
            TestResult::Pass
        });
}

#[test]
fn mis_variants_agree_on_validity() {
    Property::new("mis_variants_agree_on_validity")
        .cases(96)
        .run(&graphs(24), |drawn| {
            let g = graph(drawn);
            for mis in [
                variants::lexicographic_mis(&g),
                variants::max_degree_mis(&g),
                variants::min_degree_mis(&g),
            ] {
                prop_assert!(properties::is_maximal_independent_set(&g, &mis));
            }
            TestResult::Pass
        });
}

#[test]
fn bfs_mis_two_hop_separation_on_connected() {
    Property::new("bfs_mis_two_hop_separation_on_connected")
        .cases(96)
        .run(&graphs(20), |drawn| {
            let g = graph(drawn);
            prop_assume!(g.is_connected());
            let r = BfsMis::compute(&g, 0);
            prop_assert!(properties::is_maximal_independent_set(&g, r.mis()));
            prop_assert!(properties::has_two_hop_separation(&g, r.mis()));
            TestResult::Pass
        });
}

#[test]
fn star_decomposition_valid_on_connected_point_sets() {
    Property::new("star_decomposition_valid_on_connected_point_sets")
        .cases(96)
        .run(&point_sets(1..=29, 3.0), |pts| {
            let udg = Udg::build(pts.clone());
            prop_assume!(pts.len() >= 2 && udg.graph().is_connected());
            let stars = star_decomposition(pts).expect("connected set");
            prop_assert!(verify_decomposition(pts, &stars).is_ok());
            // Every star has its center and at least one member.
            for s in &stars {
                prop_assert!(s.len() >= 2);
            }
            TestResult::Pass
        });
}

#[test]
fn covered_by_set_is_union_of_covered_by_point() {
    Property::new("covered_by_set_is_union_of_covered_by_point")
        .cases(96)
        .run(
            &(point_sets(1..=11, 2.0), point_sets(1..=19, 4.0)),
            |(pts, ind)| {
                let by_set = covered_by_set(pts, ind);
                let mut by_union: Vec<usize> =
                    pts.iter().flat_map(|&u| covered_by_point(u, ind)).collect();
                by_union.sort_unstable();
                by_union.dedup();
                prop_assert_eq!(by_set, by_union);
                TestResult::Pass
            },
        );
}

#[test]
fn theorem3_holds_on_random_stars() {
    Property::new("theorem3_holds_on_random_stars")
        .cases(96)
        .run(
            &(
                (usizes(0..=99), usizes(0..=99)),
                vecs((usizes(0..=999), usizes(0..=999)), 0..=4),
                point_sets(1..=59, 4.0),
            ),
            |((cx, cy), spokes, cand)| {
                let c = Point::new(*cx as f64 / 100.0, *cy as f64 / 100.0);
                // Star members within the unit disk of c.
                let mut star = vec![c];
                for &(r, t) in spokes {
                    let radius = r as f64 / 1000.0;
                    let theta = t as f64 / 1000.0 * std::f64::consts::TAU;
                    star.push(Point::polar(c, radius, theta));
                }
                // Pack an independent set from the candidates.
                let ind = mcds_geom::packing::greedy_pack(cand);
                prop_assert!(is_independent(&ind, 0.0));
                let chk =
                    check_theorem3(c, &star, &ind, 0.0).expect("valid star & independent set");
                prop_assert!(
                    chk.holds,
                    "Theorem 3 violated: {} > phi({}) = {}",
                    chk.count,
                    star.len(),
                    phi(star.len())
                );
                TestResult::Pass
            },
        );
}
