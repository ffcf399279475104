//! Property tests for the geometry substrate on the in-tree `mcds-check`
//! engine, run in the default `cargo test -q` with deterministic seeds and
//! shrinking.
//!
//! Points sit on the 1/1000 lattice of `[-scale, scale]²`: ticks
//! `-1000..=1000` on each axis, so counterexamples print short and avoid
//! degenerate float edge cases.

use mcds_check::gen::{usizes, vecs, UsizeGen, VecGen};
use mcds_check::{prop_assert, prop_assert_eq, Property, TestResult};
use mcds_geom::{
    packing::{greedy_pack, is_independent, min_pairwise_distance},
    Aabb, Disk, Point,
};

/// Lattice ticks of one point, offset by 1000 so they are unsigned.
type Ticks = (usize, usize);

fn ticks() -> (UsizeGen, UsizeGen) {
    (usizes(0..=2000), usizes(0..=2000))
}

/// Up to `max_n` lattice points.
fn tick_sets(max_n: usize) -> VecGen<(UsizeGen, UsizeGen)> {
    vecs(ticks(), 0..=max_n)
}

fn point(&(x, y): &Ticks, scale: f64) -> Point {
    let coord = |t: usize| (t as f64 - 1000.0) / 1000.0 * scale;
    Point::new(coord(x), coord(y))
}

fn points(ts: &[Ticks], scale: f64) -> Vec<Point> {
    ts.iter().map(|t| point(t, scale)).collect()
}

#[test]
fn distance_is_a_metric() {
    Property::new("distance_is_a_metric").cases(128).run(
        &(ticks(), ticks(), ticks()),
        |(a, b, c)| {
            let (a, b, c) = (point(a, 5.0), point(b, 5.0), point(c, 5.0));
            prop_assert!(a.dist(b) >= 0.0);
            prop_assert!((a.dist(b) - b.dist(a)).abs() < 1e-12);
            prop_assert!(a.dist(c) <= a.dist(b) + b.dist(c) + 1e-9);
            prop_assert!(a.dist(a).abs() < 1e-12);
            TestResult::Pass
        },
    );
}

#[test]
fn greedy_pack_invariants() {
    Property::new("greedy_pack_invariants")
        .cases(128)
        .run(&tick_sets(60), |ts| {
            let pts = points(ts, 4.0);
            let packed = greedy_pack(&pts);
            prop_assert!(is_independent(&packed, 0.0));
            for &p in &pts {
                prop_assert!(packed.iter().any(|&k| k.dist(p) <= 1.0));
            }
            if let Some(d) = min_pairwise_distance(&packed) {
                prop_assert!(d > 1.0);
            }
            TestResult::Pass
        });
}

#[test]
fn aabb_of_points_is_tight() {
    Property::new("aabb_of_points_is_tight")
        .cases(128)
        .run(&tick_sets(30), |ts| {
            let pts = points(ts, 5.0);
            if let Some(bb) = Aabb::of_points(pts.iter().copied()) {
                for &p in &pts {
                    prop_assert!(bb.contains(p));
                }
                // Tightness: some point touches each side.
                let eps = 1e-9;
                prop_assert!(pts.iter().any(|p| (p.x - bb.min().x).abs() < eps));
                prop_assert!(pts.iter().any(|p| (p.x - bb.max().x).abs() < eps));
                prop_assert!(pts.iter().any(|p| (p.y - bb.min().y).abs() < eps));
                prop_assert!(pts.iter().any(|p| (p.y - bb.max().y).abs() < eps));
            } else {
                prop_assert!(pts.is_empty());
            }
            TestResult::Pass
        });
}

#[test]
fn disk_containment_consistent_with_distance() {
    Property::new("disk_containment_consistent_with_distance")
        .cases(128)
        .run(&(ticks(), ticks()), |(c, p)| {
            let (c, p) = (point(c, 3.0), point(p, 3.0));
            let d = Disk::unit(c);
            prop_assert_eq!(d.contains(p), c.dist_sq(p) <= 1.0 + mcds_geom::EPS);
            prop_assert_eq!(d.contains(p), Disk::unit(p).contains(c));
            TestResult::Pass
        });
}
