//! Property tests for the geometry substrate on the in-tree `mcds-check`
//! engine, run in the default `cargo test -q` with deterministic seeds and
//! shrinking.
//!
//! Points sit on the 1/1000 lattice of `[-scale, scale]²`: ticks
//! `-1000..=1000` on each axis, so counterexamples print short and avoid
//! degenerate float edge cases.

use mcds_check::gen::{f64s, usizes, vecs, UsizeGen, VecGen};
use mcds_check::{prop_assert, prop_assert_eq, Property, TestResult};
use mcds_geom::{
    hull::{convex_hull, diameter, diameter_brute, polygon_area},
    packing::{greedy_pack, is_independent, min_pairwise_distance},
    Aabb, Circle, Disk, Point,
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
fn rotation_preserves_norm() {
    Property::new("rotation_preserves_norm").cases(128).run(
        &(ticks(), f64s(-10.0..=10.0)),
        |(p, theta)| {
            let p = point(p, 5.0);
            let r = p.rotated(*theta);
            prop_assert!((r.norm() - p.norm()).abs() < 1e-9);
            TestResult::Pass
        },
    );
}

#[test]
fn hull_contains_all_points() {
    Property::new("hull_contains_all_points")
        .cases(128)
        .run(&tick_sets(40), |ts| {
            let pts = points(ts, 5.0);
            let hull = convex_hull(&pts);
            // Every input point is inside or on the hull: check via
            // orientation against every hull edge (hull is CCW).
            if hull.len() >= 3 {
                for &p in &pts {
                    for i in 0..hull.len() {
                        let a = hull[i];
                        let b = hull[(i + 1) % hull.len()];
                        prop_assert!(
                            Point::orient(a, b, p) >= -1e-9,
                            "point {p} outside hull edge {a}->{b}"
                        );
                    }
                }
                prop_assert!(polygon_area(&hull) >= 0.0);
            }
            TestResult::Pass
        });
}

#[test]
fn calipers_diameter_equals_brute() {
    Property::new("calipers_diameter_equals_brute")
        .cases(128)
        .run(&tick_sets(40), |ts| {
            let pts = points(ts, 5.0);
            prop_assert!((diameter(&pts) - diameter_brute(&pts)).abs() < 1e-9);
            TestResult::Pass
        });
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
fn circle_intersections_lie_on_both() {
    Property::new("circle_intersections_lie_on_both")
        .cases(128)
        .run(&(ticks(), ticks()), |(a, b)| {
            let ca = Circle::unit(point(a, 2.0));
            let cb = Circle::unit(point(b, 2.0));
            if let Some((p, q)) = ca.intersect(&cb) {
                prop_assert!(ca.on_boundary(p, 1e-6));
                prop_assert!(cb.on_boundary(p, 1e-6));
                prop_assert!(ca.on_boundary(q, 1e-6));
                prop_assert!(cb.on_boundary(q, 1e-6));
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
            if d.contains_strict(p) {
                prop_assert!(d.contains(p));
            }
            TestResult::Pass
        });
}
