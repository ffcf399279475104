//! Property tests for the UDG crate on the in-tree `mcds-check` engine:
//! construction against a linear scan, generator invariants and parser
//! robustness, run in the default `cargo test -q` with deterministic
//! seeds and shrinking.

use mcds_check::gen::{strings, u64s, usizes, vecs};
use mcds_check::{prop_assert, prop_assert_eq, Property, TestResult};
use mcds_geom::{Aabb, Point};
use mcds_rng::rngs::StdRng;
use mcds_rng::SeedableRng;
use mcds_udg::{gen, io, Udg};

#[test]
fn csr_rows_equal_linear_scan() {
    // Points on the 1/1000 lattice of [-4, 4]², ticks offset by 1000: up
    // to 80 points plus one more, the query point of the grid-index
    // property this replaces.
    let ticks = (usizes(0..=2000), usizes(0..=2000));
    let gen = (vecs(ticks.clone(), 0..=80), ticks);
    Property::new("csr_rows_equal_linear_scan")
        .cases(128)
        .run(&gen, |(ts, q)| {
            let at = |&(x, y): &(usize, usize)| {
                Point::new((x as f64 - 1000.0) / 250.0, (y as f64 - 1000.0) / 250.0)
            };
            let pts: Vec<Point> = ts.iter().chain([q]).map(at).collect();
            let udg = Udg::build(pts.clone());
            for (v, &p) in pts.iter().enumerate() {
                let scan: Vec<u32> = (0..pts.len() as u32)
                    .filter(|&u| {
                        u as usize != v && pts[u as usize].dist_sq(p) <= 1.0 + mcds_geom::EPS
                    })
                    .collect();
                prop_assert_eq!(udg.graph().neighbors(v), scan.as_slice());
            }
            TestResult::Pass
        });
}

#[test]
fn parser_never_panics_on_arbitrary_text() {
    Property::new("parser_never_panics_on_arbitrary_text")
        .cases(64)
        .run(&strings(0..=300), |text| {
            // Robustness: any input either parses or returns Err — no panic.
            let _ = io::parse_instance(text);
            TestResult::Pass
        });
}

#[test]
fn parser_never_panics_on_structured_garbage() {
    let gen = (
        usizes(0..=19),
        u64s(0..=5_000),
        vecs(strings(0..=20), 0..=24),
    );
    Property::new("parser_never_panics_on_structured_garbage")
        .cases(64)
        .run(&gen, |(n, radius_millis, rows)| {
            // Radius sweeps [-2, 3) in millistep increments, covering the
            // negative/zero/degenerate band the proptest variant hit.
            let radius = *radius_millis as f64 / 1000.0 - 2.0;
            let mut text = format!("udg {n} {radius}\n");
            for r in rows {
                text.push_str(r);
                text.push('\n');
            }
            let _ = io::parse_instance(&text);
            TestResult::Pass
        });
}

#[test]
fn roundtrip_through_text_is_exact() {
    let gen = (u64s(0..=10_000), usizes(0..=59), usizes(0..=115));
    Property::new("roundtrip_through_text_is_exact")
        .cases(64)
        .run(&gen, |(seed, n, side_decis)| {
            let side = 0.5 + *side_decis as f64 / 10.0;
            let mut rng = StdRng::seed_from_u64(*seed);
            let udg = Udg::build(gen::uniform_in_square(&mut rng, *n, side));
            let back = io::parse_instance(&io::write_instance(&udg)).expect("own output parses");
            prop_assert_eq!(back.points(), udg.points());
            prop_assert_eq!(back.graph(), udg.graph());
            TestResult::Pass
        });
}

#[test]
fn generators_respect_their_regions() {
    Property::new("generators_respect_their_regions")
        .cases(64)
        .run(&(u64s(0..=10_000), usizes(1..=80)), |(seed, n)| {
            let mut rng = StdRng::seed_from_u64(*seed);
            let n = *n;
            let side = 6.0;
            for p in gen::uniform_in_square(&mut rng, n, side) {
                prop_assert!(Aabb::square(side).contains(p));
            }
            let c = Point::new(1.0, 2.0);
            for p in gen::uniform_in_disk(&mut rng, n, c, 2.5) {
                prop_assert!(p.dist(c) <= 2.5 + 1e-12);
            }
            for p in gen::uniform_in_annulus(&mut rng, n, c, 1.0, 3.0) {
                let d = p.dist(c);
                prop_assert!((1.0..=3.0 + 1e-12).contains(&d));
            }
            for p in gen::corridor(&mut rng, n, 15.0, 2.0) {
                prop_assert!((0.0..=15.0).contains(&p.x) && (0.0..=2.0).contains(&p.y));
            }
            TestResult::Pass
        });
}

#[test]
fn giant_component_instances_are_connected() {
    Property::new("giant_component_instances_are_connected")
        .cases(64)
        .run(&(u64s(0..=5_000), usizes(1..=60)), |(seed, n)| {
            let mut rng = StdRng::seed_from_u64(*seed);
            let udg = gen::giant_component_instance(&mut rng, *n, 6.0);
            prop_assert!(udg.graph().is_connected());
            prop_assert!(!udg.is_empty() && udg.len() <= *n);
            TestResult::Pass
        });
}

#[test]
fn mobility_preserves_population_and_region() {
    Property::new("mobility_preserves_population_and_region")
        .cases(64)
        .run(&(u64s(0..=3_000), usizes(1..=7)), |(seed, steps)| {
            use mcds_udg::mobility::RandomWaypoint;
            let mut rng = StdRng::seed_from_u64(*seed);
            let region = Aabb::square(5.0);
            let mut walk = RandomWaypoint::new(&mut rng, 25, region, (0.5, 1.5), 0.2);
            for _ in 0..*steps {
                walk.step(&mut rng, 0.8);
            }
            prop_assert_eq!(walk.positions().len(), 25);
            for p in walk.positions() {
                prop_assert!(region.contains(*p));
            }
            TestResult::Pass
        });
}
