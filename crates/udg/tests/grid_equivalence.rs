//! Every UDG built from the sorted cell table must agree exactly with
//! the naive `Θ(n²)` reference, on every deployment family the
//! experiments use: the CSR build, and the giant component or any
//! subset taken by relabelling the graph instead of rebuilding it.
//!
//! These are the load-bearing guarantees behind `Udg::build`: the cell
//! table is a pure accelerator (no geometric approximation), so the
//! build and every restriction describe the same unit-disk graph.

use mcds_geom::Point;
use mcds_graph::traversal::largest_component;
use mcds_rng::rngs::StdRng;
use mcds_rng::{Rng, SeedableRng};
use mcds_udg::{gen, io, Udg};

/// One seeded point set per (family, seed) pair.
fn family_points(family: &str, seed: u64, n: usize, side: f64) -> Vec<Point> {
    let mut rng = StdRng::from_stream(seed, 0x9d5);
    match family {
        "uniform" => gen::uniform_in_square(&mut rng, n, side),
        "clustered" => {
            let clusters = (n / 15).max(2);
            gen::clustered(&mut rng, clusters, n / clusters, side, 0.8)
        }
        "corridor" => gen::corridor(&mut rng, n, 4.0 * side, side / 3.0),
        "annulus" => gen::uniform_in_annulus(&mut rng, n, Point::new(0.0, 0.0), side / 3.0, side),
        other => panic!("unknown family {other}"),
    }
}

const FAMILIES: [&str; 4] = ["uniform", "clustered", "corridor", "annulus"];

/// The 200 seeded instances of the equality gates: every family × 50
/// seeds, with size and radius varied by seed so the sweep covers sparse,
/// dense and near-degenerate cells (including radii near the instance
/// scale, which stress the 3×3-block boundary cases).
fn instances() -> impl Iterator<Item = (&'static str, u64, Vec<Point>, f64)> {
    FAMILIES.iter().flat_map(|&family| {
        (0..50u64).map(move |seed| {
            let n = 30 + (seed as usize % 5) * 25; // 30..130
            let side = 3.0 + (seed % 4) as f64; // 3..6
            let radius = [0.6, 1.0, 1.7][seed as usize % 3];
            (family, seed, family_points(family, seed, n, side), radius)
        })
    })
}

/// The CSR build equals the naive all-pairs reference on ≥200 seeded
/// instances across all four deployment families, and on one 5 000-point
/// uniform instance.  The naive side shares no code with the cell table,
/// so a candidate the table drops shows up here.
#[test]
fn grid_equals_naive_on_200_instances() {
    let mut rng = StdRng::seed_from_u64(4242);
    let large = gen::uniform_in_square(&mut rng, 5000, 25.0);
    let cases = instances().chain(std::iter::once(("uniform-5000", 4242, large, 1.0)));
    let mut checked = 0usize;
    for (family, seed, pts, radius) in cases {
        let grid = Udg::with_radius(pts.clone(), radius);
        let naive = Udg::build_naive(pts, radius);
        assert_eq!(
            grid.graph(),
            naive.graph(),
            "family {family}, seed {seed}, radius {radius}: grid and naive graphs differ"
        );
        checked += 1;
    }
    assert!(checked >= 200, "only {checked} instances checked");
}

/// A restriction relabels the graph; it must equal a fresh build over the
/// kept points, for the giant component and for a seeded random subset
/// (unsorted, with duplicates) of every instance.
#[test]
fn restriction_equals_rebuild_on_200_instances() {
    for (family, seed, pts, radius) in instances() {
        let udg = Udg::with_radius(pts, radius);
        let mut rng = StdRng::from_stream(seed, 0x5ab);
        // Descending and listed twice: `restricted_to` takes any order.
        let subset: Vec<usize> = (0..udg.len())
            .rev()
            .filter(|_| rng.gen_bool(0.6))
            .flat_map(|v| [v, v])
            .collect();
        for keep in [largest_component(udg.graph()), subset] {
            let sub = udg.restricted_to(&keep);
            let kept = mcds_graph::node_set(keep.iter().copied());
            let rebuilt = Udg::with_radius(kept.iter().map(|&i| udg.points()[i]).collect(), radius);
            assert_eq!(
                sub.points(),
                rebuilt.points(),
                "family {family}, seed {seed}"
            );
            assert_eq!(sub.radius(), rebuilt.radius());
            assert_eq!(
                sub.graph(),
                rebuilt.graph(),
                "family {family}, seed {seed}: restriction differs from the rebuild"
            );
        }
    }
}

/// Points whose cell keys sit at or saturate the ends of `i64`, and
/// points far enough apart that a table sized by bounding box would not
/// fit in memory.  Each set runs through the CSR build (against the
/// naive reference) and the text parser.
#[test]
fn extreme_coordinates_neither_overflow_nor_allocate_by_extent() {
    let along_x = vec![
        Point::new(1e300, 0.0),
        Point::new(0.0, 0.0),
        Point::new(-1e300, 0.0),
        Point::new(1e300, 0.5),
        Point::new(0.0, 0.5),
    ];
    let along_y: Vec<Point> = along_x.iter().map(|p| Point::new(p.y, p.x)).collect();
    let units: Vec<Point> = (-1..=1)
        .flat_map(|x| (-1..=1).map(move |y| Point::new(f64::from(x), f64::from(y))))
        .collect();
    let far_apart = vec![
        Point::new(0.0, 0.0),
        Point::new(1e12, 1e12),
        Point::new(0.5, 0.0),
        Point::new(-1e12, 1e12),
    ];
    let cases = [
        ("along x", along_x, 1.0),
        ("along y", along_y, 1.0),
        ("unit coordinates", units.clone(), 1e-300),
        ("unit coordinates, unit radius", units, 1.0),
        ("1e12 apart", far_apart, 1.0),
    ];
    for (name, pts, radius) in cases {
        let grid = Udg::with_radius(pts.clone(), radius);
        let naive = Udg::build_naive(pts.clone(), radius);
        assert_eq!(grid.graph(), naive.graph(), "{name}: grid != naive");
        let parsed = io::parse_instance(&io::write_instance(&grid)).expect("own output parses");
        assert_eq!(parsed.points(), pts.as_slice(), "{name}");
        assert_eq!(parsed.graph(), naive.graph(), "{name}: parsed != naive");
    }
    // Parsing builds the graph, so a 1e300 coordinate in the text takes
    // the same path.
    let parsed = io::parse_instance("udg 2 1.0\n1e300 0\n0 0\n").expect("parses");
    assert_eq!(parsed.graph().num_edges(), 0);
}

/// Radius boundary: the naive reference joins points up to
/// `√(r² + EPS)` apart, so pairs exactly at `radius` and pairs slightly
/// beyond it must be adjacent in both constructions.  Beyond-radius pairs
/// can sit two cells of side `radius` apart: (−1e-10, 0) and (1 + 1e-10, 0)
/// at radius 1, and, where `EPS` dwarfs `r²`, points 10 radii apart at
/// radius 1e-6.
#[test]
fn boundary_distances_agree() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut near_unit = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
    for _ in 0..60 {
        near_unit.push(Point::new(
            rng.gen_range(-1.5..=2.5),
            rng.gen_range(-1.5..=1.5),
        ));
    }
    // At radius 1e-6 the edge test reaches about 32 radii: a pair ten
    // radii apart, then 200 points in a square 200 radii wide.
    let mut tiny = vec![Point::new(0.0, 0.0), Point::new(1e-5, 0.0)];
    for _ in 0..200 {
        tiny.push(Point::new(
            rng.gen_range(-1e-4..=1e-4),
            rng.gen_range(-1e-4..=1e-4),
        ));
    }
    let cases = [
        ("radius 1", near_unit, 1.0),
        (
            "just beyond radius 1",
            vec![Point::new(-1e-10, 0.0), Point::new(1.0 + 1e-10, 0.0)],
            1.0,
        ),
        ("radius 1e-6", tiny, 1e-6),
    ];
    for (name, pts, radius) in cases {
        let grid = Udg::with_radius(pts.clone(), radius);
        let naive = Udg::build_naive(pts, radius);
        assert_eq!(grid.graph(), naive.graph(), "{name}: grid != naive");
        assert!(grid.graph().has_edge(0, 1), "{name}: pair 0-1 must touch");
    }
}

/// Smoke check that the grid build actually beats the naive build by a
/// wide margin at scale.  Wall-clock dependent, so ignored by default;
/// CI runs it in release via `cargo test --release -- --ignored`.
#[test]
#[ignore = "wall-clock comparison; run in release"]
fn grid_beats_naive_5x_at_20k() {
    // Same density as the old 10k/35.0 smoke; the doubled n widens the
    // O(n^2)-vs-O(n) gap well past the threshold even on slow boxes.
    let mut rng = StdRng::seed_from_u64(1);
    let pts = gen::uniform_in_square(&mut rng, 20_000, 49.5);

    // Warm-up + correctness on the same input.
    let grid_udg = Udg::with_radius(pts.clone(), 1.0);
    let naive_udg = Udg::build_naive(pts.clone(), 1.0);
    assert_eq!(grid_udg.graph(), naive_udg.graph());

    // Best-of-reps on each side: the minimum is the least
    // noise-contaminated estimate, so one scheduler hiccup in a grid
    // rep cannot sink the ratio on a loaded box.
    let reps = 3;
    let best = |build: &dyn Fn() -> Udg| {
        (0..reps)
            .map(|_| {
                let t = std::time::Instant::now();
                std::hint::black_box(build());
                t.elapsed()
            })
            .min()
            .expect("reps >= 1")
    };
    let grid = best(&|| Udg::with_radius(pts.clone(), 1.0));
    let naive = best(&|| Udg::build_naive(pts.clone(), 1.0));
    let speedup = naive.as_secs_f64() / grid.as_secs_f64().max(1e-9);
    eprintln!("n=20000: grid {grid:?}, naive {naive:?}, speedup {speedup:.1}x");
    assert!(
        speedup >= 5.0,
        "grid build should beat naive by >=5x at n=20k, got {speedup:.1}x \
         (grid {grid:?}, naive {naive:?})"
    );
}
