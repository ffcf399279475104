//! E18 — UDG construction scaling: naive `Θ(n²)` vs the grid build.
//!
//! Regenerates the numbers behind the README "Performance" section.  For
//! each `n` the same seeded point set is built two ways:
//!
//! * `naive` — all-pairs distance test ([`Udg::build_naive`]),
//! * `grid` — the sorted cell table filling the CSR ([`Udg::with_radius`]).
//!
//! Both produce the identical [`mcds_graph::Graph`] (asserted here;
//! proven instance-by-instance in `crates/udg/tests/grid_equivalence.rs`),
//! so this artifact is pure wall-clock.  The side grows as `√n` to hold
//! average degree near 10, the paper's sparse-deployment regime.
//!
//! Usage: `exp_build_scaling [--quick] [--seed <u64>] [--out <dir>]`

use std::time::{Duration, Instant};

use mcds_bench::sweeps::ms;
use mcds_bench::{ExpConfig, Table};
use mcds_rng::rngs::StdRng;
use mcds_rng::SeedableRng;
use mcds_udg::{gen, Udg};

fn time<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    start.elapsed() / reps as u32
}

fn main() {
    let cfg = ExpConfig::from_args();
    let sizes: &[usize] = if cfg.quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 50_000]
    };

    println!("E18: UDG construction scaling, naive vs grid\n");
    let header = ["n", "side", "edges", "naive_ms", "grid_ms", "speedup"];
    let mut table = Table::new(&header);
    let mut csv = cfg.csv("exp_build_scaling");
    if let Some(w) = csv.as_mut() {
        w.row(&header[..5]);
    }

    for &n in sizes {
        // side ∝ √n keeps average degree ≈ 10 across the sweep.
        let side = (n as f64 * std::f64::consts::PI / 10.0).sqrt();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let pts = gen::uniform_in_square(&mut rng, n, side);
        let reps = if n <= 10_000 { 3 } else { 1 };

        let naive = Udg::build_naive(pts.clone(), 1.0);
        let grid = Udg::with_radius(pts.clone(), 1.0);
        assert_eq!(naive.graph(), grid.graph(), "grid build diverged at n={n}");

        let t_naive = time(reps, || Udg::build_naive(pts.clone(), 1.0));
        let t_grid = time(reps, || Udg::with_radius(pts.clone(), 1.0));

        let speedup = t_naive.as_secs_f64() / t_grid.as_secs_f64().max(1e-9);
        let row = [
            n.to_string(),
            format!("{side:.1}"),
            grid.graph().num_edges().to_string(),
            ms(t_naive),
            ms(t_grid),
            format!("{speedup:.0}x"),
        ];
        table.row(&row);
        if let Some(w) = csv.as_mut() {
            w.row(&row[..5]);
        }
    }
    table.print();
    println!();
    println!(
        "RESULT: the grid build turns construction from Theta(n^2) into \
         expected O(n + m) without changing a single edge (the two graphs \
         are asserted identical above)."
    );
}
