//! `traversal::diameter` (iFUB: a double sweep, then the start node's
//! BFS levels from the deepest) against the maximum of
//! `traversal::eccentricities`, one BFS per node, which it replaced.
//!
//! The families: paths, even and odd cycles, stars, complete graphs,
//! grids and random trees, where the answer is known, and random
//! G(n, p) and unit-disk graphs, connected and not, where only the oracle
//! knows it.

use mcds_graph::traversal::{diameter, eccentricities};
use mcds_graph::Graph;
use mcds_rng::rngs::StdRng;
use mcds_rng::{Rng, SeedableRng};

/// The diameter by one BFS per node.
fn oracle(g: &Graph) -> Option<usize> {
    eccentricities(g)?.into_iter().max()
}

fn grid(rows: usize, cols: usize) -> Graph {
    let id = |r: usize, c: usize| r * cols + c;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((id(r, c), id(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push((id(r, c), id(r + 1, c)));
            }
        }
    }
    Graph::from_edges(rows * cols, edges)
}

/// A random tree: node `v > 0` hangs off a uniform earlier node.
fn random_tree(rng: &mut StdRng, n: usize) -> Graph {
    Graph::from_edges(n, (1..n).map(|v| (rng.gen_range(0..v), v)))
}

fn gnp(rng: &mut StdRng, n: usize, p: f64) -> Graph {
    let mut edges = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            if rng.gen::<f64>() < p {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, edges)
}

/// `n` uniform points in a `side`-square, linked within distance 1.
fn unit_disk(rng: &mut StdRng, n: usize, side: f64) -> Graph {
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen_range(0.0..=side), rng.gen_range(0.0..=side)))
        .collect();
    let mut edges = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            let (dx, dy) = (pts[u].0 - pts[v].0, pts[u].1 - pts[v].1);
            if dx * dx + dy * dy <= 1.0 {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, edges)
}

#[test]
fn edge_cases() {
    assert_eq!(diameter(&Graph::empty(0)), None);
    assert_eq!(diameter(&Graph::empty(1)), Some(0));
    assert_eq!(diameter(&Graph::empty(2)), None);
    assert_eq!(
        diameter(&Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)])),
        None
    );
    // A long path with one isolated node: the double sweep's first search
    // starts at the highest degree and must notice the node it missed.
    let mut edges: Vec<(usize, usize)> = (0..9).map(|v| (v, v + 1)).collect();
    edges.push((2, 5));
    assert_eq!(diameter(&Graph::from_edges(11, edges)), None);
}

#[test]
fn named_families_match_the_oracle_and_the_formula() {
    for n in 1..=40 {
        assert_eq!(diameter(&Graph::path(n)), Some(n - 1), "P{n}");
        assert_eq!(
            diameter(&Graph::complete(n)),
            Some(usize::from(n > 1)),
            "K{n}"
        );
        assert_eq!(diameter(&Graph::star(n)), Some(n.min(3) - 1), "S{n}");
    }
    for n in 3..=40 {
        let g = Graph::cycle(n);
        assert_eq!(diameter(&g), Some(n / 2), "C{n}");
        assert_eq!(diameter(&g), oracle(&g), "C{n}");
    }
    for rows in 1..=9 {
        for cols in 1..=9 {
            let g = grid(rows, cols);
            assert_eq!(diameter(&g), Some(rows + cols - 2), "{rows}x{cols} grid");
            assert_eq!(diameter(&g), oracle(&g), "{rows}x{cols} grid");
        }
    }
}

#[test]
fn random_trees_match_the_oracle() {
    let mut rng = StdRng::seed_from_u64(2013);
    for case in 0..300 {
        let n = 1 + case % 120;
        let g = random_tree(&mut rng, n);
        assert_eq!(diameter(&g), oracle(&g), "tree case {case}: {g:?}");
    }
}

#[test]
fn random_gnp_graphs_match_the_oracle() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut connected = 0;
    for case in 0..400 {
        let n = 2 + case % 80;
        // Around the connectivity threshold ln n / n, so both outcomes
        // occur, and sparse enough that diameters reach past 2.
        let p = (n as f64).ln() / n as f64 * rng.gen_range(0.7..=2.5);
        let g = gnp(&mut rng, n, p);
        let want = oracle(&g);
        connected += usize::from(want.is_some());
        assert_eq!(diameter(&g), want, "G(n, p) case {case}: {g:?}");
    }
    assert!(connected >= 150, "only {connected} connected cases");
}

#[test]
fn unit_disk_graphs_match_the_oracle() {
    let mut rng = StdRng::seed_from_u64(20_080_617);
    let mut connected = 0;
    for case in 0..250 {
        let n = 10 + case % 150;
        // Average degree from about 4 to 16: thin deployments are
        // disconnected and long, dense ones connected and short.
        let degree = rng.gen_range(4.0..=16.0);
        let side = (std::f64::consts::PI * n as f64 / degree).sqrt();
        let g = unit_disk(&mut rng, n, side);
        let want = oracle(&g);
        connected += usize::from(want.is_some());
        assert_eq!(diameter(&g), want, "unit-disk case {case}: {g:?}");
    }
    assert!(connected >= 80, "only {connected} connected cases");
}
