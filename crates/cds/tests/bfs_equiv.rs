//! Differential suite for the paper's phase 1: the level-synchronous
//! [`BfsTree`] and the first-fit MIS over its order must be
//! *byte-identical* to the loops they replaced — same visit rank order,
//! same canonical parents, same levels and depth, same MIS, same ranks —
//! at every root of every `mcds-check` oracle case, on seeded
//! deployments, and on structured and disconnected graphs.
//!
//! The oracle is the former production code, kept here as it ran: a
//! FIFO breadth-first search, a second pass that picks each node's
//! smallest-id neighbor one level up as its parent ([`oracle_rooted_at`]),
//! and a sort of the visit order by `(level, id)`
//! ([`oracle_rank_order`]), over which the MIS was taken first-fit.

use mcds_check::oracle::oracle_cases;
use mcds_check::Gen;
use mcds_graph::traversal::BfsTree;
use mcds_graph::Graph;
use mcds_mis::{first_fit, BfsMis};
use mcds_rng::rngs::StdRng;
use mcds_rng::SeedableRng;
use mcds_udg::{gen, Udg};

/// The former `BfsTree`'s fields.
struct OracleTree {
    parent: Vec<Option<usize>>,
    level: Vec<usize>,
    order: Vec<usize>,
}

/// The former `BfsTree::rooted_at`: FIFO queue, then canonical parents.
fn oracle_rooted_at(g: &Graph, root: usize) -> OracleTree {
    let n = g.num_nodes();
    assert!(root < n, "root {root} out of range for n = {n}");
    let mut parent = vec![None; n];
    let mut level = vec![usize::MAX; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = std::collections::VecDeque::new();
    level[root] = 0;
    queue.push_back(root);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for u in g.neighbors_iter(v) {
            if level[u] == usize::MAX {
                level[u] = level[v] + 1;
                queue.push_back(u);
            }
        }
    }
    // Canonical parents: min-id neighbor one level up.
    for &v in &order {
        if v == root {
            continue;
        }
        parent[v] = g.neighbors_iter(v).find(|&u| level[u] + 1 == level[v]);
    }
    OracleTree {
        parent,
        level,
        order,
    }
}

/// The former `BfsTree::rank_order`: the visit order sorted by
/// `(level, id)`.
fn oracle_rank_order(t: &OracleTree) -> Vec<usize> {
    let mut v: Vec<usize> = t.order.clone();
    v.sort_by_key(|&x| (t.level[x], x));
    v
}

/// The former `BfsTree::depth`.
fn oracle_depth(t: &OracleTree) -> usize {
    t.order.iter().map(|&v| t.level[v]).max().unwrap_or(0)
}

/// Asserts that the production tree and MIS from `root` are the
/// oracle's.
fn assert_phase1_agrees(g: &Graph, root: usize, label: &str) {
    let n = g.num_nodes();
    let old = oracle_rooted_at(g, root);
    let rank_order = oracle_rank_order(&old);
    let new = BfsTree::rooted_at(g, root);
    assert_eq!(new.root(), root, "{label} root {root}");
    assert_eq!(new.order(), &rank_order[..], "{label} root {root}: order");
    assert_eq!(
        new.reached(),
        old.order.len(),
        "{label} root {root}: reached"
    );
    assert_eq!(
        new.depth(),
        oracle_depth(&old),
        "{label} root {root}: depth"
    );
    for v in 0..n {
        assert_eq!(
            new.parent(v),
            old.parent[v],
            "{label} root {root}: parent({v})"
        );
        let level = (old.level[v] != usize::MAX).then_some(old.level[v]);
        assert_eq!(new.level(v), level, "{label} root {root}: level({v})");
    }
    let mis = BfsMis::compute(g, root);
    assert_eq!(
        mis.mis(),
        &first_fit(g, &rank_order)[..],
        "{label} root {root}: mis"
    );
    let mut rank = vec![None; n];
    for (r, &v) in rank_order.iter().enumerate() {
        rank[v] = Some(r);
    }
    for (v, &r) in rank.iter().enumerate() {
        assert_eq!(mis.rank(v), r, "{label} root {root}: rank({v})");
    }
}

/// The roots a larger case is checked at: the first and last node and a
/// few in between.
fn some_roots(n: usize) -> Vec<usize> {
    let mut roots = vec![0, n / 3, n / 2, (2 * n) / 3, n - 1];
    roots.dedup();
    roots
}

/// Every root of every `mcds-check` oracle case (≤ 18 nodes), whole UDG
/// included: a deployment's isolated nodes and small components make
/// some roots reach only part of the graph.
#[test]
fn oracle_cases_agree_at_every_root() {
    let gen = oracle_cases(18);
    let mut disconnected = 0usize;
    for seed in 0..200u64 {
        let mut rng = StdRng::from_stream(seed, 0xbf5);
        let case = gen.generate(&mut rng);
        let udg = Udg::build(case.points);
        let g = udg.graph();
        disconnected += usize::from(!g.is_connected());
        for root in 0..g.num_nodes() {
            assert_phase1_agrees(g, root, &format!("oracle seed {seed} {:?}", case.kind));
        }
    }
    assert!(disconnected >= 10, "only {disconnected} disconnected cases");
}

/// Seeded uniform, clustered and corridor deployments of 40–1 500 nodes,
/// whole (often disconnected) and as giant components.
#[test]
fn seeded_deployments_agree() {
    for family in ["uniform", "clustered", "corridor"] {
        for seed in 0..30u64 {
            let mut rng = StdRng::from_stream(seed, 0xbf6);
            let n = 40 + (seed as usize % 6) * 60 + if seed % 10 == 9 { 1_200 } else { 0 };
            let side = (n as f64 * std::f64::consts::PI / 10.0).sqrt();
            let points = match family {
                "uniform" => gen::uniform_in_square(&mut rng, n, side),
                "clustered" => {
                    let clusters = (n / 20).max(2);
                    gen::clustered(&mut rng, clusters, n / clusters, side, 0.8)
                }
                "corridor" => gen::corridor(&mut rng, n, 3.0 * side, side / 3.0),
                _ => unreachable!(),
            };
            let udg = Udg::build(points);
            let label = format!("{family} seed {seed} n {n}");
            for root in some_roots(udg.len()) {
                assert_phase1_agrees(udg.graph(), root, &label);
            }
            let giant = gen::giant_component_instance(&mut rng, n, side);
            for root in some_roots(giant.len()) {
                assert_phase1_agrees(giant.graph(), root, &format!("{label} giant"));
            }
        }
    }
}

/// Paths, cycles, cliques, stars, grids and a chain of cliques at every
/// root, and disconnected graphs with isolated nodes at every root.
#[test]
fn structured_and_disconnected_graphs_agree() {
    let star = |n: usize| Graph::from_edges(n, (1..n).map(|v| (0, v)).collect::<Vec<_>>());
    let grid = |rows: usize, cols: usize| {
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let v = r * cols + c;
                if c + 1 < cols {
                    edges.push((v, v + 1));
                }
                if r + 1 < rows {
                    edges.push((v, v + cols));
                }
            }
        }
        Graph::from_edges(rows * cols, edges)
    };
    // Cliques of 5 joined in a chain through their last and first nodes.
    let clique_chain = |k: usize| {
        let mut edges = Vec::new();
        for c in 0..k {
            for a in 0..5 {
                for b in a + 1..5 {
                    edges.push((5 * c + a, 5 * c + b));
                }
            }
            if c + 1 < k {
                edges.push((5 * c + 4, 5 * (c + 1)));
            }
        }
        Graph::from_edges(5 * k, edges)
    };
    let cases = [
        (Graph::empty(1), "single"),
        (Graph::empty(4), "four isolated"),
        (Graph::path(2), "path2"),
        (Graph::path(17), "path17"),
        (Graph::cycle(12), "cycle12"),
        (Graph::cycle(13), "cycle13"),
        (Graph::complete(9), "k9"),
        (star(12), "star12"),
        (grid(7, 9), "grid7x9"),
        (clique_chain(6), "clique chain"),
        (
            Graph::from_edges(9, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (7, 8)]),
            "triangle, isolated 3, path 4-5-6, edge 7-8",
        ),
        (
            Graph::from_edges(
                12,
                [
                    (0, 5),
                    (5, 9),
                    (9, 2),
                    (2, 0),
                    (1, 7),
                    (7, 11),
                    (3, 10),
                    (10, 6),
                    (6, 3),
                ],
            ),
            "three interleaved components",
        ),
    ];
    for (g, label) in &cases {
        for root in 0..g.num_nodes() {
            assert_phase1_agrees(g, root, label);
        }
    }
}
