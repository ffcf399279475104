//! Differential kernel suite: the scalar and bitset hot-path kernels
//! must be *byte-identical* — same `Solution`s, same connector
//! sequences, same gain traces, same pruned sets, same errors — on every
//! oracle-scale instance and on 200+ seeded UDG deployments.
//!
//! The bitset kernels (`mcds_cds::kernel`) are pure accelerators: a lazy
//! bucket queue for the phase-2 argmax and incremental cover counts +
//! local cut-vertex certificates for the prune scan.  The prune scan is
//! also diffed against [`prune_global_pass`], a reference that reruns
//! the masked Tarjan pass after every accepted removal, on every case
//! here and on hostile families built to make its certificates and
//! refreshes fire.  Anything short of bit-equality here is a bug, not a
//! tolerance.

use std::sync::Mutex;

use mcds_cds::connect::{gain_trace, max_gain_connectors_with, max_gain_then_paths_with};
use mcds_cds::kernel::{self, Kernel};
use mcds_cds::prune::prune_cds_with;
use mcds_cds::{Algorithm, CdsError, Solver};
use mcds_check::oracle::oracle_cases;
use mcds_check::Gen;
use mcds_graph::bitgraph::{masked_articulation_points, ArticulationScratch, BitSet};
use mcds_graph::traversal::largest_component;
use mcds_graph::{Graph, RandomAccessGraph};
use mcds_mis::BfsMis;
use mcds_rng::rngs::StdRng;
use mcds_rng::SeedableRng;
use mcds_udg::{gen, Udg};

/// Serializes tests that flip the process-global kernel override.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// RAII: forces a kernel, restores auto selection on drop (even if the
/// assertion in between panics, so later tests aren't poisoned).
struct Forced;

impl Forced {
    fn new(k: Kernel) -> Forced {
        kernel::set_override(Some(k));
        Forced
    }
}

impl Drop for Forced {
    fn drop(&mut self) {
        kernel::set_override(None);
    }
}

/// Reference prune: the bitset kernel's cover counts and `(degree, id)`
/// order, with the cut vertices recomputed by a masked Tarjan pass over
/// all of `G[S]` after every accepted removal.
fn prune_global_pass<G: RandomAccessGraph>(g: &G, set: &[usize]) -> Result<Vec<usize>, CdsError> {
    mcds_cds::check_cds(g, set)?;
    let current = mcds_graph::node_set(set.iter().copied());
    let mut order = current.clone();
    order.sort_by_key(|&v| (g.degree(v), v));
    let n = g.num_nodes();
    let mut in_set = BitSet::from_nodes(n, &current);
    let mut size = current.len();
    let mut cover = vec![0u32; n];
    for &v in &current {
        g.successors(v).for_each(|u| cover[u] += 1);
    }
    let mut scratch = ArticulationScratch::new();
    let mut cut = BitSet::new(n);
    masked_articulation_points(g, &in_set, &mut scratch, &mut cut);
    for &v in &order {
        if size <= 1 {
            break;
        }
        if !in_set.contains(v) || cover[v] == 0 || cut.contains(v) {
            continue;
        }
        if !g.successors(v).all(|u| in_set.contains(u) || cover[u] >= 2) {
            continue;
        }
        in_set.remove(v);
        size -= 1;
        g.successors(v).for_each(|u| cover[u] -= 1);
        masked_articulation_points(g, &in_set, &mut scratch, &mut cut);
    }
    Ok(in_set.to_nodes())
}

/// The bitset prune of `set` must match the reference removal for
/// removal, and the scalar kernel too when `with_scalar` (it re-checks
/// the whole graph per candidate, too slow for the largest cases).
fn assert_prune_agrees(g: &Graph, set: &[usize], with_scalar: bool, label: &str) {
    let bitset = prune_cds_with(g, set, Kernel::Bitset);
    assert_eq!(
        bitset,
        prune_global_pass(g, set),
        "{label}: prune diverged from the global-pass reference"
    );
    if with_scalar {
        let scalar = prune_cds_with(g, set, Kernel::Scalar);
        assert_eq!(scalar, bitset, "{label}: prune kernels diverged");
    }
}

/// Runs both phase-2 routines and the prune post-pass on `g` through both
/// kernels with explicit dispatch and asserts identical results.
fn assert_kernels_agree(g: &Graph, label: &str) {
    if g.num_nodes() < 2 {
        return;
    }
    // Phase 2 from the paper's BFS-first-fit MIS seed.
    let mis = BfsMis::compute(g, 0).mis().to_vec();
    let a = max_gain_connectors_with(g, &mis, Kernel::Scalar);
    let b = max_gain_connectors_with(g, &mis, Kernel::Bitset);
    assert_eq!(a, b, "{label}: max_gain_connectors diverged");
    if let Ok(conn) = &a {
        assert_eq!(
            gain_trace(g, &mis, conn),
            gain_trace(g, &mis, b.as_ref().unwrap()),
            "{label}: gain traces diverged"
        );
    }
    // The stall-tolerant variant from a weaker seed (set-cover
    // dominators can sit 3 hops apart and force the path fallback).
    let weak = mcds_cds::chvatal_dominating_set(g);
    let a = max_gain_then_paths_with(g, &weak, Kernel::Scalar);
    let b = max_gain_then_paths_with(g, &weak, Kernel::Bitset);
    assert_eq!(a, b, "{label}: max_gain_then_paths diverged");
    // Prune from a lean input (the greedy CDS) and from the fattest
    // possible input (every vertex, if V is connected-dominating).
    let cds = mcds_cds::greedy_cds(g).expect("connected instance solves");
    assert_prune_agrees(g, cds.nodes(), true, &format!("{label} greedy CDS"));
    let all: Vec<usize> = (0..g.num_nodes()).collect();
    assert_prune_agrees(g, &all, true, &format!("{label} V"));
}

/// The giant-component UDG of a seeded deployment, or `None` if it is
/// too small to make a CDS instance.
fn giant_graph(points: Vec<mcds_geom::Point>) -> Option<Udg> {
    let udg = Udg::build(points);
    let giant = largest_component(udg.graph());
    (giant.len() >= 2).then(|| udg.restricted_to(&giant))
}

/// Every `mcds-check` oracle case (the ≤18-node instances the exact
/// differential suite uses) agrees across kernels on connectors, gain
/// traces, stall behavior, and pruning.
#[test]
fn oracle_cases_agree_across_kernels() {
    let gen = oracle_cases(18);
    let mut checked = 0usize;
    for seed in 0..150u64 {
        let mut rng = StdRng::from_stream(seed, 0xb175);
        let case = gen.generate(&mut rng);
        let Some(sub) = giant_graph(case.points) else {
            continue;
        };
        checked += 1;
        assert_kernels_agree(sub.graph(), &format!("oracle seed {seed} {:?}", case.kind));
    }
    assert!(checked >= 100, "only {checked} usable oracle cases");
}

/// 200+ seeded uniform/clustered/corridor deployments at realistic sizes
/// run through the full `Solver` (all five constructions, prune on)
/// under each forced kernel; the `Solution` values — CDS nodes, phase
/// roles, pruned_from, algorithm — must be byte-identical.
#[test]
fn solver_solutions_identical_on_200_udg_instances() {
    let guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut checked = 0usize;
    for family in ["uniform", "clustered", "corridor"] {
        for seed in 0..70u64 {
            let mut rng = StdRng::from_stream(seed, 0x817e);
            let n = 40 + (seed as usize % 7) * 20; // 40..160
            let side = (n as f64 * std::f64::consts::PI / 12.0).sqrt();
            let points = match family {
                "uniform" => gen::uniform_in_square(&mut rng, n, side),
                "clustered" => {
                    let clusters = (n / 20).max(2);
                    gen::clustered(&mut rng, clusters, n / clusters, side, 0.8)
                }
                "corridor" => gen::corridor(&mut rng, n, 3.0 * side, side / 3.0),
                _ => unreachable!(),
            };
            let Some(sub) = giant_graph(points) else {
                continue;
            };
            let g = sub.graph();
            checked += 1;
            for alg in Algorithm::ALL {
                let scalar = {
                    let _f = Forced::new(Kernel::Scalar);
                    Solver::new(alg).prune(true).verify(true).solve(g)
                };
                let bitset = {
                    let _f = Forced::new(Kernel::Bitset);
                    Solver::new(alg).prune(true).verify(true).solve(g)
                };
                assert_eq!(
                    scalar, bitset,
                    "{family} seed {seed} n {n} {alg:?}: solutions diverged"
                );
                if let Ok(unpruned) = Solver::new(alg).solve(g) {
                    assert_eq!(
                        bitset.map(|s| s.nodes().to_vec()),
                        prune_global_pass(g, unpruned.nodes()),
                        "{family} seed {seed} n {n} {alg:?}: prune diverged from the reference"
                    );
                }
            }
        }
    }
    assert!(checked >= 200, "only {checked} usable instances");
    drop(guard);
}

/// The stall diagnostic is part of the contract: a seed without the
/// 2-hop separation property must produce the identical `Stalled` error
/// from both kernels, and the path fallback must pick identical nodes.
#[test]
fn stall_and_error_cases_agree() {
    let g = Graph::path(7);
    let a = max_gain_connectors_with(&g, &[0, 6], Kernel::Scalar).unwrap_err();
    let b = max_gain_connectors_with(&g, &[0, 6], Kernel::Bitset).unwrap_err();
    assert!(matches!(a, CdsError::Stalled(_)));
    assert_eq!(a, b);
    let a = max_gain_then_paths_with(&g, &[0, 6], Kernel::Scalar).unwrap();
    let b = max_gain_then_paths_with(&g, &[0, 6], Kernel::Bitset).unwrap();
    assert_eq!(a, b);
    // Three-hop arbitrary MIS: merge partially, then path out.
    let g = Graph::path(6);
    let a = max_gain_then_paths_with(&g, &[0, 3, 5], Kernel::Scalar).unwrap();
    let b = max_gain_then_paths_with(&g, &[0, 3, 5], Kernel::Bitset).unwrap();
    assert_eq!(a, b);
}

/// Hostile structured topologies: hubs, cliques, cycles, and word-
/// boundary sizes (63/64/65 nodes) where a bitset padding bug would bite.
#[test]
fn structured_graphs_agree_across_kernels() {
    let star = Graph::from_edges(65, (1..65).map(|v| (0, v)).collect::<Vec<_>>());
    for (g, label) in [
        (Graph::path(63), "path63"),
        (Graph::path(64), "path64"),
        (Graph::path(65), "path65"),
        (Graph::cycle(64), "cycle64"),
        (Graph::complete(20), "k20"),
        (star, "star65"),
    ] {
        assert_kernels_agree(&g, label);
    }
}

/// The threshold-zero route: with the override pinned to bitset, the
/// public (auto-selecting) entry points run the bitset kernels even far
/// below the size threshold and still match forced-scalar output.
#[test]
fn forced_override_matches_scalar_on_public_entry_points() {
    let guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let g = Graph::cycle(30);
    let mis = BfsMis::compute(&g, 0).mis().to_vec();
    let scalar_conn = {
        let _f = Forced::new(Kernel::Scalar);
        mcds_cds::connect::max_gain_connectors(&g, &mis).unwrap()
    };
    let bitset_conn = {
        let _f = Forced::new(Kernel::Bitset);
        mcds_cds::connect::max_gain_connectors(&g, &mis).unwrap()
    };
    assert_eq!(scalar_conn, bitset_conn);
    let all: Vec<usize> = (0..30).collect();
    let scalar_prune = {
        let _f = Forced::new(Kernel::Scalar);
        mcds_cds::prune::prune_cds(&g, &all).unwrap()
    };
    let bitset_prune = {
        let _f = Forced::new(Kernel::Bitset);
        mcds_cds::prune::prune_cds(&g, &all).unwrap()
    };
    assert_eq!(scalar_prune, bitset_prune);
    drop(guard);
}

/// A spine path of `spine` nodes, each carrying a dangling path (tooth)
/// of `tooth` nodes.
fn comb(spine: usize, tooth: usize) -> Graph {
    let n = spine * (tooth + 1);
    let mut edges: Vec<(usize, usize)> = (1..spine).map(|i| (i - 1, i)).collect();
    for i in 0..spine {
        let mut prev = i;
        for t in 0..tooth {
            let node = spine + i * tooth + t;
            edges.push((prev, node));
            prev = node;
        }
    }
    Graph::from_edges(n, edges)
}

/// Two `k`-cliques joined through a chain of `chain` nodes.
fn clusters_on_a_chain(k: usize, chain: usize) -> Graph {
    let n = 2 * k + chain;
    let mut edges = Vec::new();
    for base in [0, k + chain] {
        for a in base..base + k {
            edges.extend((a + 1..base + k).map(|b| (a, b)));
        }
    }
    // Clique node k-1, then the chain k..k+chain, then clique node k+chain.
    edges.extend((k - 1..k + chain).map(|i| (i, i + 1)));
    Graph::from_edges(n, edges)
}

/// Topologies built to make the bitset prune's local certificates and
/// refreshes fire — long paths and cycles pruned from `V`, combs with
/// long dangling teeth, clusters joined by a chain, thin corridors —
/// must prune exactly as the global-pass reference does, above the
/// scalar threshold and (for the row-free tier) above the packed-row one.
#[test]
fn hostile_families_match_the_global_pass_reference() {
    let mut cases: Vec<(Graph, String)> = Vec::new();
    for n in [600, 9_000] {
        cases.push((Graph::path(n), format!("path{n}")));
        cases.push((Graph::cycle(n), format!("cycle{n}")));
    }
    cases.push((comb(40, 30), "comb40x30".into()));
    cases.push((comb(300, 2), "comb300x2".into()));
    cases.push((clusters_on_a_chain(30, 500), "clusters30+chain500".into()));
    for (seed, n) in [(1u64, 600), (2, 800)] {
        let mut rng = StdRng::from_stream(seed, 0xc0dd);
        // Width 0.6 < radius: nodes meet only along the corridor, ten
        // per unit of length (dense enough to keep one giant component).
        let points = gen::corridor(&mut rng, n, n as f64 / 10.0, 0.6);
        let sub = giant_graph(points).expect("corridor has a giant component");
        cases.push((sub.graph().clone(), format!("corridor seed {seed} n {n}")));
    }
    for (g, label) in &cases {
        // The scalar prune and the greedy solve are too slow for the
        // 9 000-node cases in unoptimized test builds.
        let small = g.num_nodes() <= 2_000;
        let all: Vec<usize> = (0..g.num_nodes()).collect();
        assert_prune_agrees(g, &all, small, &format!("{label} V"));
        if small {
            let cds = mcds_cds::greedy_cds(g).expect("connected family solves");
            assert_prune_agrees(g, cds.nodes(), true, &format!("{label} greedy CDS"));
        }
    }
}
