//! Differential kernel suite: the production phase-2, prune and
//! greedy-growth kernels must be *byte-identical* to reference oracles —
//! same `Solution`s, same connector sequences, same gain traces, same
//! pruned sets, same errors — on every oracle-scale instance and on 200+
//! seeded UDG deployments.
//!
//! The oracles are the original scalar loops, kept here as they ran in
//! production: [`merge_scalar`] rescans every candidate per max-gain
//! selection (confined to a candidate zone, it is the churn maintainer's
//! former connector patch), [`prune_scalar`] re-checks the whole set
//! per removal candidate, [`oracle_grow`] rescans every node per
//! greedy-growth step, and `path_loop::path_connectors` recounts the
//! components before each shortest-path search.  The production kernels
//! are pure accelerators of
//! them: a lazy bucket queue for the phase-2 argmax, incremental cover
//! counts + local cut-vertex certificates for the prune scan, and the
//! m-fold election's lazy heap restricted to gray nodes for growth.
//! The prune scan is also diffed against [`prune_global_pass`], which
//! reruns the masked Tarjan pass after every accepted removal, on every
//! case here and on hostile families built to make its certificates and
//! refreshes fire.  Anything short of bit-equality here is a bug, not a
//! tolerance.

mod path_loop;

use path_loop::check_graph;

use mcds_cds::connect::{
    gain_trace, max_gain_connectors, max_gain_connectors_within, max_gain_then_paths,
    path_connectors, MergeScratch,
};
use mcds_cds::fault::m_fold_dominators;
use mcds_cds::prune::prune_cds;
use mcds_cds::{Algorithm, Cds, CdsError, Solution, Solver};
use mcds_check::oracle::oracle_cases;
use mcds_check::Gen;
use mcds_graph::bitgraph::{masked_articulation_points, ArticulationScratch, BitSet};
use mcds_graph::traversal::{bfs_distances, largest_component};
use mcds_graph::{node_mask, properties, subsets, Graph};
use mcds_mis::BfsMis;
use mcds_rng::rngs::StdRng;
use mcds_rng::{Rng, SeedableRng};
use mcds_udg::{gen, Udg};

/// Outcome of the oracle merge loop: the selections made and the number
/// of components left (1 unless the seed stalled).
struct MergeRun {
    connectors: Vec<usize>,
    remaining: usize,
}

fn stall_error(q: usize) -> CdsError {
    CdsError::Stalled(format!(
        "{q} components remain but no node touches two of them \
         (seed lacks the 2-hop separation property)"
    ))
}

/// Oracle phase 2: one full scan of the candidates `in_zone` accepts
/// per selection.
fn merge_scalar(
    g: &Graph,
    seed: &[usize],
    allow_stall: bool,
    in_zone: impl Fn(usize) -> bool,
) -> Result<MergeRun, CdsError> {
    let mut mask = node_mask(g.num_nodes(), seed);
    let mut dsu = subsets::components_dsu(g, &mask);
    let mut q = subsets::count_components(g, &mask);
    let mut connectors = Vec::new();

    while q > 1 {
        // Find the node with the largest number of distinct adjacent
        // components (gain = that count − 1), ties toward smaller id.
        let mut best: Option<(usize, usize)> = None; // (count, node)
        for w in 0..g.num_nodes() {
            if mask[w] || !in_zone(w) {
                continue;
            }
            let adj = subsets::adjacent_components(g, &mask, &mut dsu, w);
            if adj.len() >= 2 {
                match best {
                    Some((c, _)) if c >= adj.len() => {}
                    _ => best = Some((adj.len(), w)),
                }
            }
        }
        let Some((count, w)) = best else {
            if allow_stall {
                return Ok(MergeRun {
                    connectors,
                    remaining: q,
                });
            }
            return Err(stall_error(q));
        };
        mask[w] = true;
        for u in g.neighbors_iter(w) {
            if mask[u] {
                dsu.union(w, u);
            }
        }
        q = q + 1 - count; // w joins `count` components and itself
        connectors.push(w);
        debug_assert_eq!(q, subsets::count_components(g, &mask));
    }
    Ok(MergeRun {
        connectors,
        remaining: q,
    })
}

/// Oracle for [`max_gain_connectors`].
fn oracle_max_gain_connectors(g: &Graph, seed: &[usize]) -> Result<Vec<usize>, CdsError> {
    check_graph(g)?;
    Ok(merge_scalar(g, seed, false, |_| true)?.connectors)
}

/// Oracle for [`max_gain_then_paths`].
fn oracle_max_gain_then_paths(g: &Graph, seed: &[usize]) -> Result<Vec<usize>, CdsError> {
    check_graph(g)?;
    let mut run = merge_scalar(g, seed, true, |_| true)?;
    if run.remaining > 1 {
        let mut grown: Vec<usize> = seed.to_vec();
        grown.extend(run.connectors.iter().copied());
        run.connectors
            .extend(path_loop::path_connectors(g, &grown)?);
    }
    Ok(run.connectors)
}

/// Oracle for greedy growth ([`Algorithm::GreedyGrowth`]): the loop as
/// it ran in production, rescanning every node per step.  `g` must be
/// non-empty and connected.  Returns the grown set in selection order.
///
/// The seed is the maximum-degree node (ties toward the smaller id); each
/// step adds the neighbor of the current set with the largest number of
/// newly dominated nodes (ties toward the smaller id).  Progress is
/// guaranteed on connected graphs: while some node is undominated, some
/// candidate has positive gain.
fn oracle_grow(g: &Graph) -> Vec<usize> {
    let n = g.num_nodes();
    let seed = (0..n)
        .max_by_key(|&v| (g.degree(v), std::cmp::Reverse(v)))
        .expect("nonempty");

    let mut in_set = vec![false; n];
    let mut dominated = vec![false; n];
    let mut undominated = n;
    let mut set = Vec::new();

    let add = |v: usize,
               in_set: &mut Vec<bool>,
               dominated: &mut Vec<bool>,
               undominated: &mut usize,
               set: &mut Vec<usize>| {
        in_set[v] = true;
        set.push(v);
        if !dominated[v] {
            dominated[v] = true;
            *undominated -= 1;
        }
        for u in g.neighbors_iter(v) {
            if !dominated[u] {
                dominated[u] = true;
                *undominated -= 1;
            }
        }
    };

    add(
        seed,
        &mut in_set,
        &mut dominated,
        &mut undominated,
        &mut set,
    );

    while undominated > 0 {
        // Candidates: dominated non-members adjacent to the set (gray
        // nodes).  Gain = newly dominated nodes.
        let mut best: Option<(usize, usize)> = None; // (gain, node)
        for v in 0..n {
            if in_set[v] || !dominated[v] {
                continue;
            }
            if !g.neighbors_iter(v).any(|u| in_set[u]) {
                continue;
            }
            let gain = g.neighbors_iter(v).filter(|&u| !dominated[u]).count();
            if gain == 0 {
                continue;
            }
            match best {
                Some((bg, bv)) if (bg, std::cmp::Reverse(bv)) >= (gain, std::cmp::Reverse(v)) => {}
                _ => best = Some((gain, v)),
            }
        }
        let (_, v) = best
            .expect("connected graph with undominated nodes always has a positive-gain gray node");
        add(v, &mut in_set, &mut dominated, &mut undominated, &mut set);
    }
    set
}

/// The candidate order every prune scans: ascending `(degree, id)`.
fn scan_order(g: &Graph, set: &[usize]) -> Vec<usize> {
    let mut order = set.to_vec();
    order.sort_by_key(|&v| (g.degree(v), v));
    order
}

/// Oracle prune scan: a full CDS re-check per candidate, `O(n + m)` per
/// attempted removal.
fn prune_scalar(g: &Graph, mut current: Vec<usize>, order: &[usize]) -> Vec<usize> {
    for &v in order {
        if current.len() <= 1 {
            break;
        }
        let candidate: Vec<usize> = current.iter().copied().filter(|&u| u != v).collect();
        if properties::is_connected_dominating_set(g, &candidate) {
            current = candidate;
        }
    }
    current
}

/// Oracle for [`prune_cds`].
fn oracle_prune(g: &Graph, set: &[usize]) -> Result<Vec<usize>, CdsError> {
    mcds_cds::check_cds(g, set)?;
    let current = mcds_graph::node_set(set.iter().copied());
    let order = scan_order(g, &current);
    Ok(prune_scalar(g, current, &order))
}

/// Reference prune: the production scan's cover counts and order, with
/// the cut vertices recomputed by a masked Tarjan pass over all of
/// `G[S]` after every accepted removal.
fn prune_global_pass(g: &Graph, set: &[usize]) -> Result<Vec<usize>, CdsError> {
    mcds_cds::check_cds(g, set)?;
    let current = mcds_graph::node_set(set.iter().copied());
    let order = scan_order(g, &current);
    let n = g.num_nodes();
    let mut in_set = BitSet::from_nodes(n, &current);
    let mut size = current.len();
    let mut cover = vec![0u32; n];
    for &v in &current {
        g.neighbors_iter(v).for_each(|u| cover[u] += 1);
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
        if !g
            .neighbors_iter(v)
            .all(|u| in_set.contains(u) || cover[u] >= 2)
        {
            continue;
        }
        in_set.remove(v);
        size -= 1;
        g.neighbors_iter(v).for_each(|u| cover[u] -= 1);
        masked_articulation_points(g, &in_set, &mut scratch, &mut cut);
    }
    Ok(in_set.to_nodes())
}

/// The production prune of `set` must match the global-pass reference
/// removal for removal, and the scalar oracle too when `with_scalar` (it
/// re-checks the whole graph per candidate, too slow for the largest
/// cases).
fn assert_prune_agrees(g: &Graph, set: &[usize], with_scalar: bool, label: &str) {
    let production = prune_cds(g, set);
    assert_eq!(
        production,
        prune_global_pass(g, set),
        "{label}: prune diverged from the global-pass reference"
    );
    if with_scalar {
        assert_eq!(
            production,
            oracle_prune(g, set),
            "{label}: prune diverged from the scalar oracle"
        );
    }
}

/// Runs both phase-2 routines, greedy growth and the prune post-pass on
/// `g` through the production kernels and the oracles and asserts
/// identical results.
fn assert_kernels_agree(g: &Graph, label: &str) {
    if g.num_nodes() < 2 {
        return;
    }
    // Phase 2 from the paper's BFS-first-fit MIS seed.
    let mis = BfsMis::compute(g, 0).mis().to_vec();
    let a = max_gain_connectors(g, &mis);
    let b = oracle_max_gain_connectors(g, &mis);
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
    let a = max_gain_then_paths(g, &weak);
    let b = oracle_max_gain_then_paths(g, &weak);
    assert_eq!(a, b, "{label}: max_gain_then_paths diverged");
    // Greedy growth: the election queue against the rescan.
    let grown = Solver::new(Algorithm::GreedyGrowth)
        .solve(g)
        .expect("connected instance solves");
    assert_eq!(
        grown.cds(),
        &Cds::new(oracle_grow(g), Vec::new()),
        "{label}: greedy growth diverged"
    );
    // Prune from a lean input (the greedy CDS) and from the fattest
    // possible input (every vertex, if V is connected-dominating).
    let cds = Solver::new(Algorithm::GreedyConnect)
        .solve(g)
        .expect("connected instance solves");
    assert_prune_agrees(g, cds.nodes(), true, &format!("{label} greedy CDS"));
    let all: Vec<usize> = (0..g.num_nodes()).collect();
    assert_prune_agrees(g, &all, true, &format!("{label} V"));
}

/// What `Solver::new(alg).prune(true).verify(true).solve(g)` returns,
/// rebuilt from `unpruned` (the same solve without prune) through the
/// oracles: the growth rescan for greedy growth; otherwise its phase-1
/// dominators, with oracle connectors for the two max-gain algorithms
/// and Chvátal's shortest paths (WAF's tree connectors share no
/// kernel); then the oracle prune.
/// Returns the CDS and `pruned_from`.
fn oracle_solution(g: &Graph, unpruned: &Solution) -> (Cds, Option<usize>) {
    let dominators = match unpruned.algorithm() {
        Algorithm::GreedyGrowth => oracle_grow(g),
        _ => unpruned.cds().dominators().to_vec(),
    };
    let connectors = match unpruned.algorithm() {
        Algorithm::GreedyConnect => oracle_max_gain_connectors(g, &dominators),
        Algorithm::ArbitraryMis => oracle_max_gain_then_paths(g, &dominators),
        Algorithm::ChvatalSetCover => path_loop::path_connectors(g, &dominators),
        _ => Ok(unpruned.cds().connectors().to_vec()),
    }
    .expect("oracle phase 2 connects a connected graph");
    let cds = Cds::new(dominators, connectors);
    let kept = oracle_prune(g, cds.nodes()).expect("phase 2 yields a CDS");
    if kept.len() == cds.len() {
        return (cds, None);
    }
    let keep = |v: &&usize| kept.binary_search(v).is_ok();
    let pruned = Cds::new(
        cds.dominators().iter().filter(keep).copied().collect(),
        cds.connectors().iter().filter(keep).copied().collect(),
    );
    (pruned, Some(cds.len()))
}

/// Solves `g` with `alg` (prune and verify on) and asserts the
/// `Solution` — CDS nodes, phase roles, `pruned_from`, algorithm — is
/// the oracles' and the pruned set the global-pass reference's.
fn assert_solution_agrees(g: &Graph, alg: Algorithm, label: &str) {
    let production = Solver::new(alg)
        .prune(true)
        .verify(true)
        .solve(g)
        .expect("connected instance solves");
    let unpruned = Solver::new(alg)
        .solve(g)
        .expect("connected instance solves");
    let (cds, pruned_from) = oracle_solution(g, &unpruned);
    assert_eq!(production.algorithm(), alg);
    assert_eq!(
        (production.cds(), production.pruned_from()),
        (&cds, pruned_from),
        "{label} {alg:?}: solution diverged from the oracles"
    );
    assert_eq!(
        Ok(production.nodes().to_vec()),
        prune_global_pass(g, unpruned.nodes()),
        "{label} {alg:?}: prune diverged from the global-pass reference"
    );
}

/// The giant-component UDG of a seeded deployment, or `None` if it is
/// too small to make a CDS instance.
fn giant_graph(points: Vec<mcds_geom::Point>) -> Option<Udg> {
    let udg = Udg::build(points);
    let giant = largest_component(udg.graph());
    (giant.len() >= 2).then(|| udg.restricted_to(&giant))
}

/// Every `mcds-check` oracle case (the ≤18-node instances the exact
/// differential suite uses) agrees with the oracles on connectors, gain
/// traces, stall behavior, pruning and greedy growth.
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
/// run through the full `Solver` (all five constructions, prune on); the
/// `Solution` values must be the oracles'.
#[test]
fn solver_solutions_identical_on_200_udg_instances() {
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
            checked += 1;
            for alg in Algorithm::ALL {
                assert_solution_agrees(sub.graph(), alg, &format!("{family} seed {seed} n {n}"));
            }
        }
    }
    assert!(checked >= 200, "only {checked} usable instances");
}

/// The four instances `mcds-cli gen` builds for the verify.sh `kernel`
/// stage's former cross-process diff, built in process the same way:
/// uniform n = 200 and 1500, a 1500-node chain and a 1500-node perturbed
/// grid.  The last two have backbones that are chains of cut vertices,
/// where the prune's leaf rule and pass refreshes fire.
#[test]
fn cli_gen_instances_agree_across_kernels() {
    let mut cases: Vec<(Udg, &str)> = Vec::new();
    for (n, side, seed, label) in [
        (200, 7.9, 31, "uniform200"),
        (1500, 21.7, 32, "uniform1500"),
    ] {
        let mut rng = StdRng::seed_from_u64(seed);
        let udg = gen::connected_uniform(&mut rng, n, side, 100).expect("connected instance");
        cases.push((udg, label));
    }
    cases.push((Udg::build(gen::linear_chain(1500, 1.0)), "chain1500"));
    let cols = (1500f64).sqrt().ceil() as usize;
    let rows = 1500usize.div_ceil(cols);
    let mut rng = StdRng::seed_from_u64(1);
    let grid = gen::perturbed_grid(&mut rng, rows, cols, 0.8, 0.1);
    cases.push((Udg::build(grid), "grid1500"));
    for (udg, label) in &cases {
        for alg in Algorithm::ALL {
            assert_solution_agrees(udg.graph(), alg, label);
        }
    }
}

/// The at-scale identity E25 used to assert: E19's recipe (giant
/// component of a uniform deployment at average degree ≈ 10, seed
/// 20080617) at n = 5 000 and 10 000, `GreedyConnect` and
/// `GreedyGrowth` with prune.  The scalar oracles take seconds here even
/// in release builds.
#[test]
#[ignore = "release-scale scalar oracle; run with --include-ignored"]
fn e19_ladder_agrees_across_kernels_at_scale() {
    for n in [5_000usize, 10_000] {
        let side = (n as f64 * std::f64::consts::PI / 10.0).sqrt();
        let mut rng = StdRng::seed_from_u64(20_080_617 ^ n as u64);
        let udg = gen::giant_component_instance(&mut rng, n, side);
        for alg in [Algorithm::GreedyConnect, Algorithm::GreedyGrowth] {
            assert_solution_agrees(udg.graph(), alg, &format!("E19 n {n}"));
        }
    }
}

/// The stall diagnostic is part of the contract: a seed without the
/// 2-hop separation property must produce the oracle's `Stalled` error,
/// and the path fallback must pick the oracle's nodes.
#[test]
fn stall_and_error_cases_agree() {
    let g = Graph::path(7);
    let a = max_gain_connectors(&g, &[0, 6]).unwrap_err();
    let b = oracle_max_gain_connectors(&g, &[0, 6]).unwrap_err();
    assert!(matches!(a, CdsError::Stalled(_)));
    assert_eq!(a, b);
    let a = max_gain_then_paths(&g, &[0, 6]).unwrap();
    let b = oracle_max_gain_then_paths(&g, &[0, 6]).unwrap();
    assert_eq!(a, b);
    // Three-hop arbitrary MIS: merge partially, then path out.
    let g = Graph::path(6);
    let a = max_gain_then_paths(&g, &[0, 3, 5]).unwrap();
    let b = oracle_max_gain_then_paths(&g, &[0, 3, 5]).unwrap();
    assert_eq!(a, b);
    // An empty seed has no components to connect.
    assert_eq!(max_gain_connectors(&g, &[]), Ok(Vec::new()));
    assert_eq!(oracle_max_gain_connectors(&g, &[]), Ok(Vec::new()));
}

/// `path_connectors` runs one shortest-bridge search per path; the
/// oracle loop recounts and relabels the components before each one.
/// On every oracle case, whole (a disconnected deployment must fail
/// alike) and as its giant, the two agree from the BFS first-fit MIS,
/// Chvátal's dominators, the m-fold dominators at m = 2 and 3, and
/// arbitrary node subsets (empty and whole sets included).
#[test]
fn path_connectors_match_the_path_loop() {
    let gen = oracle_cases(18);
    let mut connected = 0usize;
    for seed in 0..150u64 {
        let mut rng = StdRng::from_stream(seed, 0x9a7b);
        let case = gen.generate(&mut rng);
        let udg = Udg::build(case.points);
        let mut graphs = vec![(udg.graph().clone(), "whole")];
        let giant = largest_component(udg.graph());
        if giant.len() >= 2 {
            connected += 1;
            graphs.push((udg.restricted_to(&giant).graph().clone(), "giant"));
        }
        for (g, part) in &graphs {
            let n = g.num_nodes();
            let mut seeds = vec![
                mcds_cds::chvatal_dominating_set(g),
                m_fold_dominators(g, 2),
                m_fold_dominators(g, 3),
                Vec::new(),
                (0..n).collect(),
            ];
            if n > 0 {
                seeds.push(BfsMis::compute(g, 0).mis().to_vec());
            }
            for _ in 0..4 {
                let keep = rng.gen_range(0..=n);
                seeds.push((0..n).filter(|_| rng.gen_range(0..=n) < keep).collect());
            }
            for seed_set in &seeds {
                assert_eq!(
                    path_connectors(g, seed_set),
                    path_loop::path_connectors(g, seed_set),
                    "oracle seed {seed} {:?} {part}: seed {seed_set:?}",
                    case.kind
                );
            }
        }
    }
    assert!(connected >= 100, "only {connected} connected oracle cases");
}

/// Hostile structured topologies: hubs, cliques, paths, cycles, and
/// word-boundary sizes (63/64/65 nodes) where a bitset padding bug
/// would bite; plus the 12 seeded UDGs of 60–280 nodes the prune unit
/// tests use.
#[test]
fn structured_graphs_agree_across_kernels() {
    let star = |n: usize| Graph::from_edges(n, (1..n).map(|v| (0, v)).collect::<Vec<_>>());
    let mut cases = vec![
        (Graph::path(9), "path9".to_string()),
        (Graph::path(10), "path10".into()),
        (Graph::path(40), "path40".into()),
        (Graph::path(63), "path63".into()),
        (Graph::path(64), "path64".into()),
        (Graph::path(65), "path65".into()),
        (Graph::cycle(12), "cycle12".into()),
        (Graph::cycle(30), "cycle30".into()),
        (Graph::cycle(64), "cycle64".into()),
        (Graph::complete(8), "k8".into()),
        (Graph::complete(12), "k12".into()),
        (Graph::complete(20), "k20".into()),
        (star(7), "star7".into()),
        (star(65), "star65".into()),
    ];
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 60 + 20 * seed as usize;
        let side = (n as f64 * std::f64::consts::PI / 10.0).sqrt();
        let udg = gen::giant_component_instance(&mut rng, n, side);
        cases.push((udg.graph().clone(), format!("udg seed {seed} n {n}")));
    }
    for (g, label) in &cases {
        assert_kernels_agree(g, label);
    }
}

/// The churn maintainer's connector patch: the confined kernel must pick
/// the zoned rescan's connector sequence, and stall where it stalls, on
/// 400+ seeded giants.  Each case deletes the members of a greedy CDS
/// within 1–2 hops of one or two sites and re-dominates first-fit, then
/// confines the candidates to a 1–4-hop ball around the sites, as the
/// maintainer does, or to a random subset of the nodes.
#[test]
fn confined_merges_agree_with_the_zoned_rescan() {
    let (mut checked, mut stalls, mut patched) = (0usize, 0usize, 0usize);
    // One scratch across every case, as the maintainer keeps it: each
    // call must leave it clean for the next, whatever the graph's size.
    let mut scratch = MergeScratch::default();
    for seed in 0..440u64 {
        let mut rng = StdRng::from_stream(seed, 0xc0f1);
        let n = 40 + (seed as usize % 9) * 20; // 40..200
        let side = (n as f64 * std::f64::consts::PI / 10.0).sqrt();
        let Some(sub) = giant_graph(gen::uniform_in_square(&mut rng, n, side)) else {
            continue;
        };
        let g = sub.graph();
        let n = g.num_nodes();
        let cds = Solver::new(Algorithm::GreedyConnect)
            .solve(g)
            .expect("connected instance solves");
        let sites: Vec<usize> = (0..rng.gen_range(1..=2usize))
            .map(|_| rng.gen_range(0..n))
            .collect();
        let dists: Vec<Vec<usize>> = sites.iter().map(|&s| bfs_distances(g, s)).collect();
        let hop: Vec<usize> = (0..n)
            .map(|v| dists.iter().map(|d| d[v]).min().expect("one or two sites"))
            .collect();
        let cut = rng.gen_range(1..=2usize);
        let mut kept = node_mask(n, cds.nodes());
        for v in 0..n {
            kept[v] &= hop[v] > cut;
        }
        // First-fit re-domination, as the maintainer's re-election does.
        for v in 0..n {
            if !kept[v] && !g.neighbors_iter(v).any(|u| kept[u]) {
                kept[v] = true;
            }
        }
        let backbone: Vec<usize> = (0..n).filter(|&v| kept[v]).collect();
        let zone: Vec<bool> = if seed % 2 == 0 {
            let radius = rng.gen_range(1..=4usize);
            hop.iter().map(|&h| h <= radius).collect()
        } else {
            let p = rng.gen_range(0.4..0.95);
            (0..n).map(|_| rng.gen_bool(p)).collect()
        };
        let zone_list: Vec<usize> = (0..n).filter(|&w| zone[w]).collect();
        let got = max_gain_connectors_within(g, &backbone, &zone_list, &mut scratch);
        let want = merge_scalar(g, &backbone, false, |w| zone[w]).map(|run| run.connectors);
        assert_eq!(got, want, "seed {seed} n {n}: confined merge diverged");
        match got {
            Err(_) => stalls += 1,
            Ok(c) if !c.is_empty() => patched += 1,
            Ok(_) => {}
        }
        checked += 1;
    }
    assert!(checked >= 400, "only {checked} usable giants");
    assert!(
        stalls >= 20 && patched >= 200,
        "{stalls} stalls and {patched} non-empty patches in {checked} cases"
    );
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

/// Topologies built to make the prune's local certificates and refreshes
/// fire — long paths and cycles pruned from `V`, combs with long
/// dangling teeth, clusters joined by a chain, thin corridors — must
/// prune exactly as the global-pass reference does, and as the scalar
/// oracle on the cases of at most 2 000 nodes.
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
            let cds = Solver::new(Algorithm::GreedyConnect)
                .solve(g)
                .expect("connected family solves");
            assert_prune_agrees(g, cds.nodes(), true, &format!("{label} greedy CDS"));
        }
    }
}
