//! Differential suite for the fault-tolerant `(k, m)` family: its
//! production phases must be *byte-identical* to the loops they replaced
//! — same dominators, connector sets, pruned sets, `Solution`s and error
//! values, `NotBiconnected` cuts included — on every `mcds-check` oracle
//! case, 200+ seeded deployments and the structured, hostile and
//! disconnected inputs below, at m ∈ {1, 2, 3} with `biconnect` on and
//! off, under unit, degree, random, all-zero, all-equal and sparse-zero
//! weights.
//!
//! The oracles are the original loops, kept here as they ran in
//! production:
//!
//! * [`oracle_m_fold_dominators`] rescans every node per election, and
//!   [`oracle_chvatal`] is Chvátal's own rescan (now the m = 1 election
//!   with unit weights);
//! * [`oracle_connectors`] rebuilds the components and rescans every
//!   candidate per connector (production keeps that loop for unequal or
//!   all-zero weights and runs phase 2's bucket queue otherwise), then
//!   finishes with the shortest-path loop of `path_loop`, which recounts
//!   the components before each search;
//! * [`oracle_prune_m_cds`] re-checks the whole contract per candidate
//!   and sweeps to a fixpoint;
//! * [`oracle_check_biconnected`] and [`oracle_biconnect_augment`] copy
//!   the induced subgraph and run [`oracle_articulation_points`], the
//!   Tarjan that the masked pass replaced.
//!
//! `tests/kernel_equiv.rs` does the same for the m = 1 kernels.  Anything
//! short of equality here is a bug, not a tolerance.

mod path_loop;

use std::collections::VecDeque;

use mcds_cds::fault::{
    biconnect_augment, check_biconnected, check_m_cds, prune_m_cds, weighted_m_fold_dominators,
    weighted_max_gain_connectors,
};
use mcds_cds::{chvatal_dominating_set, Algorithm, Cds, CdsError, Solver, WeightScheme};
use mcds_check::oracle::oracle_cases;
use mcds_check::Gen;
use mcds_graph::traversal::largest_component;
use mcds_graph::{node_mask, node_set, subsets, Graph};
use mcds_rng::rngs::StdRng;
use mcds_rng::SeedableRng;
use mcds_udg::{gen, Udg};

/// Oracle phase 1: the rescan m-fold election, one full scan of every
/// node per elected dominator.
fn oracle_m_fold_dominators(g: &Graph, weights: &[u64], m: usize) -> Result<Vec<usize>, CdsError> {
    let n = g.num_nodes();
    if weights.len() != n {
        return Err(CdsError::InvalidSet(format!(
            "weight vector has {} entries for {} nodes",
            weights.len(),
            n
        )));
    }
    if m == 0 || n == 0 {
        return Ok(Vec::new());
    }
    let mut chosen = vec![false; n];
    // cover[v] = number of elected neighbors of v.
    let mut cover = vec![0usize; n];
    // Remaining deficit of v: 0 once chosen, else max(0, m − cover[v]).
    let deficit = |chosen: &[bool], cover: &[usize], v: usize| {
        if chosen[v] {
            0
        } else {
            m.saturating_sub(cover[v])
        }
    };
    let mut total: usize = n * m;
    let mut out = Vec::new();
    while total > 0 {
        let mut best: Option<(usize, usize)> = None; // (gain, node)
        for u in 0..n {
            if chosen[u] {
                continue;
            }
            // Electing u erases u's own deficit and covers each
            // unsatisfied non-member neighbor once more.
            let mut gain = deficit(&chosen, &cover, u);
            for w in g.neighbors_iter(u) {
                if deficit(&chosen, &cover, w) > 0 {
                    gain += 1;
                }
            }
            if gain == 0 {
                continue;
            }
            let better = match best {
                None => true,
                Some((bg, bu)) => {
                    let lhs = gain as u128 * u128::from(weights[bu]);
                    let rhs = bg as u128 * u128::from(weights[u]);
                    lhs > rhs || (lhs == rhs && u < bu)
                }
            };
            if better {
                best = Some((gain, u));
            }
        }
        let (gain, u) = best.expect("positive total deficit implies a positive-gain candidate");
        total -= gain;
        chosen[u] = true;
        out.push(u);
        for w in g.neighbors_iter(u) {
            cover[w] += 1;
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Oracle for Chvátal's set-cover election: one full scan per pick.
fn oracle_chvatal(g: &Graph) -> Vec<usize> {
    let n = g.num_nodes();
    let mut covered = vec![false; n];
    let mut remaining = n;
    let mut ds = Vec::new();
    while remaining > 0 {
        let mut best = (0usize, usize::MAX); // (new coverage, node)
        for v in 0..n {
            let mut cover = usize::from(!covered[v]);
            cover += g.neighbors_iter(v).filter(|&u| !covered[u]).count();
            if cover > best.0 || (cover == best.0 && v < best.1) {
                best = (cover, v);
            }
        }
        let (gain, v) = best;
        assert!(gain > 0, "some node must cover something new");
        ds.push(v);
        if !covered[v] {
            covered[v] = true;
            remaining -= 1;
        }
        for u in g.neighbors_iter(v) {
            if !covered[u] {
                covered[u] = true;
                remaining -= 1;
            }
        }
    }
    ds.sort_unstable();
    ds
}

/// Oracle phase 2: the weighted max-gain rescan for every weight vector,
/// a fresh component count and candidate scan per connector, then the
/// shortest-path fallback.
fn oracle_connectors(g: &Graph, seed: &[usize], weights: &[u64]) -> Result<Vec<usize>, CdsError> {
    let n = g.num_nodes();
    if n == 0 {
        return Err(CdsError::EmptyGraph);
    }
    if weights.len() != n {
        return Err(CdsError::InvalidSet(format!(
            "weight vector has {} entries for {} nodes",
            weights.len(),
            n
        )));
    }
    if seed.is_empty() {
        return Err(CdsError::InvalidSet("empty seed set".into()));
    }
    let mut mask = node_mask(n, seed);
    let mut connectors: Vec<usize> = Vec::new();
    loop {
        let q = subsets::count_components(g, &mask);
        if q <= 1 {
            break;
        }
        let mut dsu = subsets::components_dsu(g, &mask);
        // Best (merge-gain, node) per unit weight; gain = adjacent
        // components − 1 merges performed by the addition.
        let mut best: Option<(usize, usize)> = None;
        for w in 0..n {
            if mask[w] {
                continue;
            }
            let adj = subsets::adjacent_components(g, &mask, &mut dsu, w).len();
            if adj < 2 {
                continue;
            }
            let gain = adj - 1;
            let better = match best {
                None => true,
                Some((bg, bw)) => {
                    let lhs = gain as u128 * u128::from(weights[bw]);
                    let rhs = bg as u128 * u128::from(weights[w]);
                    lhs > rhs || (lhs == rhs && w < bw)
                }
            };
            if better {
                best = Some((gain, w));
            }
        }
        match best {
            Some((_, w)) => {
                mask[w] = true;
                connectors.push(w);
            }
            None => {
                // Only stepping stones remain: let the shortest-path
                // walker finish (it reports DisconnectedGraph if `g`
                // itself cannot connect the seed).
                let current: Vec<usize> = (0..n).filter(|&v| mask[v]).collect();
                let rest = path_loop::path_connectors(g, &current)?;
                connectors.extend(rest);
                break;
            }
        }
    }
    connectors.sort_unstable();
    Ok(connectors)
}

/// Oracle Tarjan: articulation points of a materialized graph, sorted —
/// the whole-graph lowlink search the masked pass replaced.
fn oracle_articulation_points(g: &Graph) -> Vec<usize> {
    let n = g.num_nodes();
    let mut disc = vec![usize::MAX; n];
    let mut low = vec![usize::MAX; n];
    let mut is_cut = vec![false; n];
    let mut timer = 0usize;

    for root in 0..n {
        if disc[root] != usize::MAX {
            continue;
        }
        let mut stack: Vec<(usize, usize, _)> = vec![(root, usize::MAX, g.neighbors_iter(root))];
        let mut root_children = 0usize;
        disc[root] = timer;
        low[root] = timer;
        timer += 1;
        while let Some(top) = stack.last_mut() {
            let (v, parent) = (top.0, top.1);
            if let Some(u) = top.2.next() {
                if disc[u] == usize::MAX {
                    disc[u] = timer;
                    low[u] = timer;
                    timer += 1;
                    if v == root {
                        root_children += 1;
                    }
                    stack.push((u, v, g.neighbors_iter(u)));
                } else if u != parent {
                    low[v] = low[v].min(disc[u]);
                }
            } else {
                stack.pop();
                if let Some(prev) = stack.last_mut() {
                    let p = prev.0;
                    low[p] = low[p].min(low[v]);
                    if p != root && low[v] >= disc[p] {
                        is_cut[p] = true;
                    }
                }
            }
        }
        if root_children >= 2 {
            is_cut[root] = true;
        }
    }
    (0..n).filter(|&v| is_cut[v]).collect()
}

/// Oracle biconnectivity predicate on an induced copy.
fn oracle_is_biconnected_set(g: &Graph, set: &[usize]) -> bool {
    match set.len() {
        0 => g.num_nodes() == 0,
        1 => true,
        _ => {
            let (sub, _ids) = g.induced_subgraph(set);
            sub.is_connected() && oracle_articulation_points(&sub).is_empty()
        }
    }
}

/// Oracle for [`check_biconnected`], on an induced copy.
fn oracle_check_biconnected(g: &Graph, set: &[usize]) -> Result<(), CdsError> {
    if g.num_nodes() == 0 {
        return Ok(());
    }
    if set.is_empty() {
        return Err(CdsError::InvalidSet(
            "empty set on a non-empty graph".into(),
        ));
    }
    if set.len() <= 2 {
        return if subsets::is_connected_subset(g, &node_mask(g.num_nodes(), set)) {
            Ok(())
        } else {
            Err(CdsError::NotConnected)
        };
    }
    let (sub, ids) = g.induced_subgraph(set);
    if !sub.is_connected() {
        return Err(CdsError::NotConnected);
    }
    match oracle_articulation_points(&sub).first() {
        Some(&c) => Err(CdsError::NotBiconnected { cut: ids[c] }),
        None => Ok(()),
    }
}

/// Oracle for [`biconnect_augment`]: an induced copy and a full Tarjan
/// per augmenting path.
fn oracle_biconnect_augment(g: &Graph, set: &[usize]) -> Result<Vec<usize>, CdsError> {
    let n = g.num_nodes();
    if n == 0 {
        return Ok(Vec::new());
    }
    if set.is_empty() {
        return Err(CdsError::InvalidSet("empty backbone".into()));
    }
    let mut backbone = node_set(set.iter().copied());
    if !subsets::is_connected_subset(g, &node_mask(n, &backbone)) {
        return Err(CdsError::NotConnected);
    }
    loop {
        if backbone.len() <= 2 {
            break; // Biconnected by convention.
        }
        let (sub, ids) = g.induced_subgraph(&backbone);
        let cuts = oracle_articulation_points(&sub);
        let Some(&cut_local) = cuts.first() else {
            break;
        };
        let c = ids[cut_local];
        // Fragments of the backbone with `c` removed; reconnect the one
        // containing the smallest node to the rest, bypassing `c`.
        let mut frag_mask = node_mask(n, &backbone);
        frag_mask[c] = false;
        let fragment = component_of(g, &frag_mask, *backbone.iter().find(|&&v| v != c).unwrap());
        let path =
            bfs_avoiding(g, c, &fragment, &frag_mask).ok_or(CdsError::NotBiconnected { cut: c })?;
        for v in path {
            if let Err(at) = backbone.binary_search(&v) {
                backbone.insert(at, v);
            }
        }
    }
    Ok(backbone)
}

/// The masked component containing `start`.
fn component_of(g: &Graph, mask: &[bool], start: usize) -> Vec<usize> {
    let mut seen = vec![false; g.num_nodes()];
    let mut queue = VecDeque::from([start]);
    seen[start] = true;
    let mut out = vec![start];
    while let Some(v) = queue.pop_front() {
        for u in g.neighbors_iter(v) {
            if mask[u] && !seen[u] {
                seen[u] = true;
                out.push(u);
                queue.push_back(u);
            }
        }
    }
    out.sort_unstable();
    out
}

/// Shortest path from `sources` to any other masked node avoiding
/// `avoid`, as its interior plus far endpoint.
fn bfs_avoiding(
    g: &Graph,
    avoid: usize,
    sources: &[usize],
    target_mask: &[bool],
) -> Option<Vec<usize>> {
    let n = g.num_nodes();
    let source_mask = node_mask(n, sources);
    let mut parent = vec![usize::MAX; n];
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();
    for &s in sources {
        seen[s] = true;
        queue.push_back(s);
    }
    seen[avoid] = true;
    while let Some(v) = queue.pop_front() {
        for u in g.neighbors_iter(v) {
            if seen[u] {
                continue;
            }
            seen[u] = true;
            parent[u] = v;
            if target_mask[u] && !source_mask[u] {
                let mut path = vec![u];
                let mut at = v;
                while !source_mask[at] {
                    path.push(at);
                    at = parent[at];
                }
                return Some(path);
            }
            queue.push_back(u);
        }
    }
    None
}

/// Oracle for [`prune_m_cds`]: a whole-contract re-check per candidate,
/// swept to a fixpoint.
fn oracle_prune_m_cds(
    g: &Graph,
    set: &[usize],
    m: usize,
    biconnect: bool,
) -> Result<Vec<usize>, CdsError> {
    check_m_cds(g, set, m)?;
    if biconnect {
        oracle_check_biconnected(g, set)?;
    }
    let mut current: Vec<usize> = node_set(set.iter().copied());
    loop {
        let mut changed = false;
        let mut order = current.clone();
        order.sort_by_key(|&v| (g.degree(v), v));
        for v in order {
            if current.len() <= 1 {
                break;
            }
            let candidate: Vec<usize> = current.iter().copied().filter(|&u| u != v).collect();
            let ok = check_m_cds(g, &candidate, m).is_ok()
                && (!biconnect || oracle_is_biconnected_set(g, &candidate));
            if ok {
                current = candidate;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    Ok(current)
}

/// A solve's observable result: the roles and `pruned_from`.
type Outcome = Result<(Cds, Option<usize>), CdsError>;

/// `Solver::new(GreedyConnect)` with `m`, `biconnect`, `scheme`, verify
/// and prune on.
fn production_solve(g: &Graph, m: usize, biconnect: bool, scheme: WeightScheme) -> Outcome {
    Solver::new(Algorithm::GreedyConnect)
        .m(m)
        .biconnect(biconnect)
        .weight_scheme(scheme)
        .verify(true)
        .prune(true)
        .solve(g)
        .map(|s| (s.cds().clone(), s.pruned_from()))
}

/// [`production_solve`] rebuilt from the oracles.  The classic phases
/// (m = 1, unit weights), whose oracles live in `kernel_equiv.rs`, come
/// from the production solve without `biconnect` or prune.
fn oracle_solve(g: &Graph, m: usize, biconnect: bool, scheme: WeightScheme) -> Outcome {
    let n = g.num_nodes();
    let (dominators, mut connectors) = if m > 1 || scheme != WeightScheme::Unit {
        if n == 0 {
            return Err(CdsError::EmptyGraph);
        }
        if !g.is_connected() {
            return Err(CdsError::DisconnectedGraph);
        }
        let weights = scheme.weights(g);
        let dominators = oracle_m_fold_dominators(g, &weights, m)?;
        let connectors = oracle_connectors(g, &dominators, &weights)?;
        (dominators, connectors)
    } else {
        let classic = Solver::new(Algorithm::GreedyConnect).solve(g)?;
        let cds = classic.cds();
        (cds.dominators().to_vec(), cds.connectors().to_vec())
    };
    if biconnect {
        let nodes = node_set(dominators.iter().chain(&connectors).copied());
        let augmented = oracle_biconnect_augment(g, &nodes)?;
        let dom_mask = node_mask(n, &dominators);
        connectors = augmented.into_iter().filter(|&v| !dom_mask[v]).collect();
    }
    let cds = Cds::new(dominators, connectors);
    if m > 1 || biconnect {
        check_m_cds(g, cds.nodes(), m)?;
        if biconnect {
            oracle_check_biconnected(g, cds.nodes())?;
        }
    } else {
        cds.verify(g)?;
    }
    // Without `biconnect` at m = 1 the solver runs `prune_cds`, which
    // keeps the same set on a valid CDS.
    let kept = oracle_prune_m_cds(g, cds.nodes(), m, biconnect)?;
    if kept.len() == cds.len() {
        return Ok((cds, None));
    }
    let keep = |v: &&usize| kept.binary_search(v).is_ok();
    let pruned = Cds::new(
        cds.dominators().iter().filter(keep).copied().collect(),
        cds.connectors().iter().filter(keep).copied().collect(),
    );
    Ok((pruned, Some(cds.len())))
}

/// Weight vectors the [`WeightScheme`]s cannot express: all zero, all
/// equal other than 1, and unit weights with every seventh node free.
fn explicit_weights(n: usize) -> [(&'static str, Vec<u64>); 3] {
    [
        ("zero", vec![0; n]),
        ("equal", vec![7; n]),
        (
            "sparse-zero",
            (0..n).map(|v| u64::from(v % 7 != 3)).collect(),
        ),
    ]
}

/// The family's public phase functions under `weights` at `m` — election,
/// connectors, the prune without `biconnect`, the augmentation and the
/// prune of its output with `biconnect` — equal the oracles, errors
/// included.
fn assert_phases_agree(g: &Graph, weights: &[u64], m: usize, label: &str) {
    let doms = weighted_m_fold_dominators(g, weights, m);
    assert_eq!(
        doms,
        oracle_m_fold_dominators(g, weights, m),
        "{label} m={m}: election diverged"
    );
    let Ok(doms) = doms else { return };
    let conns = weighted_max_gain_connectors(g, &doms, weights);
    assert_eq!(
        conns,
        oracle_connectors(g, &doms, weights),
        "{label} m={m}: connectors diverged"
    );
    let Ok(conns) = conns else { return };
    let nodes = node_set(doms.iter().chain(&conns).copied());
    assert_prune_agrees(g, &nodes, m, false, label);
    let augmented = biconnect_augment(g, &nodes);
    assert_eq!(
        augmented,
        oracle_biconnect_augment(g, &nodes),
        "{label} m={m}: augmentation diverged"
    );
    if let Ok(augmented) = augmented {
        assert_prune_agrees(g, &augmented, m, true, label);
    }
}

fn assert_prune_agrees(g: &Graph, set: &[usize], m: usize, biconnect: bool, label: &str) {
    assert_eq!(
        prune_m_cds(g, set, m, biconnect),
        oracle_prune_m_cds(g, set, m, biconnect),
        "{label} m={m} biconnect={biconnect}: prune diverged on {set:?}"
    );
}

/// Every family configuration on the connected `g` agrees with the
/// oracles: Chvátal's election and the solver at every m, `biconnect`
/// and weight scheme, and the phase functions under the explicit
/// weights.
fn assert_family_agrees(g: &Graph, seed: u64, label: &str) {
    assert_eq!(
        chvatal_dominating_set(g),
        oracle_chvatal(g),
        "{label}: Chvátal diverged"
    );
    for m in 1..=3 {
        for biconnect in [false, true] {
            for scheme in [
                WeightScheme::Unit,
                WeightScheme::Degree,
                WeightScheme::Random(seed),
            ] {
                assert_eq!(
                    production_solve(g, m, biconnect, scheme),
                    oracle_solve(g, m, biconnect, scheme),
                    "{label} m={m} biconnect={biconnect} {scheme:?}: solution diverged"
                );
            }
        }
        for (name, weights) in explicit_weights(g.num_nodes()) {
            assert_phases_agree(g, &weights, m, &format!("{label} {name} weights"));
        }
    }
}

/// The m-aware prune, the biconnectivity check and the augmentation on
/// `set`, valid or not, at m ∈ {0, 1, 2, 3} with and without
/// `biconnect`: equal to the oracles, error values included.
fn assert_set_agrees(g: &Graph, set: &[usize], label: &str) {
    assert_eq!(
        check_biconnected(g, set),
        oracle_check_biconnected(g, set),
        "{label}: biconnectivity check diverged on {set:?}"
    );
    assert_eq!(
        biconnect_augment(g, set),
        oracle_biconnect_augment(g, set),
        "{label}: augmentation diverged on {set:?}"
    );
    for m in 0..=3 {
        for biconnect in [false, true] {
            assert_prune_agrees(g, set, m, biconnect, label);
        }
    }
}

/// The giant-component UDG of a seeded deployment, or `None` if it is
/// too small to make a backbone instance.
fn giant_graph(points: Vec<mcds_geom::Point>) -> Option<Udg> {
    let udg = Udg::build(points);
    let giant = largest_component(udg.graph());
    (giant.len() >= 2).then(|| udg.restricted_to(&giant))
}

/// Every `mcds-check` oracle case (the ≤18-node instances of the exact
/// differential suite) through every family configuration, plus the
/// prune, check and augmentation from `V` and from each family backbone.
#[test]
fn oracle_cases_agree_across_the_family() {
    let gen = oracle_cases(18);
    let mut checked = 0usize;
    for seed in 0..150u64 {
        let mut rng = StdRng::from_stream(seed, 0xb175);
        let case = gen.generate(&mut rng);
        let Some(sub) = giant_graph(case.points) else {
            continue;
        };
        checked += 1;
        let g = sub.graph();
        let label = format!("oracle seed {seed} {:?}", case.kind);
        assert_family_agrees(g, seed, &label);
        let all: Vec<usize> = (0..g.num_nodes()).collect();
        assert_set_agrees(g, &all, &label);
        // The unit-weight family backbone at each m.
        let unit = vec![1; g.num_nodes()];
        for m in 1..=3 {
            let doms = weighted_m_fold_dominators(g, &unit, m).expect("unit weights");
            let conns = weighted_max_gain_connectors(g, &doms, &unit).expect("connected case");
            assert_set_agrees(g, &node_set(doms.into_iter().chain(conns)), &label);
        }
    }
    assert!(checked >= 100, "only {checked} usable oracle cases");
}

/// 200+ seeded uniform/clustered/corridor deployments through every
/// family configuration.
#[test]
fn solver_family_identical_on_200_udg_instances() {
    let mut checked = 0usize;
    for family in ["uniform", "clustered", "corridor"] {
        for seed in 0..70u64 {
            let mut rng = StdRng::from_stream(seed, 0xfa17);
            let n = 30 + (seed as usize % 6) * 15; // 30..105
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
            assert_family_agrees(sub.graph(), seed, &format!("{family} seed {seed} n {n}"));
        }
    }
    assert!(checked >= 200, "only {checked} usable instances");
}

/// A `rows × cols` grid graph (2-connected for rows, cols ≥ 2).
fn grid(rows: usize, cols: usize) -> Graph {
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
}

/// A cycle of `n` with a chord from every node to the one `k` ahead.
fn chorded_cycle(n: usize, k: usize) -> Graph {
    Graph::from_edges(n, (0..n).flat_map(|v| [(v, (v + 1) % n), (v, (v + k) % n)]))
}

/// Structured topologies — 2-connected ones (cycles, chorded cycles,
/// grids, wheels, cliques, a 2-connected perturbed grid) where the
/// `biconnect` prune of `V` needs several passes, and ones with cut
/// vertices (paths, stars, a bowtie) where the augmentation must fail
/// with the oracle's cut.
#[test]
fn structured_graphs_agree_across_the_family() {
    let wheel = |n: usize| {
        Graph::from_edges(
            n,
            (1..n).flat_map(|v| [(0, v), (v, if v + 1 < n { v + 1 } else { 1 })]),
        )
    };
    let bowtie = Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
    let mut rng = StdRng::seed_from_u64(3);
    let perturbed = Udg::build(gen::perturbed_grid(&mut rng, 9, 9, 0.8, 0.1));
    let cases = [
        (Graph::cycle(5), "cycle5"),
        (Graph::cycle(12), "cycle12"),
        (Graph::cycle(40), "cycle40"),
        (chorded_cycle(12, 3), "chorded12"),
        (chorded_cycle(30, 7), "chorded30"),
        (grid(4, 4), "grid4x4"),
        (grid(6, 9), "grid6x9"),
        (grid(2, 20), "ladder20"),
        (wheel(9), "wheel9"),
        (Graph::complete(2), "k2"),
        (Graph::complete(7), "k7"),
        (Graph::path(2), "path2"),
        (Graph::path(9), "path9"),
        (Graph::star(7), "star7"),
        (bowtie, "bowtie"),
        (perturbed.graph().clone(), "perturbed9x9"),
    ];
    for (g, label) in &cases {
        assert!(g.is_connected(), "{label}");
        assert_family_agrees(g, 5, label);
        let all: Vec<usize> = (0..g.num_nodes()).collect();
        assert_set_agrees(g, &all, label);
    }
}

/// Sets that break the contract get the oracle's error: under-covered
/// nodes (`NotMDominating` with the same node and counts), split sets,
/// sets with a cut vertex (the same `NotBiconnected` cut), empty sets,
/// and a singleton.
#[test]
fn hostile_sets_report_the_oracle_errors() {
    let mut rng = StdRng::seed_from_u64(11);
    let udg = gen::giant_component_instance(&mut rng, 90, 8.0);
    let g = udg.graph().clone();
    let n = g.num_nodes();
    let mut sets: Vec<Vec<usize>> = vec![vec![], vec![0], vec![0, n - 1]];
    for stride in [2usize, 3, 5] {
        sets.push((0..n).step_by(stride).collect());
        sets.push((0..n).filter(|v| v % stride != 0).collect());
    }
    let cds = Solver::new(Algorithm::GreedyConnect)
        .solve(&g)
        .expect("connected instance");
    sets.push(cds.nodes().to_vec());
    // Drop each of the first few backbone members in turn.
    for &v in cds.nodes().iter().take(6) {
        sets.push(cds.nodes().iter().copied().filter(|&u| u != v).collect());
    }
    for set in &sets {
        assert_set_agrees(&g, set, "hostile");
    }
    let cycle = Graph::cycle(9);
    for set in [vec![0, 1, 2], vec![0, 4], vec![0, 1], (0..9).collect()] {
        assert_set_agrees(&cycle, &set, "cycle9");
    }
}

/// Disconnected inputs to the public functions: the elections run on
/// the whole graph; the connectors stall into `DisconnectedGraph` (or
/// finish by merges, or need nothing) as the oracle does; the checks,
/// the augmentation and the prune reject split sets alike; and the
/// solver refuses the graph.
#[test]
fn disconnected_inputs_agree() {
    let mut graphs = vec![
        (
            Graph::from_edges(4, [(0, 1), (2, 3)]),
            "two edges".to_string(),
        ),
        (
            Graph::from_edges(9, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (7, 8)]),
            "triangle+path+edge".into(),
        ),
        (Graph::empty(5), "five isolated".into()),
    ];
    for seed in 0..30u64 {
        let mut rng = StdRng::from_stream(seed, 0xd15c);
        let n = 20 + seed as usize * 3;
        let side = (n as f64 * std::f64::consts::PI / 5.0).sqrt();
        graphs.push((
            Udg::build(gen::uniform_in_square(&mut rng, n, side))
                .graph()
                .clone(),
            format!("sparse uniform seed {seed} n {n}"),
        ));
    }
    let mut disconnected = 0;
    for (g, label) in &graphs {
        let n = g.num_nodes();
        if g.is_connected() {
            continue;
        }
        disconnected += 1;
        assert_eq!(chvatal_dominating_set(g), oracle_chvatal(g), "{label}");
        for m in 1..=3 {
            for scheme in [
                WeightScheme::Unit,
                WeightScheme::Degree,
                WeightScheme::Random(m as u64),
            ] {
                let weights = scheme.weights(g);
                assert_phases_agree(g, &weights, m, label);
                for biconnect in [false, true] {
                    assert_eq!(
                        production_solve(g, m, biconnect, scheme),
                        Err(CdsError::DisconnectedGraph),
                        "{label}"
                    );
                }
            }
            for (name, weights) in explicit_weights(n) {
                assert_phases_agree(g, &weights, m, &format!("{label} {name}"));
            }
        }
        // Seeds inside one component: merges suffice, or the seed is
        // connected already.
        let comp = largest_component(g);
        for seed in [
            vec![comp[0]],
            comp.clone(),
            comp.iter().step_by(2).copied().collect(),
        ] {
            for weights in [vec![1; n], vec![3; n], WeightScheme::Degree.weights(g)] {
                assert_eq!(
                    weighted_max_gain_connectors(g, &seed, &weights),
                    oracle_connectors(g, &seed, &weights),
                    "{label}: seed {seed:?}"
                );
            }
        }
        let all: Vec<usize> = (0..n).collect();
        assert_set_agrees(g, &all, label);
    }
    assert!(
        disconnected >= 20,
        "only {disconnected} disconnected inputs"
    );
    // The empty graph.
    let empty = Graph::empty(0);
    assert_eq!(
        weighted_max_gain_connectors(&empty, &[], &[]),
        oracle_connectors(&empty, &[], &[])
    );
    assert_eq!(chvatal_dominating_set(&empty), oracle_chvatal(&empty));
    assert_set_agrees(&empty, &[], "empty graph");
    assert_eq!(
        production_solve(&empty, 2, true, WeightScheme::Unit),
        Err(CdsError::EmptyGraph)
    );
    // Malformed weight vectors.
    let g = Graph::path(4);
    assert_eq!(
        weighted_m_fold_dominators(&g, &[1, 2], 2),
        oracle_m_fold_dominators(&g, &[1, 2], 2)
    );
    assert_eq!(
        weighted_max_gain_connectors(&g, &[0, 3], &[1]),
        oracle_connectors(&g, &[0, 3], &[1])
    );
    assert_eq!(
        weighted_max_gain_connectors(&g, &[], &[1; 4]),
        oracle_connectors(&g, &[], &[1; 4])
    );
}

/// E19's recipe (giant component of a uniform deployment at average
/// degree ≈ 10, seed 20080617) at n = 5 000 and 10 000: the elections
/// under unit and degree weights, the connectors, the prune and the
/// solver at m ∈ {2, 3}, with the augmentation's verdict.  The oracles
/// take seconds here even in release builds.
#[test]
#[ignore = "release-scale rescan oracles; run with --include-ignored"]
fn e19_family_agrees_at_scale() {
    for n in [5_000usize, 10_000] {
        let side = (n as f64 * std::f64::consts::PI / 10.0).sqrt();
        let mut rng = StdRng::seed_from_u64(20_080_617 ^ n as u64);
        let udg = gen::giant_component_instance(&mut rng, n, side);
        let g = udg.graph();
        let label = format!("E19 n {n}");
        assert_eq!(chvatal_dominating_set(g), oracle_chvatal(g), "{label}");
        for m in [2, 3] {
            for scheme in [WeightScheme::Unit, WeightScheme::Degree] {
                let weights = scheme.weights(g);
                let doms = weighted_m_fold_dominators(g, &weights, m);
                assert_eq!(doms, oracle_m_fold_dominators(g, &weights, m), "{label}");
                let doms = doms.unwrap();
                let conns = weighted_max_gain_connectors(g, &doms, &weights);
                assert_eq!(conns, oracle_connectors(g, &doms, &weights), "{label}");
                let nodes = node_set(doms.iter().chain(&conns.unwrap()).copied());
                assert_prune_agrees(g, &nodes, m, false, &label);
                assert_eq!(
                    biconnect_augment(g, &nodes),
                    oracle_biconnect_augment(g, &nodes),
                    "{label}"
                );
            }
            assert_eq!(
                production_solve(g, m, false, WeightScheme::Unit),
                oracle_solve(g, m, false, WeightScheme::Unit),
                "{label} m={m}"
            );
        }
    }
}
