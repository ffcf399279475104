//! Generic connector-selection routines.
//!
//! * [`max_gain_connectors`] — the paper's Section-IV greedy rule: while
//!   `G[seed ∪ C]` has more than one component, add the node of maximum
//!   *gain* (components merged minus one).  Requires a seed with the
//!   2-hop separation property of Lemma 9: some node always touches two
//!   components.  The BFS-ordered first-fit MIS has it (every dominator
//!   is at distance exactly 2 from an earlier one, so the distance-2
//!   graph on dominators is connected).  An *arbitrary* MIS does not —
//!   its components can sit 3 hops apart (e.g. `{0, 3, 5}` on a 6-path),
//!   which is precisely why the paper's phase 1 picks the special MIS.
//! * [`path_connectors`] — a distance-based fallback that connects any
//!   dominating seed (components may be up to 3 hops apart, where a
//!   single node can never bridge them): repeatedly joins the component
//!   of the smallest member to the nearest other one along a shortest
//!   path.  That search, `shortest_bridge`, also reroutes the
//!   2-connectivity augmentation of [`crate::fault::biconnect_augment`]
//!   around each cut vertex.
//! * [`max_gain_then_paths`] — greedy merges while possible, shortest
//!   paths for whatever remains; total for any seed on a connected graph.
//! * [`max_gain_connectors_within`] — the greedy merges with candidates
//!   confined to a caller's zone: the churn maintainer's connector patch.
//!
//! The greedy merge loop keeps an upper bound on each candidate's merge
//! count in a lazy bucket queue, raises only the bounds a selection could
//! have raised, and recounts a candidate only when it is popped, instead
//! of rescanning every candidate per selection.  It picks the connector
//! sequence of that rescan, which `tests/kernel_equiv.rs` keeps as its
//! oracle.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use mcds_graph::bitgraph::BitSet;
use mcds_graph::{node_mask, subsets, DisjointSets, Graph};

use crate::CdsError;

/// Greedy max-gain connector selection (the paper's phase 2).
///
/// Returns the connector sequence in selection order.  Ties on gain go to
/// the smaller node id, making the algorithm deterministic.
///
/// # Errors
///
/// * [`CdsError::EmptyGraph`] / [`CdsError::DisconnectedGraph`] on bad
///   graphs,
/// * [`CdsError::Stalled`] if no remaining node has positive gain while
///   more than one component remains (cannot happen when `seed` is an MIS
///   of a connected graph; can happen for weaker seeds).
pub fn max_gain_connectors(g: &Graph, seed: &[usize]) -> Result<Vec<usize>, CdsError> {
    check_graph(g)?;
    max_gain_connectors_unchecked(g, seed)
}

/// [`max_gain_connectors`] on a graph the caller has already proved
/// non-empty and connected (the solver's phase 1 does), without the
/// second connectivity sweep.
pub(crate) fn max_gain_connectors_unchecked(
    g: &Graph,
    seed: &[usize],
) -> Result<Vec<usize>, CdsError> {
    let run = merge_bitset(g, seed, false)?;
    mcds_obs::counter!("connectors.candidates_scanned", run.scanned);
    mcds_obs::counter!("connectors.selected", run.connectors.len() as u64);
    Ok(run.connectors)
}

/// The input checks shared by the public connector entries.
fn check_graph(g: &Graph) -> Result<(), CdsError> {
    if g.num_nodes() == 0 {
        return Err(CdsError::EmptyGraph);
    }
    if !g.is_connected() {
        return Err(CdsError::DisconnectedGraph);
    }
    Ok(())
}

/// Max-gain merges while any node touches two components, then
/// shortest-path connectors for whatever remains.
///
/// Total for *any* seed on a connected graph — the connector rule for
/// baselines whose phase-1 sets lack the 2-hop separation property
/// (arbitrary MISs, set-cover dominators).
///
/// # Errors
///
/// * [`CdsError::EmptyGraph`] / [`CdsError::DisconnectedGraph`] on bad
///   graphs.
pub fn max_gain_then_paths(g: &Graph, seed: &[usize]) -> Result<Vec<usize>, CdsError> {
    check_graph(g)?;
    max_gain_then_paths_unchecked(g, seed)
}

/// [`max_gain_then_paths`] without the up-front graph checks: `g` is
/// checked only if the merges stall, since the shortest-path fallback
/// needs it connected.  Merges alone may connect a seed on a
/// disconnected `g` (`fault::weighted_max_gain_connectors` returns them).
pub(crate) fn max_gain_then_paths_unchecked(
    g: &Graph,
    seed: &[usize],
) -> Result<Vec<usize>, CdsError> {
    let mut run = merge_bitset(g, seed, true)?;
    mcds_obs::counter!("connectors.candidates_scanned", run.scanned);
    if run.remaining > 1 {
        check_graph(g)?;
        let mut grown: Vec<usize> = seed.to_vec();
        grown.extend(run.connectors.iter().copied());
        run.connectors.extend(path_connectors_unchecked(g, &grown));
    }
    mcds_obs::counter!("connectors.selected", run.connectors.len() as u64);
    Ok(run.connectors)
}

/// The max-gain merges of [`max_gain_connectors`] with candidates
/// confined to `zone` (distinct nodes); nodes outside it are never
/// scanned or selected.  `seed` lists distinct nodes.  Returns the
/// connector sequence in selection order, ties on gain going to the
/// smaller id.
///
/// The merge state lives in `scratch`, sized to the largest graph it has
/// served and reset on return where this call touched it, so a call
/// reads the rows of `seed` and of the zone's candidates, not every node.
/// `g` need not be connected, and nothing about it is checked.  No
/// `connectors.*` counter is flushed: those count the solver's phase 2.
///
/// # Errors
///
/// [`CdsError::Stalled`] if no zone node touches two components while
/// more than one remains.
pub fn max_gain_connectors_within(
    g: &Graph,
    seed: &[usize],
    zone: &[usize],
    scratch: &mut MergeScratch,
) -> Result<Vec<usize>, CdsError> {
    let st = scratch;
    st.fit(g.num_nodes());
    let mut members = 0usize;
    for &v in seed {
        members += usize::from(st.mask.insert(v));
    }
    let mut merges = 0usize;
    for &v in seed {
        for u in g.neighbors_iter(v) {
            if u < v && st.mask.contains(u) && st.dsu.union(u, v) {
                merges += 1;
            }
        }
    }
    let q = members - merges;
    let mut run = MergeRun {
        connectors: Vec::new(),
        remaining: q,
        scanned: 0,
    };
    if q > 1 {
        for &w in zone {
            if st.mask.contains(w) {
                continue;
            }
            let c = adjacent_count(g, &st.mask, &mut st.dsu, w, &mut st.roots);
            enqueue(&mut st.buckets, &mut st.bucket_of, &mut st.top, w, c);
        }
        run = merge_loop::<true>(g, st, q, true, 0)?;
    }
    // Every node a union merged is a seed or a selection, and every
    // queued node is in the zone.
    for &v in seed.iter().chain(&run.connectors) {
        st.mask.remove(v);
    }
    st.dsu.reset(seed.iter().chain(&run.connectors).copied());
    for &w in zone {
        st.bucket_of[w] = UNQUEUED;
    }
    st.buckets.iter_mut().for_each(BinaryHeap::clear);
    st.top = 0;
    if run.remaining > 1 {
        return Err(stall_error(run.remaining));
    }
    Ok(run.connectors)
}

/// Outcome of a greedy merge loop: the selections made, the number of
/// components left (1 unless the seed stalled), and how many candidate
/// gain evaluations it took (flushed to the
/// `connectors.candidates_scanned` counter by the callers).
struct MergeRun {
    connectors: Vec<usize>,
    remaining: usize,
    scanned: u64,
}

fn stall_error(q: usize) -> CdsError {
    CdsError::Stalled(format!(
        "{q} components remain but no node touches two of them \
         (seed lacks the 2-hop separation property)"
    ))
}

/// A bucket-queue entry that is not a candidate (a member of the mask,
/// or a node outside the caller's zone); also the "no component yet"
/// stamp of [`seed_side_counts`].
const UNQUEUED: u32 = u32::MAX;

/// The state of the greedy merge loop: the membership mask of
/// `G[seed ∪ C]`, its components as union-find, and each candidate's
/// gain bound in a lazy bucket queue.  [`max_gain_connectors_within`]
/// keeps one across calls; the solver's phase 2 builds one per solve.
#[derive(Debug, Clone)]
pub struct MergeScratch {
    mask: BitSet,
    dsu: DisjointSets,
    /// The bucket holding each node's live entry, [`UNQUEUED`] for
    /// members and non-candidates.
    bucket_of: Vec<u32>,
    buckets: Vec<BinaryHeap<Reverse<usize>>>,
    /// The highest bucket that may be non-empty.
    top: usize,
    roots: Vec<usize>,
    to_refresh: Vec<usize>,
}

impl Default for MergeScratch {
    /// Empty scratch; it grows to the graphs it serves.
    fn default() -> Self {
        MergeScratch::with_parts(BitSet::new(0), Vec::new())
    }
}

impl MergeScratch {
    fn with_parts(mask: BitSet, bucket_of: Vec<u32>) -> Self {
        let n = mask.capacity();
        MergeScratch {
            mask,
            dsu: DisjointSets::new(n),
            bucket_of,
            buckets: Vec::new(),
            top: 0,
            roots: Vec::new(),
            to_refresh: Vec::new(),
        }
    }

    /// Grows the state to `n` nodes, all of them unqueued non-members.
    fn fit(&mut self, n: usize) {
        if self.mask.capacity() < n {
            self.mask = BitSet::new(n);
            self.dsu = DisjointSets::new(n);
            self.bucket_of = vec![UNQUEUED; n];
        }
    }
}

/// The greedy merge loop of the solver's phase 2 over every node outside
/// `seed`, with the state built for this call: the mask and union-find
/// from `seed`, and every candidate's exact count read from the seed
/// side ([`seed_side_counts`]).
fn merge_bitset(g: &Graph, seed: &[usize], allow_stall: bool) -> Result<MergeRun, CdsError> {
    let n = g.num_nodes();
    let mask = BitSet::from_nodes(n, seed);
    let mut st = MergeScratch::with_parts(mask, Vec::new());
    let mut members = 0usize;
    let mut merges = 0usize;
    for v in st.mask.iter_ones() {
        members += 1;
        for u in g.neighbors_iter(v) {
            if u < v && st.mask.contains(u) && st.dsu.union(u, v) {
                merges += 1;
            }
        }
    }
    let q = members - merges;
    if q <= 1 {
        return Ok(MergeRun {
            connectors: Vec::new(),
            remaining: q,
            scanned: 0,
        });
    }
    let mut counts = seed_side_counts(g, &st.mask, &mut st.dsu);
    let mut scanned: u64 = 0;
    for w in 0..n {
        if st.mask.contains(w) {
            counts[w] = UNQUEUED;
            continue;
        }
        scanned += 1;
        let c = counts[w] as usize;
        enqueue(&mut st.buckets, &mut counts, &mut st.top, w, c);
    }
    st.bucket_of = counts;
    merge_loop::<false>(g, &mut st, q, allow_stall, scanned)
}

/// The greedy merge loop: incremental gain maintenance via a lazy bucket
/// queue, from `q > 1` components.
///
/// Every candidate `w ∉ mask` carries an *upper bound* `bucket_of[w]` on
/// its true merge count `|{distinct components adjacent to w}|`:
///
/// * the bounds start exact.  The solver's phase 2 counts them from the
///   seed side, reading only seed rows ([`seed_side_counts`]); a zone's
///   candidates count their own rows;
/// * selections only ever merge components, so counts of nodes **not**
///   adjacent to the selected `w` can only drop — their cached bound
///   stays valid;
/// * a neighbor `x` of `w` gains the merged component `W` as a new
///   adjacency only if none of its other mask neighbors lies in `W`.
///   Then its count grows by exactly one, and so does its bound.
///   Otherwise `x` already touched a component that merged into `W`, so
///   its count cannot grow and its bound stays.  The test stops at the
///   first mask neighbor found in `W`.
///
/// Buckets are keyed by the bound; popping the smallest id from the
/// highest non-empty bucket and confirming its true count against the
/// bucket level therefore yields exactly the rescan rule's argmax (max
/// count, smallest id on ties) — stale entries are lazily demoted on
/// pop.  Work per selection is the refresh's early-exit tests over the
/// rows of `w`'s neighbors plus the lazy pops, instead of a full
/// `O(n · deg)` rescan.
///
/// With `CONFINED` only queued nodes are candidates, so the loop is the
/// rescan of the zone alone; without it every non-member is one.
fn merge_loop<const CONFINED: bool>(
    g: &Graph,
    st: &mut MergeScratch,
    mut q: usize,
    allow_stall: bool,
    mut scanned: u64,
) -> Result<MergeRun, CdsError> {
    let mut connectors = Vec::new();
    while q > 1 {
        let mut best: Option<(usize, usize)> = None; // (count, node)
        loop {
            while st.top >= 2 && st.buckets.get(st.top).is_none_or(BinaryHeap::is_empty) {
                st.top -= 1;
            }
            if st.top < 2 {
                break;
            }
            let Reverse(x) = st.buckets[st.top].pop().expect("bucket checked non-empty");
            if st.bucket_of[x] as usize != st.top || st.mask.contains(x) {
                continue; // stale entry left behind by a reassignment
            }
            scanned += 1;
            let c = adjacent_count(g, &st.mask, &mut st.dsu, x, &mut st.roots);
            debug_assert!(c <= st.top, "cached gain bound was not an upper bound");
            if c == st.top {
                best = Some((c, x));
                break;
            }
            // Lazy demotion to the true (lower) bucket.
            enqueue(&mut st.buckets, &mut st.bucket_of, &mut st.top, x, c);
        }
        let Some((count, w)) = best else {
            if allow_stall {
                return Ok(MergeRun {
                    connectors,
                    remaining: q,
                    scanned,
                });
            }
            return Err(stall_error(q));
        };
        st.mask.insert(w);
        st.bucket_of[w] = UNQUEUED;
        st.to_refresh.clear();
        for u in g.neighbors_iter(w) {
            if st.mask.contains(u) {
                st.dsu.union(w, u);
            } else if !CONFINED || st.bucket_of[u] != UNQUEUED {
                st.to_refresh.push(u);
            }
        }
        q = q + 1 - count;
        connectors.push(w);
        // Only neighbors of the selection can *gain* adjacency to the
        // merged component, and only if they touched none of its parts.
        let merged = st.dsu.find(w);
        for &x in &st.to_refresh {
            scanned += 1;
            let touched = g
                .neighbors_iter(x)
                .any(|u| u != w && st.mask.contains(u) && st.dsu.find(u) == merged);
            if !touched {
                let bound = st.bucket_of[x] as usize + 1;
                enqueue(&mut st.buckets, &mut st.bucket_of, &mut st.top, x, bound);
            }
        }
        debug_assert_eq!(q, {
            let n = g.num_nodes();
            let bool_mask: Vec<bool> = (0..n).map(|v| st.mask.contains(v)).collect();
            subsets::count_components(g, &bool_mask)
        });
    }
    Ok(MergeRun {
        connectors,
        remaining: q,
        scanned,
    })
}

/// For every node outside `mask`, the number of distinct `G[mask]`
/// components adjacent to it, read from the seed side: members are
/// grouped by DSU root, and each component adds one to every node it
/// touches, a per-node stamp (the last component that counted it)
/// keeping the count to one per component.  Only the rows of mask
/// members are read.  Entries of mask members are meaningless.
fn seed_side_counts(g: &Graph, mask: &BitSet, dsu: &mut DisjointSets) -> Vec<u32> {
    let n = g.num_nodes();
    let mut by_root: Vec<(u32, u32)> = mask
        .iter_ones()
        .map(|v| (dsu.find(v) as u32, v as u32))
        .collect();
    by_root.sort_unstable();
    let mut counts = vec![0u32; n];
    let mut stamp = vec![UNQUEUED; n];
    for &(root, v) in &by_root {
        for u in g.neighbors_iter(v as usize) {
            if stamp[u] != root {
                stamp[u] = root;
                counts[u] += 1;
            }
        }
    }
    counts
}

/// Re-files `w` under bucket `c` (heap entry only for selectable `c ≥ 2`).
fn enqueue(
    buckets: &mut Vec<BinaryHeap<Reverse<usize>>>,
    bucket_of: &mut [u32],
    top: &mut usize,
    w: usize,
    c: usize,
) {
    bucket_of[w] = c as u32;
    if c >= 2 {
        if buckets.len() <= c {
            buckets.resize_with(c + 1, BinaryHeap::new);
        }
        buckets[c].push(Reverse(w));
        if c > *top {
            *top = c;
        }
    }
}

/// Number of distinct `G[mask]` components adjacent to `w` — the same
/// value `subsets::adjacent_components(..).len()` yields, without
/// materializing the sorted root list.
fn adjacent_count(
    g: &Graph,
    mask: &BitSet,
    dsu: &mut DisjointSets,
    w: usize,
    roots: &mut Vec<usize>,
) -> usize {
    roots.clear();
    for u in g.neighbors_iter(w) {
        if mask.contains(u) {
            let r = dsu.find(u);
            if !roots.contains(&r) {
                roots.push(r);
            }
        }
    }
    roots.len()
}

/// The per-step gains of a connector sequence, recomputed from scratch —
/// a reference used in tests and by the Theorem-10 accounting experiment.
pub fn gain_trace(g: &Graph, seed: &[usize], connectors: &[usize]) -> Vec<usize> {
    let mut mask = node_mask(g.num_nodes(), seed);
    let mut trace = Vec::with_capacity(connectors.len());
    let mut q = subsets::count_components(g, &mask);
    for &w in connectors {
        mask[w] = true;
        let q2 = subsets::count_components(g, &mask);
        trace.push(q - q2);
        q = q2;
    }
    trace
}

/// Connects an arbitrary dominating seed by repeatedly adding the interior
/// of a shortest path from the component of the smallest member to the
/// nearest other component.
///
/// Works for any seed on a connected graph (unlike [`max_gain_connectors`],
/// which needs 2-hop-separated components).  Used by the Chvátal baseline,
/// whose set-cover dominators can be 3 hops apart.
///
/// # Errors
///
/// * [`CdsError::EmptyGraph`] / [`CdsError::DisconnectedGraph`] on bad
///   graphs.
pub fn path_connectors(g: &Graph, seed: &[usize]) -> Result<Vec<usize>, CdsError> {
    check_graph(g)?;
    Ok(path_connectors_unchecked(g, seed))
}

/// [`path_connectors`] on a graph the caller has already proved
/// non-empty and connected.
pub(crate) fn path_connectors_unchecked(g: &Graph, seed: &[usize]) -> Vec<usize> {
    let mut member = BitSet::from_nodes(g.num_nodes(), seed);
    let mut connectors = Vec::new();
    while let Some(interior) = shortest_bridge(g, &member, None) {
        for &v in &interior {
            member.insert(v);
        }
        connectors.extend(interior);
    }
    connectors.sort_unstable();
    connectors
}

/// The interior of a shortest path in `G − avoid` from the component of
/// `G[member − avoid]` that holds the smallest member to the first other
/// member reached, listed from that member back; `None` if no other
/// member is reachable (no members, one component, or the rest cut off
/// by `avoid`).  The interior is never empty: adjacent members share a
/// component.
///
/// The breadth-first search is seeded with the component in ascending
/// id order and visits neighbours in adjacency order, so among equally
/// short paths the one found first from the smallest seed wins.
pub(crate) fn shortest_bridge(
    g: &Graph,
    member: &BitSet,
    avoid: Option<usize>,
) -> Option<Vec<usize>> {
    let n = g.num_nodes();
    let start = member.iter_ones().find(|&v| Some(v) != avoid)?;
    let mut seen = vec![false; n];
    if let Some(c) = avoid {
        seen[c] = true;
    }
    // Mark the component of `start`, then seed the search with it in
    // ascending id order.
    seen[start] = true;
    let mut stack = vec![start];
    while let Some(v) = stack.pop() {
        for u in g.neighbors_iter(v) {
            if !seen[u] && member.contains(u) {
                seen[u] = true;
                stack.push(u);
            }
        }
    }
    let mut queue: VecDeque<usize> = member
        .iter_ones()
        .filter(|&v| seen[v] && Some(v) != avoid)
        .collect();
    let mut parent = vec![usize::MAX; n];
    while let Some(v) = queue.pop_front() {
        for u in g.neighbors_iter(v) {
            if seen[u] {
                continue;
            }
            seen[u] = true;
            parent[u] = v;
            if member.contains(u) {
                let mut interior = Vec::new();
                let mut at = v;
                while !member.contains(at) {
                    interior.push(at);
                    at = parent[at];
                }
                return Some(interior);
            }
            queue.push_back(u);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_graph::{properties, Graph};
    use mcds_mis::BfsMis;

    #[test]
    fn max_gain_connects_mis_on_path() {
        let g = Graph::path(9);
        let mis = BfsMis::compute(&g, 0).mis().to_vec();
        let conn = max_gain_connectors(&g, &mis).unwrap();
        let mut all = mis.clone();
        all.extend(conn.iter().copied());
        assert!(properties::is_connected_dominating_set(&g, &all));
    }

    #[test]
    fn gains_are_monotone_nonincreasing_in_effect() {
        // Star of stars: center 0 connected to hubs 1..=3, each hub with
        // two leaves; max-gain should prefer high-gain nodes first.
        let g = Graph::from_edges(
            10,
            [
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 4),
                (1, 5),
                (2, 6),
                (2, 7),
                (3, 8),
                (3, 9),
            ],
        );
        let mis = vec![4, 5, 6, 7, 8, 9]; // leaves: independent, maximal? leaves dominate hubs, node 0 has no leaf neighbor
                                          // Node 0's neighbors are hubs only, so the leaf set is NOT
                                          // dominating; use a proper MIS instead.
        let mis = if properties::is_maximal_independent_set(&g, &mis) {
            mis
        } else {
            BfsMis::compute(&g, 4).mis().to_vec()
        };
        let conn = max_gain_connectors(&g, &mis).unwrap();
        let trace = gain_trace(&g, &mis, &conn);
        assert!(!trace.is_empty());
        // Every selected connector had positive gain.
        assert!(trace.iter().all(|&t| t >= 1), "{trace:?}");
    }

    #[test]
    fn max_gain_stalls_on_spread_seed() {
        // Path of 7 with seed {0, 6}: components 3 hops apart; no single
        // node touches both -> wait, distance from 0 to 6 is 6 hops; a
        // middle node touches neither two components... any node adjacent
        // to two components? Node 1 touches {0} only; node 5 touches {6}
        // only. Stall expected.
        let g = Graph::path(7);
        let err = max_gain_connectors(&g, &[0, 6]).unwrap_err();
        assert!(matches!(err, CdsError::Stalled(_)));
    }

    #[test]
    fn path_connectors_handle_spread_seed() {
        let g = Graph::path(7);
        let conn = path_connectors(&g, &[0, 6]).unwrap();
        assert_eq!(conn, vec![1, 2, 3, 4, 5]);
        let mut all = vec![0, 6];
        all.extend(conn);
        assert!(properties::is_connected_dominating_set(&g, &all));
    }

    fn members(n: usize, nodes: &[usize]) -> BitSet {
        BitSet::from_nodes(n, nodes)
    }

    #[test]
    fn shortest_bridge_needs_two_reachable_components() {
        let g = Graph::path(5);
        assert_eq!(shortest_bridge(&g, &members(5, &[]), None), None);
        assert_eq!(shortest_bridge(&g, &members(5, &[2]), Some(2)), None);
        assert_eq!(shortest_bridge(&g, &members(5, &[1, 2, 3]), None), None);
        assert_eq!(
            shortest_bridge(&g, &members(5, &[0, 4]), None),
            Some(vec![3, 2, 1])
        );
    }

    #[test]
    fn shortest_bridge_never_crosses_or_counts_the_avoided_node() {
        let g = Graph::path(5);
        // The only route from 0 to 4 runs through 2.
        assert_eq!(shortest_bridge(&g, &members(5, &[0, 4]), Some(2)), None);
        // A member `avoid` splits its component and bridges nothing.
        assert_eq!(
            shortest_bridge(&g, &members(5, &[0, 1, 2, 3, 4]), Some(2)),
            None
        );
        // Around a 6-cycle the avoided node forces the long way.
        let ring = Graph::cycle(6);
        assert_eq!(
            shortest_bridge(&ring, &members(6, &[0, 1, 2]), Some(1)),
            Some(vec![3, 4, 5])
        );
    }

    #[test]
    fn shortest_bridge_ties_go_to_the_smaller_seed() {
        // Members {0, 1} and {4, 5}; 0 reaches 4 through 3, and 1 reaches
        // 5 through 2: two bridges of one node each.  The search is
        // seeded 0 first, so 0's bridge wins although 2 < 3.
        let g = Graph::from_edges(6, [(0, 1), (0, 3), (3, 4), (1, 2), (2, 5), (4, 5)]);
        assert_eq!(
            shortest_bridge(&g, &members(6, &[0, 1, 4, 5]), None),
            Some(vec![3])
        );
    }

    #[test]
    fn already_connected_seed_needs_no_connectors() {
        let g = Graph::path(5);
        assert!(max_gain_connectors(&g, &[1, 2, 3]).unwrap().is_empty());
        assert!(path_connectors(&g, &[1, 2, 3]).unwrap().is_empty());
        // Empty seed: zero components, nothing to connect.
        assert!(max_gain_connectors(&g, &[]).unwrap().is_empty());
    }

    #[test]
    fn errors_on_bad_graphs() {
        let empty = Graph::empty(0);
        assert_eq!(max_gain_connectors(&empty, &[]), Err(CdsError::EmptyGraph));
        assert_eq!(path_connectors(&empty, &[]), Err(CdsError::EmptyGraph));
        let split = Graph::from_edges(4, [(0, 1), (2, 3)]);
        assert_eq!(
            max_gain_connectors(&split, &[0]),
            Err(CdsError::DisconnectedGraph)
        );
        assert_eq!(
            path_connectors(&split, &[0]),
            Err(CdsError::DisconnectedGraph)
        );
    }

    #[test]
    fn max_gain_then_paths_handles_three_hop_mis() {
        // {0, 3, 5} is a maximal independent set of P6 whose components
        // are pairwise ≥ 2 hops apart with one pair at distance 3 after
        // the first merge — the canonical stall case.
        let g = Graph::path(6);
        let mis = vec![0, 3, 5];
        assert!(properties::is_maximal_independent_set(&g, &mis));
        let conn = max_gain_then_paths(&g, &mis).unwrap();
        let mut all = mis.clone();
        all.extend(conn.iter().copied());
        assert!(properties::is_connected_dominating_set(&g, &all));
    }

    #[test]
    fn max_gain_then_paths_equals_max_gain_when_no_stall() {
        let g = Graph::cycle(12);
        let mis = BfsMis::compute(&g, 0).mis().to_vec();
        let a = max_gain_connectors(&g, &mis).unwrap();
        let b = max_gain_then_paths(&g, &mis).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn gain_trace_matches_direct_computation() {
        let g = Graph::cycle(12);
        let mis = BfsMis::compute(&g, 0).mis().to_vec();
        let conn = max_gain_connectors(&g, &mis).unwrap();
        let trace = gain_trace(&g, &mis, &conn);
        let total: usize = trace.iter().sum();
        // Components drop from |mis| to 1.
        assert_eq!(total, mis.len() - 1);
    }
}
