//! The resident topology: a unit-disk graph patched in place under
//! churn instead of rebuilt, and its giant component, kept across the
//! moves that leave the giant's members as they were.

use std::collections::HashMap;

use mcds_geom::Point;
use mcds_graph::subsets::LocalSearch;
use mcds_graph::Graph;

use crate::cells::{CellGrid, CellTable};

/// A unit-disk graph over a changing population, patched per join,
/// leave or move in time proportional to the local degree.
///
/// Nodes carry caller-chosen stable ids, issued in increasing order.
/// Each node owns a *slot*, and slots stay in ascending id order: a
/// join appends one, a leave leaves a tombstone, and the tombstones are
/// compacted away as soon as they outnumber the live nodes, so the slots
/// never exceed twice the population.  A slot holds the node's position
/// and its sorted neighbour row (slot indices).  A cell index keyed by
/// the same grid as [`Udg::with_radius`](crate::Udg::with_radius) finds
/// the neighbours of a new position with the same `dist² ≤ r² + EPS`
/// test, so the rows always equal a fresh build over the live points.
///
/// Every graph handed out ([`Topology::graph`], [`Topology::giant`]) is
/// a relabelling of the rows: nodes in ascending id order, each row
/// copied through a monotone map, with no distance test and no sort.
/// A [`Giant`] keeps the giant component across changes
/// ([`Topology::update_giant`]).
///
/// ```
/// use mcds_geom::Point;
/// use mcds_udg::Topology;
///
/// let pts = vec![Point::new(0.0, 0.0), Point::new(0.8, 0.0), Point::new(5.0, 0.0)];
/// let mut topo = Topology::with_points(pts, 1.0);
/// assert_eq!(topo.giant().0, vec![0, 1]);
///
/// // Node 3 joins next to node 2; node 0 moves away from node 1.
/// topo.insert(3, Point::new(5.5, 0.0));
/// topo.insert(4, Point::new(4.5, 0.0));
/// assert_eq!(topo.relocate(0, Point::new(-3.0, 0.0)), vec![0, 1]);
/// let (ids, giant) = topo.giant();
/// assert_eq!(ids, vec![2, 3, 4]);
/// assert_eq!(giant.num_edges(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    grid: CellGrid,
    /// Stable id of each slot, ascending (tombstones keep theirs).
    ids: Vec<usize>,
    points: Vec<Point>,
    live: Vec<bool>,
    /// Sorted neighbour slots of each live slot; empty for tombstones.
    rows: Vec<Vec<u32>>,
    /// The live slots of each non-empty cell, unordered.
    cells: HashMap<(i64, i64), Vec<u32>>,
    population: usize,
    /// Bumped by every insert, remove and relocate.
    version: u64,
    /// The slot the latest change relocated; `None` after an insert or
    /// a remove.
    moved: Option<usize>,
}

impl Topology {
    /// An empty topology with communication radius `radius`.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not strictly positive and finite.
    pub fn new(radius: f64) -> Self {
        Topology::with_points(Vec::new(), radius)
    }

    /// The topology of `points`, with ids `0..points.len()`, built in one
    /// pass over the sorted cell table that
    /// [`Udg::with_radius`](crate::Udg::with_radius) fills its CSR from.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not strictly positive and finite, or if any
    /// point has non-finite coordinates.
    pub fn with_points(points: Vec<Point>, radius: f64) -> Self {
        let table = CellTable::new(&points, radius);
        let order = table.order();
        let mut rows = vec![Vec::new(); points.len()];
        table.for_each_row(|k, row| {
            let mut r: Vec<u32> = row.iter().map(|&u| order[u as usize]).collect();
            r.sort_unstable();
            rows[order[k] as usize] = r;
        });
        let mut cells = HashMap::new();
        table.for_each_cell(|key, ids| {
            cells.insert(key, ids.to_vec());
        });
        Topology {
            grid: CellGrid::new(radius),
            ids: (0..points.len()).collect(),
            live: vec![true; points.len()],
            population: points.len(),
            points,
            rows,
            cells,
            version: 0,
            moved: None,
        }
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.population
    }

    /// Returns `true` if no node is live.
    pub fn is_empty(&self) -> bool {
        self.population == 0
    }

    /// The slot of live node `id`.
    fn slot(&self, id: usize) -> Option<usize> {
        let s = self.ids.binary_search(&id).ok()?;
        self.live[s].then_some(s)
    }

    /// Whether `id` is live.
    pub fn contains(&self, id: usize) -> bool {
        self.slot(id).is_some()
    }

    /// The position of live node `id`.
    pub fn position(&self, id: usize) -> Option<Point> {
        self.slot(id).map(|s| self.points[s])
    }

    /// The live neighbours of live node `id`, as ids in ascending order;
    /// `None` when `id` is not live.
    pub fn neighbors(&self, id: usize) -> Option<impl Iterator<Item = usize> + '_> {
        let s = self.slot(id)?;
        Some(self.rows[s].iter().map(|&u| self.ids[u as usize]))
    }

    /// Live nodes as `(id, position)`, ascending by id.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Point)> + '_ {
        (0..self.ids.len())
            .filter(|&s| self.live[s])
            .map(|s| (self.ids[s], self.points[s]))
    }

    /// Adds node `id` at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is not finite, or if `id` is not above every id
    /// added before (slots must stay in id order).
    pub fn insert(&mut self, id: usize, pos: Point) {
        assert!(pos.is_finite(), "position of node {id} must be finite");
        assert!(
            self.ids.last().is_none_or(|&last| last < id),
            "node ids must be issued in increasing order, got {id} after {:?}",
            self.ids.last()
        );
        let s = self.ids.len();
        assert!(u32::try_from(s).is_ok(), "slot {s} does not fit a u32");
        self.ids.push(id);
        self.points.push(pos);
        self.live.push(true);
        self.rows.push(Vec::new());
        self.attach(s, pos);
        self.population += 1;
        self.changed(None);
    }

    /// Records one change: `moved` is the relocated slot, if any.
    fn changed(&mut self, moved: Option<usize>) {
        self.version += 1;
        self.moved = moved;
    }

    /// Removes live node `id`, returning the ids of its former
    /// neighbours, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    pub fn remove(&mut self, id: usize) -> Vec<usize> {
        let s = self
            .slot(id)
            .unwrap_or_else(|| panic!("node {id} is not live"));
        let row = self.detach(s);
        let former = row.iter().map(|&u| self.ids[u as usize]).collect();
        self.live[s] = false;
        self.population -= 1;
        if self.ids.len() - self.population > self.population {
            self.compact();
        }
        self.changed(None);
        former
    }

    /// Moves live node `id` to `to`, returning `id` and the ids of every
    /// node adjacent to it before or after the move, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live or `to` is not finite.
    pub fn relocate(&mut self, id: usize, to: Point) -> Vec<usize> {
        assert!(to.is_finite(), "position of node {id} must be finite");
        let s = self
            .slot(id)
            .unwrap_or_else(|| panic!("node {id} is not live"));
        let mut touched = self.detach(s);
        self.attach(s, to);
        self.changed(Some(s));
        touched.extend_from_slice(&self.rows[s]);
        touched.push(s as u32);
        touched.sort_unstable();
        touched.dedup();
        touched.iter().map(|&u| self.ids[u as usize]).collect()
    }

    /// Unlinks slot `s` from its neighbours' rows and its cell, returning
    /// its old row.
    fn detach(&mut self, s: usize) -> Vec<u32> {
        let row = std::mem::take(&mut self.rows[s]);
        for &u in &row {
            let r = &mut self.rows[u as usize];
            let at = r.binary_search(&(s as u32)).expect("rows are symmetric");
            r.remove(at);
        }
        let key = self.grid.key(self.points[s]);
        let cell = self.cells.get_mut(&key).expect("a live slot is indexed");
        let at = cell
            .iter()
            .position(|&t| t as usize == s)
            .expect("a live slot is in its cell");
        cell.swap_remove(at);
        if cell.is_empty() {
            self.cells.remove(&key);
        }
        row
    }

    /// Places slot `s` at `pos`: finds its neighbours in the 3×3 block of
    /// cells, links it into their rows and indexes it.
    fn attach(&mut self, s: usize, pos: Point) {
        self.points[s] = pos;
        let key = self.grid.key(pos);
        let mut row: Vec<u32> = Vec::new();
        for k in CellGrid::block(key) {
            if let Some(cell) = self.cells.get(&k) {
                let near = |&&t: &&u32| self.grid.adjacent(pos, self.points[t as usize]);
                row.extend(cell.iter().filter(near));
            }
        }
        row.sort_unstable();
        for &u in &row {
            let r = &mut self.rows[u as usize];
            let at = r.binary_search(&(s as u32)).unwrap_err();
            r.insert(at, s as u32);
        }
        self.rows[s] = row;
        self.cells.entry(key).or_default().push(s as u32);
    }

    /// Drops the tombstones, renumbering the live slots in order (a
    /// monotone map, so rows stay sorted).
    fn compact(&mut self) {
        let mut remap = vec![u32::MAX; self.ids.len()];
        let mut kept = 0;
        for (to, _) in remap.iter_mut().zip(&self.live).filter(|(_, &live)| live) {
            *to = kept;
            kept += 1;
        }
        retain_live(&mut self.ids, &self.live);
        retain_live(&mut self.points, &self.live);
        retain_live(&mut self.rows, &self.live);
        self.live = vec![true; kept as usize];
        let renumber = |list: &mut Vec<u32>| {
            for u in list.iter_mut() {
                *u = remap[*u as usize];
            }
        };
        self.rows.iter_mut().for_each(renumber);
        self.cells.values_mut().for_each(renumber);
        self.cells.shrink_to_fit();
    }

    /// The unit-disk graph of the live nodes, nodes in ascending id
    /// order, with their ids.
    pub fn graph(&self) -> (Vec<usize>, Graph) {
        let mut local = vec![NONE; self.ids.len()];
        let mut members = Vec::with_capacity(self.population);
        for s in (0..self.ids.len()).filter(|&s| self.live[s]) {
            local[s] = members.len() as u32;
            members.push(s as u32);
        }
        self.relabel(&members, &local)
    }

    /// The largest connected component of [`Topology::graph`], ties going
    /// to the component holding the smallest id, with its ids: one
    /// breadth-first labelling of the rows, then a relabelling.  Empty
    /// when no node is live.
    pub fn giant(&self) -> (Vec<usize>, Graph) {
        let mut giant = Giant::new();
        self.label_giant(&mut giant);
        (giant.ids, giant.graph)
    }

    /// Brings `giant` up to date with the latest change, patched when it
    /// can be and relabelled from scratch otherwise; returns whether it
    /// was patched.
    ///
    /// The patch takes a move that keeps the giant's members.  It needs
    /// `giant` current as of the change before, and the moved node and
    /// its new neighbours all members (its old neighbours are, as the
    /// giant's rows held them).  It first rewrites the rows of the moved
    /// node and of its old and new neighbours inside the kept CSR
    /// ([`Graph::replace_rows`]).  Every other row changed only by the
    /// moved node, so the member set is closed under adjacency after the
    /// move, and the patched giant is exactly the rows restricted to the
    /// members.  An interleaved search on it, in local ids, from the
    /// moved node and its old neighbours then decides as soon as they
    /// meet whether they still share one component
    /// ([`LocalSearch::connects`]).  If they do, every path through a
    /// lost edge has a detour and no new edge leaves the giant: its
    /// members, its local ids and the other components are unchanged,
    /// and so is the winner of any size tie.  Every other change (a
    /// join, a leave, a split, a merge) runs the labelling of
    /// [`Topology::giant`].
    pub fn update_giant(&self, giant: &mut Giant) -> bool {
        let patched = self.patch_giant(giant);
        if !patched {
            self.label_giant(giant);
        }
        giant.version = self.version;
        patched
    }

    /// The fast path of [`Topology::update_giant`]; after `false`,
    /// `giant` may hold rewritten rows, and the caller relabels it.
    fn patch_giant(&self, giant: &mut Giant) -> bool {
        let Some(s) = self.moved else {
            return false;
        };
        if giant.version.wrapping_add(1) != self.version || giant.local[s] == NONE {
            return false;
        }
        if self.rows[s]
            .iter()
            .any(|&t| giant.local[t as usize] == NONE)
        {
            return false;
        }
        // The search's seeds: the moved node and its old neighbours, as
        // the kept rows hold them.
        let v = giant.local[s];
        giant.seeds.clear();
        giant.seeds.push(v as usize);
        giant.seeds.extend(giant.graph.neighbors_iter(v as usize));
        // The moved node's new row, and the rows to rewrite: its own and
        // its old and new neighbours', in local order.
        giant.fresh.clear();
        giant
            .fresh
            .extend(self.rows[s].iter().map(|&t| giant.local[t as usize]));
        giant.changed.clear();
        giant.changed.extend(giant.seeds.iter().map(|&u| u as u32));
        giant.changed.extend_from_slice(&giant.fresh);
        giant.changed.sort_unstable();
        giant.changed.dedup();
        giant.packed.clear();
        giant.ends.clear();
        for &u in &giant.changed {
            if u == v {
                giant.packed.extend_from_slice(&giant.fresh);
            } else {
                // A neighbour's row changed only in its edge to `v`.
                let row = giant.graph.neighbors(u as usize);
                let at = row.partition_point(|&w| w < v);
                let past = at + usize::from(row.get(at) == Some(&v));
                giant.packed.extend_from_slice(&row[..at]);
                if giant.fresh.binary_search(&u).is_ok() {
                    giant.packed.push(v);
                }
                giant.packed.extend_from_slice(&row[past..]);
            }
            giant.ends.push((u as usize, giant.packed.len()));
        }
        giant.graph.replace_rows(&giant.ends, &giant.packed);
        giant.search.connects(&giant.graph, |_| true, &giant.seeds)
    }

    /// Relabels `giant` from scratch: one breadth-first labelling of the
    /// rows, then a relabelling of the largest component.
    fn label_giant(&self, giant: &mut Giant) {
        let n = self.ids.len();
        let label = &mut giant.local;
        label.clear();
        label.resize(n, NONE);
        let mut queue: Vec<u32> = Vec::new();
        let (mut best, mut best_size) = (NONE, 0);
        let mut next = 0u32;
        for s in 0..n {
            if !self.live[s] || label[s] != NONE {
                continue;
            }
            label[s] = next;
            queue.clear();
            queue.push(s as u32);
            let mut head = 0;
            while let Some(&u) = queue.get(head) {
                head += 1;
                for &w in &self.rows[u as usize] {
                    if label[w as usize] == NONE {
                        label[w as usize] = next;
                        queue.push(w);
                    }
                }
            }
            if queue.len() > best_size {
                (best, best_size) = (next, queue.len());
            }
            next += 1;
        }
        let mut members: Vec<u32> = Vec::with_capacity(best_size);
        for (s, l) in label.iter_mut().enumerate() {
            *l = if self.live[s] && *l == best {
                members.push(s as u32);
                members.len() as u32 - 1
            } else {
                NONE
            };
        }
        (giant.ids, giant.graph) = self.relabel(&members, &giant.local);
    }

    /// The subgraph on `members` (ascending live slots closed under
    /// adjacency), numbered in that order: `local[s]` is slot `s`'s
    /// number.
    fn relabel(&self, members: &[u32], local: &[u32]) -> (Vec<usize>, Graph) {
        let mut offsets = Vec::with_capacity(members.len() + 1);
        offsets.push(0);
        let mut targets =
            Vec::with_capacity(members.iter().map(|&s| self.rows[s as usize].len()).sum());
        for &s in members {
            targets.extend(self.rows[s as usize].iter().map(|&u| local[u as usize]));
            offsets.push(targets.len());
        }
        let ids = members.iter().map(|&s| self.ids[s as usize]).collect();
        (ids, Graph::from_sorted_adjacency(offsets, targets))
    }
}

/// A slot's local id off the giant, and the "unlabelled" mark of the
/// labelling.
const NONE: u32 = u32::MAX;

/// The giant component of a [`Topology`], kept across changes by
/// [`Topology::update_giant`]: the members' ids and CSR, and each slot's
/// local id (its label as a member, none off the giant), with the
/// scratch of the patch.
#[derive(Debug, Clone)]
pub struct Giant {
    /// Stable ids of the members, ascending.
    ids: Vec<usize>,
    /// The giant component over the members' local ids.
    graph: Graph,
    /// The local id of each slot.
    local: Vec<u32>,
    /// The topology version this giant is current for.
    version: u64,
    /// The reconnection search, over local ids.
    search: LocalSearch,
    seeds: Vec<usize>,
    /// The moved node's new row, and the rows to rewrite.
    fresh: Vec<u32>,
    changed: Vec<u32>,
    /// The rewritten rows, packed, and their `(local, end)` pairs.
    packed: Vec<u32>,
    ends: Vec<(usize, usize)>,
}

impl Default for Giant {
    fn default() -> Self {
        Giant::new()
    }
}

impl Giant {
    /// An empty giant, current for no topology: the first
    /// [`Topology::update_giant`] labels it.
    pub fn new() -> Self {
        Giant {
            ids: Vec::new(),
            graph: Graph::empty(0),
            local: Vec::new(),
            version: u64::MAX,
            search: LocalSearch::default(),
            seeds: Vec::new(),
            fresh: Vec::new(),
            changed: Vec::new(),
            packed: Vec::new(),
            ends: Vec::new(),
        }
    }

    /// The members' stable ids, ascending.
    pub fn ids(&self) -> &[usize] {
        &self.ids
    }

    /// The giant component, node `i` being the member `ids()[i]`.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` if the giant has no members (no node is live).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The local id of member `id`, `None` off the giant.
    pub fn local(&self, id: usize) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }
}

/// Keeps the entries of `v` whose slot is live, in order, and releases
/// the freed capacity.
fn retain_live<T>(v: &mut Vec<T>, live: &[bool]) {
    let mut flags = live.iter();
    v.retain(|_| *flags.next().expect("one flag per slot"));
    v.shrink_to_fit();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Udg;
    use mcds_rng::rngs::StdRng;
    use mcds_rng::{Rng, SeedableRng};

    /// Asserts that the rows, and each live node's `neighbors`, equal the
    /// brute-force unit-disk graph of the live points, and that the cell
    /// index holds exactly the live slots.
    fn assert_matches_naive(topo: &Topology, radius: f64, context: &str) {
        let live: Vec<(usize, Point)> = topo.iter().collect();
        let (ids, graph) = topo.graph();
        assert_eq!(ids, live.iter().map(|&(id, _)| id).collect::<Vec<_>>());
        let naive = Udg::build_naive(live.iter().map(|&(_, p)| p).collect(), radius);
        assert_eq!(&graph, naive.graph(), "{context}");
        for (k, &id) in ids.iter().enumerate() {
            let want: Vec<usize> = naive.graph().neighbors_iter(k).map(|u| ids[u]).collect();
            let got: Vec<usize> = topo.neighbors(id).expect("live").collect();
            assert_eq!(got, want, "{context}: neighbors of {id}");
        }
        let mut indexed: Vec<u32> = topo.cells.values().flatten().copied().collect();
        indexed.sort_unstable();
        let want: Vec<u32> = (0..topo.ids.len() as u32)
            .filter(|&s| topo.live[s as usize])
            .collect();
        assert_eq!(indexed, want, "{context}: cell index");
        assert!(topo.ids.len() <= 2 * topo.len(), "{context}: tombstones");
    }

    #[test]
    fn seeded_rows_equal_the_naive_build() {
        for seed in [1u64, 5, 9] {
            let mut rng = StdRng::seed_from_u64(seed);
            let pts: Vec<Point> = (0..150)
                .map(|_| Point::new(rng.gen_range(0.0..=5.0), rng.gen_range(0.0..=5.0)))
                .collect();
            let topo = Topology::with_points(pts, 1.0);
            assert_matches_naive(&topo, 1.0, &format!("seed {seed}"));
        }
    }

    #[test]
    fn patched_rows_equal_the_naive_build() {
        for (seed, radius) in [(3u64, 1.0), (4, 0.5), (5, 1.5)] {
            // Each coordinate is a multiple of the cell side (a point on a
            // cell boundary) or of half the radius (points exactly one
            // radius apart); the small lattice makes moves land on
            // occupied points too.
            let side = CellGrid::new(radius).side();
            let lattice = |rng: &mut StdRng| {
                let mut coordinate = || {
                    let step = if rng.gen_bool(0.5) {
                        side
                    } else {
                        radius / 2.0
                    };
                    rng.gen_range(0..9usize) as f64 * step
                };
                Point::new(coordinate(), coordinate())
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let pts: Vec<Point> = (0..30).map(|_| lattice(&mut rng)).collect();
            let mut topo = Topology::with_points(pts, radius);
            let mut kept = Giant::new();
            let mut patched = 0;
            let mut next = 30;
            for step in 0..400 {
                let live: Vec<usize> = topo.iter().map(|(id, _)| id).collect();
                let roll = rng.gen_range(0..10usize);
                if roll < 3 || live.len() < 4 {
                    topo.insert(next, lattice(&mut rng));
                    next += 1;
                } else if roll < 5 {
                    let id = live[rng.gen_range(0..live.len())];
                    let former = topo.remove(id);
                    assert!(former.windows(2).all(|w| w[0] < w[1]));
                    assert!(topo.neighbors(id).is_none());
                } else {
                    let id = live[rng.gen_range(0..live.len())];
                    // Half the moves land exactly on another node.
                    let to = if rng.gen_bool(0.5) {
                        topo.position(live[rng.gen_range(0..live.len())]).unwrap()
                    } else {
                        lattice(&mut rng)
                    };
                    let touched = topo.relocate(id, to);
                    assert!(touched.binary_search(&id).is_ok());
                }
                assert_matches_naive(&topo, radius, &format!("seed {seed}, step {step}"));
                patched += usize::from(topo.update_giant(&mut kept));
                let (ids, graph) = topo.giant();
                assert_eq!(
                    (kept.ids(), kept.graph()),
                    (&ids[..], &graph),
                    "step {step}"
                );
            }
            assert!(patched > 0, "seed {seed}: no move kept the giant");
        }
    }

    #[test]
    fn a_giant_one_change_behind_is_relabelled() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(0.8, 0.0),
            Point::new(1.6, 0.0),
        ];
        let mut topo = Topology::with_points(pts, 1.0);
        let mut kept = Giant::new();
        assert!(!topo.update_giant(&mut kept), "a new giant is labelled");
        topo.relocate(0, Point::new(0.1, 0.0));
        assert!(topo.update_giant(&mut kept));
        // Two moves since the last update: the patch would miss the first.
        topo.relocate(2, Point::new(1.7, 0.0));
        topo.relocate(0, Point::new(5.0, 0.0));
        assert!(!topo.update_giant(&mut kept));
        assert_eq!(kept.ids(), [1, 2]);
        assert_eq!(kept.graph(), &topo.giant().1);
    }

    #[test]
    fn giant_ties_go_to_the_smallest_id() {
        // Two pairs of equal size: {0, 3} and {1, 2}; the pair holding 0
        // wins, whatever order the components were joined in.
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.5, 0.0),
            Point::new(0.5, 0.0),
        ];
        let topo = Topology::with_points(pts, 1.0);
        assert_eq!(topo.giant().0, vec![0, 3]);
        let mut topo = topo;
        topo.remove(0);
        assert_eq!(topo.giant().0, vec![1, 2]);
        topo.remove(3);
        topo.remove(1);
        assert_eq!(topo.giant().0, vec![2]);
        topo.remove(2);
        let (ids, graph) = topo.giant();
        assert!(ids.is_empty());
        assert_eq!(graph.num_nodes(), 0);
    }

    #[test]
    fn churning_ten_times_the_population_keeps_memory_bounded() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut point = || Point::new(rng.gen_range(0.0..=6.0), rng.gen_range(0.0..=6.0));
        let base: Vec<Point> = (0..50).map(|_| point()).collect();
        let mut topo = Topology::with_points(base, 1.0);
        let joined: Vec<usize> = (50..550).collect();
        for &id in &joined {
            topo.insert(id, point());
        }
        assert_eq!(topo.len(), 550);
        // Leave in an interleaved order so tombstones land everywhere.
        for &id in joined
            .iter()
            .step_by(2)
            .chain(joined.iter().skip(1).step_by(2))
        {
            topo.remove(id);
            assert!(topo.ids.len() <= 2 * topo.len(), "{} slots", topo.ids.len());
        }
        assert_eq!(topo.len(), 50);
        assert!(topo.ids.len() <= 2 * topo.len());
        assert!(
            topo.ids.capacity() <= 2 * 2 * topo.len(),
            "{}",
            topo.ids.capacity()
        );
        assert_matches_naive(&topo, 1.0, "after the churn");
        assert_eq!(
            topo.iter().map(|(id, _)| id).collect::<Vec<_>>(),
            (0..50).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "increasing order")]
    fn ids_must_increase() {
        let mut topo = Topology::with_points(vec![Point::ORIGIN; 3], 1.0);
        topo.insert(2, Point::ORIGIN);
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn removing_a_dead_node_panics() {
        let mut topo = Topology::with_points(vec![Point::ORIGIN; 3], 1.0);
        topo.remove(1);
        topo.remove(1);
    }
}
