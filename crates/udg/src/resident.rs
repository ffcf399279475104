//! The resident topology: a unit-disk graph patched in place under
//! churn instead of rebuilt.

use std::collections::HashMap;

use mcds_geom::Point;
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
        let members: Vec<u32> = (0..self.ids.len() as u32)
            .filter(|&s| self.live[s as usize])
            .collect();
        self.relabel(&members)
    }

    /// The largest connected component of [`Topology::graph`], ties going
    /// to the component holding the smallest id, with its ids: one
    /// breadth-first labelling of the rows, then a relabelling.  Empty
    /// when no node is live.
    pub fn giant(&self) -> (Vec<usize>, Graph) {
        let n = self.ids.len();
        let mut label = vec![u32::MAX; n];
        let mut queue: Vec<u32> = Vec::new();
        let (mut best, mut best_size) = (u32::MAX, 0);
        let mut next = 0u32;
        for s in 0..n {
            if !self.live[s] || label[s] != u32::MAX {
                continue;
            }
            label[s] = next;
            queue.clear();
            queue.push(s as u32);
            let mut head = 0;
            while let Some(&u) = queue.get(head) {
                head += 1;
                for &w in &self.rows[u as usize] {
                    if label[w as usize] == u32::MAX {
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
        let members: Vec<u32> = (0..n as u32)
            .filter(|&s| self.live[s as usize] && label[s as usize] == best)
            .collect();
        self.relabel(&members)
    }

    /// The subgraph on `members` (ascending live slots closed under
    /// adjacency), numbered in that order.
    fn relabel(&self, members: &[u32]) -> (Vec<usize>, Graph) {
        let mut local = vec![u32::MAX; self.ids.len()];
        for (i, &s) in members.iter().enumerate() {
            local[s as usize] = i as u32;
        }
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

    /// Asserts that the rows equal the brute-force unit-disk graph of the
    /// live points, and that the cell index holds exactly the live slots.
    fn assert_matches_naive(topo: &Topology, radius: f64, context: &str) {
        let live: Vec<(usize, Point)> = topo.iter().collect();
        let (ids, graph) = topo.graph();
        assert_eq!(ids, live.iter().map(|&(id, _)| id).collect::<Vec<_>>());
        let naive = Udg::build_naive(live.iter().map(|&(_, p)| p).collect(), radius);
        assert_eq!(&graph, naive.graph(), "{context}");
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
            }
        }
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
