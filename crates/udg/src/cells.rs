//! The sorted cell table: the one enumerator of unit-disk-graph edges.
//!
//! Points are keyed into square cells as wide as the edge test reaches,
//! and node ids are sorted by `(cell_y, cell_x, id)` into one flat
//! `order` array, with
//! `cuts` marking where each cell's run begins.  Because cells sort
//! row-major, the cells of one row of a 3×3 block are adjacent in that
//! order, so every block is three contiguous runs of sweep positions.
//! Each cell's block is resolved once, when the table is built.
//!
//! [`Udg::with_radius`](crate::Udg::with_radius) fills its CSR from the
//! table with one edge test, `dist² ≤ r² + EPS`.  The resident
//! [`Topology`](crate::Topology) is seeded from the table and keys its
//! own cell index with the same [`CellGrid`], so a patched topology
//! holds exactly the edges a fresh build would.

use std::ops::Range;

use mcds_geom::Point;

/// The cell geometry and edge test every unit-disk builder shares.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CellGrid {
    /// Cell side: the reach of the edge test, with a rounding margin.
    side: f64,
    /// The closed-ball adjacency threshold `r² + EPS`.
    r_sq: f64,
}

impl CellGrid {
    /// The grid for the edge test `dist² ≤ r² + EPS`.
    ///
    /// That test joins points up to `√(r² + EPS)` apart, beyond `radius`
    /// (and far beyond it when `r²` is small next to `EPS`), so the cell
    /// side is that reach, widened by a relative margin that absorbs the
    /// rounding of the test, the square root and the key division.  A
    /// cell key is `floor(coordinate / side)` cast to `i64`, which
    /// saturates.  The division is correctly rounded, so keys are
    /// monotone, and two coordinates whose keys differ by two or more are
    /// farther apart than the test reaches: the 3×3 block around a
    /// point's cell holds every point the test joins it to.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not strictly positive and finite.
    pub(crate) fn new(radius: f64) -> CellGrid {
        assert!(
            radius.is_finite() && radius > 0.0,
            "communication radius must be positive and finite, got {radius}"
        );
        let r_sq = radius * radius + mcds_geom::EPS;
        CellGrid {
            side: r_sq.sqrt() * (1.0 + 1e-12),
            r_sq,
        }
    }

    /// The cell side.
    #[cfg(test)]
    pub(crate) fn side(&self) -> f64 {
        self.side
    }

    /// The `(cell_y, cell_x)` key of `p`, which must be finite.
    pub(crate) fn key(&self, p: Point) -> (i64, i64) {
        (
            (p.y / self.side).floor() as i64,
            (p.x / self.side).floor() as i64,
        )
    }

    /// The unit-disk edge test.
    pub(crate) fn adjacent(&self, p: Point, q: Point) -> bool {
        q.dist_sq(p) <= self.r_sq
    }

    /// The keys of the 3×3 block around `key`, formed with checked
    /// arithmetic: a neighbour past the `i64` range holds no point.
    pub(crate) fn block(key: (i64, i64)) -> impl Iterator<Item = (i64, i64)> {
        let (cy, cx) = key;
        (-1i64..=1).flat_map(move |dy| {
            (-1i64..=1).filter_map(move |dx| Some((cy.checked_add(dy)?, cx.checked_add(dx)?)))
        })
    }
}

/// Node ids in grid-sweep order, cut into cells, with each cell's 3×3
/// block of candidate positions.
pub(crate) struct CellTable {
    /// Node ids sorted by `(cell_y, cell_x, id)`; `order[k]` is the node
    /// at sweep position `k`.
    order: Vec<u32>,
    /// `points[k]` is the point of node `order[k]`.
    points: Vec<Point>,
    /// Cell `c` holds sweep positions `cuts[c]..cuts[c + 1]`.
    cuts: Vec<usize>,
    /// The sweep positions of cell `c`'s 3×3 block: one run for each of
    /// the rows `cell_y − 1`, `cell_y` and `cell_y + 1`, in that order.
    blocks: Vec<[Range<usize>; 3]>,
    /// The shared cell geometry and edge test.
    grid: CellGrid,
}

impl CellTable {
    /// Sorts `points` into the cells of [`CellGrid::new`]`(radius)`.
    /// Neighbour keys are formed with checked and saturating arithmetic,
    /// and nothing is allocated by bounding box: the table holds one entry
    /// per point and at most one per non-empty cell.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not strictly positive and finite, or if any
    /// point has non-finite coordinates.
    pub(crate) fn new(points: &[Point], radius: f64) -> CellTable {
        let grid = CellGrid::new(radius);
        let mut keyed: Vec<(i64, i64, u32)> = points
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                assert!(p.is_finite(), "point {i} has non-finite coordinates");
                let (cy, cx) = grid.key(p);
                (cy, cx, i as u32)
            })
            .collect();
        keyed.sort_unstable();

        let mut keys: Vec<(i64, i64)> = Vec::new();
        let mut cuts = Vec::new();
        for (k, &(cy, cx, _)) in keyed.iter().enumerate() {
            if keys.last() != Some(&(cy, cx)) {
                keys.push((cy, cx));
                cuts.push(k);
            }
        }
        cuts.push(keyed.len());
        let order: Vec<u32> = keyed.into_iter().map(|(.., i)| i).collect();

        // Row `cy + dy` of a cell's block is the run of cells keyed
        // `(cy + dy, cx − 1) ..= (cy + dy, cx + 1)`.  Both ends ascend with
        // the cell, so one cursor per end and row finds every block in a
        // single sweep.
        let mut lo = [0usize; 3];
        let mut hi = [0usize; 3];
        let blocks = keys
            .iter()
            .map(|&(cy, cx)| {
                std::array::from_fn(|j| {
                    let Some(ry) = cy.checked_add(j as i64 - 1) else {
                        return 0..0;
                    };
                    let first = (ry, cx.saturating_sub(1));
                    let last = (ry, cx.saturating_add(1));
                    while lo[j] < keys.len() && keys[lo[j]] < first {
                        lo[j] += 1;
                    }
                    while hi[j] < keys.len() && keys[hi[j]] <= last {
                        hi[j] += 1;
                    }
                    cuts[lo[j]]..cuts[hi[j]]
                })
            })
            .collect();

        CellTable {
            points: order.iter().map(|&i| points[i as usize]).collect(),
            order,
            cuts,
            blocks,
            grid,
        }
    }

    /// Node ids in sweep order.
    pub(crate) fn order(&self) -> &[u32] {
        &self.order
    }

    /// Calls `f(k, row)` for every sweep position `k` in ascending order,
    /// where `row` holds the sweep positions adjacent to `k`, ascending.
    pub(crate) fn for_each_row<F: FnMut(usize, &[u32])>(&self, mut f: F) {
        let mut row: Vec<u32> = Vec::new();
        for (c, block) in self.blocks.iter().enumerate() {
            row.resize(block.iter().map(|run| run.len()).sum(), 0);
            for k in self.cuts[c]..self.cuts[c + 1] {
                let p = self.points[k];
                // Every candidate is written and the length advances only
                // on a hit.  About a third of a block's candidates are
                // hits, which defeats branch prediction; this branch-free
                // form measured about twice as fast as a branching filter.
                let mut len = 0;
                for run in block {
                    for (u, q) in (run.start..).zip(&self.points[run.clone()]) {
                        row[len] = u as u32;
                        len += usize::from(self.grid.adjacent(p, *q) & (u != k));
                    }
                }
                f(k, &row[..len]);
            }
        }
    }

    /// Calls `f(key, ids)` for every non-empty cell, where `ids` are the
    /// node ids of that cell, ascending.
    pub(crate) fn for_each_cell<F: FnMut((i64, i64), &[u32])>(&self, mut f: F) {
        for run in self.cuts.windows(2) {
            f(
                self.grid.key(self.points[run[0]]),
                &self.order[run[0]..run[1]],
            );
        }
    }
}
