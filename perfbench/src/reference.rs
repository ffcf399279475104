//! A fixed reference kernel, timed beside the program's op in the same
//! run, so the gated op time is read relative to the machine's speed at
//! that moment.
//!
//! On a shared machine the same op drifts by ±20% between runs, and for
//! minutes at a time, as neighbours come and go.  Breadth-first sweeps
//! over a cache-sized ball of the workload's own graph slow down with it,
//! because they touch memory the way the op does; a compute-only loop
//! and a sweep over a million nodes (bound by memory latency) track it
//! far less.  The sweeps run on the benchmark's own copy of the
//! adjacency, so no change to the program's code changes their cost.

use std::time::Instant;

use mcds_graph::Graph;

use crate::loadgen::ms;

/// Nodes in the ball the sweeps cover.
pub const BALL: usize = 20_000;

/// Breadth-first sweeps over a private CSR copy of part of a graph.
pub struct Sweep {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    /// `seen[v] == epoch` marks `v` visited in the current sweep.
    seen: Vec<u32>,
    queue: Vec<u32>,
    epoch: u32,
    /// Nodes reached over all sweeps, so the work cannot be optimised out.
    reached: u64,
}

impl Sweep {
    /// Copies the subgraph induced by the first [`BALL`] nodes a
    /// breadth-first search of `g` from node 0 reaches (its whole
    /// component when smaller), relabelled in visit order.
    pub fn new(g: &Graph) -> Sweep {
        let mut label = vec![u32::MAX; g.num_nodes()];
        let mut ball = vec![0];
        label[0] = 0;
        let mut head = 0;
        while head < ball.len() && ball.len() < BALL {
            for &u in g.neighbors(ball[head]) {
                let u = u as usize;
                if label[u] == u32::MAX && ball.len() < BALL {
                    label[u] = ball.len() as u32;
                    ball.push(u);
                }
            }
            head += 1;
        }
        let n = ball.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        offsets.push(0);
        for &v in &ball {
            let inside = g.neighbors(v).iter().map(|&u| label[u as usize]);
            targets.extend(inside.filter(|&l| l != u32::MAX));
            offsets.push(targets.len() as u32);
        }
        Sweep {
            offsets,
            targets,
            seen: vec![0; n],
            queue: Vec::with_capacity(n),
            epoch: 0,
            reached: 0,
        }
    }

    /// Runs `sweeps` breadth-first sweeps from fixed roots and returns
    /// their wall time in ms.
    pub fn time(&mut self, sweeps: usize) -> f64 {
        let n = self.seen.len();
        let t = Instant::now();
        for _ in 0..sweeps {
            self.epoch += 1;
            let root = (self.epoch as usize).wrapping_mul(7919) % n;
            self.queue.clear();
            self.queue.push(root as u32);
            self.seen[root] = self.epoch;
            let mut head = 0;
            while let Some(&v) = self.queue.get(head) {
                head += 1;
                let v = v as usize;
                let (lo, hi) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
                for &u in &self.targets[lo..hi] {
                    if self.seen[u as usize] != self.epoch {
                        self.seen[u as usize] = self.epoch;
                        self.queue.push(u);
                    }
                }
            }
            self.reached += self.queue.len() as u64;
        }
        let elapsed = ms(t.elapsed());
        std::hint::black_box(self.reached);
        elapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sweep_reaches_the_whole_ball() {
        // A path 0-1-2 and an edge 3-4: the ball is the path.
        let mut s = Sweep::new(&Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]));
        assert_eq!(s.offsets, [0, 1, 3, 4]);
        for _ in 0..10 {
            let before = s.reached;
            s.time(1);
            assert_eq!(s.reached - before, 3);
        }
    }
}
