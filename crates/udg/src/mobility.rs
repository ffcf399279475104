//! Node mobility — the "ad hoc" in wireless ad hoc networks.
//!
//! The literature the paper builds on (\[1\] is titled *"Message-Optimal
//! Connected Dominating Sets in **Mobile** Ad Hoc Networks"*) cares about
//! topologies that change as nodes move.  This module provides the
//! standard **random-waypoint** model: each node picks a waypoint
//! uniformly in the region, travels toward it at its speed, pauses, and
//! repeats.  Backbone-maintenance experiments sample the walk at epochs
//! and measure how much of the CDS survives each step.

use mcds_geom::{Aabb, Point};
use mcds_rng::Rng;

use crate::Udg;

/// A random-waypoint mobility simulation over a fixed node population.
///
/// ```
/// use mcds_geom::Aabb;
/// use mcds_udg::mobility::RandomWaypoint;
/// use mcds_rng::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut walk = RandomWaypoint::new(&mut rng, 40, Aabb::square(6.0), (0.5, 1.5), 0.2);
/// walk.step(&mut rng, 1.0);
/// let topology = walk.snapshot();      // rebuild the UDG after motion
/// assert_eq!(topology.len(), 40);
/// ```
#[derive(Debug, Clone)]
pub struct RandomWaypoint {
    region: Aabb,
    positions: Vec<Point>,
    waypoints: Vec<Point>,
    speeds: Vec<f64>,
    speed_range: (f64, f64),
    pause_left: Vec<f64>,
    pause: f64,
}

impl RandomWaypoint {
    /// Starts a walk with `n` nodes uniform in `region`, speeds uniform
    /// in `speed_range`, and `pause` time units of rest at each waypoint.
    ///
    /// # Panics
    ///
    /// Panics if the speed range is empty/non-positive or `pause` is
    /// negative.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        n: usize,
        region: Aabb,
        speed_range: (f64, f64),
        pause: f64,
    ) -> Self {
        let (lo, hi) = speed_range;
        assert!(
            lo.is_finite() && hi.is_finite() && 0.0 < lo && lo <= hi,
            "need 0 < min_speed <= max_speed, got {lo}..{hi}"
        );
        assert!(pause >= 0.0 && pause.is_finite(), "pause must be ≥ 0");
        let positions: Vec<Point> = (0..n).map(|_| Self::sample_point(rng, &region)).collect();
        let waypoints: Vec<Point> = (0..n).map(|_| Self::sample_point(rng, &region)).collect();
        let speeds: Vec<f64> = (0..n).map(|_| rng.gen_range(lo..=hi)).collect();
        RandomWaypoint {
            region,
            positions,
            waypoints,
            speeds,
            speed_range,
            pause_left: vec![0.0; n],
            pause,
        }
    }

    fn sample_point<R: Rng + ?Sized>(rng: &mut R, region: &Aabb) -> Point {
        Point::new(
            rng.gen_range(region.min().x..=region.max().x),
            rng.gen_range(region.min().y..=region.max().y),
        )
    }

    /// Current node positions.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// The deployment region.
    pub fn region(&self) -> Aabb {
        self.region
    }

    /// Advances the walk by `dt` time units.
    ///
    /// Each node moves toward its waypoint at its current leg speed; on
    /// arrival it pauses, then draws a fresh waypoint *and a fresh speed*
    /// (the standard random-waypoint model resamples speed per leg — a
    /// node is not stuck with its deployment-time draw forever).
    /// Movement within one `dt` is resolved exactly, including waypoint
    /// arrivals mid-step, and `pause_left` never goes negative however
    /// the step boundaries land relative to pause expiries.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R, dt: f64) {
        assert!(dt >= 0.0 && dt.is_finite(), "dt must be ≥ 0");
        for i in 0..self.positions.len() {
            let mut budget = dt;
            while budget > 0.0 {
                if self.pause_left[i] > 0.0 {
                    let rest = self.pause_left[i].min(budget);
                    // Clamp: `a - min(a, b)` can leave negative dust in
                    // floating point, which would freeze the node (the
                    // `> 0.0` gate above would keep failing while the
                    // pause never finishes draining).
                    self.pause_left[i] = (self.pause_left[i] - rest).max(0.0);
                    budget -= rest;
                    continue;
                }
                let to_go = self.positions[i].dist(self.waypoints[i]);
                let reach = self.speeds[i] * budget;
                if reach < to_go {
                    let dir = (self.waypoints[i] - self.positions[i])
                        .normalized()
                        .expect("to_go > 0");
                    self.positions[i] += dir * reach;
                    budget = 0.0;
                } else {
                    // Arrive, start pause, pick the next leg's waypoint
                    // and speed.
                    self.positions[i] = self.waypoints[i];
                    budget -= to_go / self.speeds[i];
                    self.pause_left[i] = self.pause;
                    self.waypoints[i] = Self::sample_point(rng, &self.region);
                    let (lo, hi) = self.speed_range;
                    self.speeds[i] = rng.gen_range(lo..=hi);
                    // A zero-length leg (degenerate region: the fresh
                    // waypoint is where the node already stands) with
                    // zero pause would consume no budget and spin this
                    // loop forever; the node has nowhere to go, so the
                    // rest of the step is a no-op.
                    if self.pause == 0.0 && self.positions[i] == self.waypoints[i] {
                        break;
                    }
                }
            }
        }
    }

    /// Snapshot of the current communication topology (unit radius).
    pub fn snapshot(&self) -> Udg {
        Udg::build(self.positions.clone())
    }
}

/// The fraction of `old` nodes that survive into `new` — the backbone
/// *stability* between epochs (1.0 = unchanged, and for an empty `old`).
///
/// Both lists must be sorted ascending; one linear merge counts the
/// survivors (an `old` entry listed twice counts twice).
pub fn survival_fraction(old: &[usize], new: &[usize]) -> f64 {
    debug_assert!(old.windows(2).all(|w| w[0] <= w[1]), "old is not sorted");
    debug_assert!(new.windows(2).all(|w| w[0] <= w[1]), "new is not sorted");
    if old.is_empty() {
        return 1.0;
    }
    let mut j = 0;
    let mut kept = 0usize;
    for &v in old {
        while j < new.len() && new[j] < v {
            j += 1;
        }
        kept += usize::from(new.get(j) == Some(&v));
    }
    kept as f64 / old.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_rng::rngs::StdRng;
    use mcds_rng::SeedableRng;

    #[test]
    fn nodes_stay_in_region() {
        let mut rng = StdRng::seed_from_u64(1);
        let region = Aabb::square(8.0);
        let mut walk = RandomWaypoint::new(&mut rng, 60, region, (0.5, 2.0), 0.3);
        for _ in 0..50 {
            walk.step(&mut rng, 0.7);
            for p in walk.positions() {
                assert!(region.contains(*p), "{p} escaped the region");
            }
        }
    }

    #[test]
    fn movement_is_bounded_by_speed() {
        let mut rng = StdRng::seed_from_u64(2);
        let region = Aabb::square(20.0);
        let mut walk = RandomWaypoint::new(&mut rng, 30, region, (1.0, 1.5), 0.0);
        let before = walk.positions().to_vec();
        let dt = 0.5;
        walk.step(&mut rng, dt);
        for (a, b) in before.iter().zip(walk.positions()) {
            // Max distance = max_speed * dt (waypoint turns shorten it).
            assert!(a.dist(*b) <= 1.5 * dt + 1e-9);
        }
    }

    #[test]
    fn pause_holds_nodes_still() {
        let mut rng = StdRng::seed_from_u64(3);
        let region = Aabb::square(2.0);
        // Speed so high every node reaches its waypoint immediately, then
        // pauses for a long time.
        let mut walk = RandomWaypoint::new(&mut rng, 10, region, (1000.0, 1000.0), 100.0);
        walk.step(&mut rng, 1.0); // everyone arrives and starts pausing
        let frozen = walk.positions().to_vec();
        walk.step(&mut rng, 1.0);
        assert_eq!(frozen, walk.positions());
    }

    #[test]
    fn zero_dt_is_identity() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut walk = RandomWaypoint::new(&mut rng, 20, Aabb::square(5.0), (1.0, 2.0), 0.1);
        let before = walk.positions().to_vec();
        walk.step(&mut rng, 0.0);
        assert_eq!(before, walk.positions());
    }

    #[test]
    fn snapshot_matches_positions() {
        let mut rng = StdRng::seed_from_u64(5);
        let walk = RandomWaypoint::new(&mut rng, 15, Aabb::square(4.0), (1.0, 1.0), 0.0);
        let udg = walk.snapshot();
        assert_eq!(udg.points(), walk.positions());
    }

    #[test]
    fn survival_fraction_cases() {
        assert_eq!(survival_fraction(&[], &[1, 2]), 1.0);
        assert_eq!(survival_fraction(&[3, 3, 5], &[3]), 2.0 / 3.0);
        assert_eq!(survival_fraction(&[1, 2], &[1, 2]), 1.0);
        assert_eq!(survival_fraction(&[1, 2], &[]), 0.0);
        assert!((survival_fraction(&[1, 2, 3, 4], &[2, 4, 9]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn speeds_are_redrawn_per_leg() {
        let mut rng = StdRng::seed_from_u64(7);
        // Tiny region + high speeds: every step crosses many waypoints.
        let mut walk = RandomWaypoint::new(&mut rng, 5, Aabb::square(1.0), (5.0, 50.0), 0.0);
        let initial = walk.speeds.clone();
        walk.step(&mut rng, 10.0);
        assert_ne!(
            initial, walk.speeds,
            "arrivals must resample leg speeds, not reuse the deployment draw"
        );
        let (lo, hi) = walk.speed_range;
        for s in &walk.speeds {
            assert!((lo..=hi).contains(s), "leg speed {s} outside {lo}..={hi}");
        }
    }

    #[test]
    fn degenerate_region_with_zero_pause_terminates() {
        let mut rng = StdRng::seed_from_u64(8);
        // A zero-area region: every waypoint equals every position, so a
        // leg consumes no time; step() must still return.
        let point_region = Aabb::new(Point::new(1.0, 1.0), Point::new(1.0, 1.0));
        let mut walk = RandomWaypoint::new(&mut rng, 3, point_region, (1.0, 1.0), 0.0);
        walk.step(&mut rng, 5.0);
        for p in walk.positions() {
            assert_eq!(*p, Point::new(1.0, 1.0));
        }
    }

    #[test]
    fn pause_left_never_goes_negative() {
        let mut rng = StdRng::seed_from_u64(9);
        // Fractional pause drained by many ragged step boundaries; the
        // remaining pause must stay in [0, pause] throughout.
        let mut walk = RandomWaypoint::new(&mut rng, 8, Aabb::square(3.0), (0.5, 2.0), 0.1);
        for _ in 0..400 {
            walk.step(&mut rng, 0.037);
            for (i, left) in walk.pause_left.iter().enumerate() {
                assert!(
                    (0.0..=walk.pause).contains(left),
                    "node {i}: pause_left = {left} outside [0, {}]",
                    walk.pause
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "min_speed")]
    fn bad_speed_range_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let _ = RandomWaypoint::new(&mut rng, 1, Aabb::square(1.0), (2.0, 1.0), 0.0);
    }
}
