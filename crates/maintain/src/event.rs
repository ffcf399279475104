//! Topology events and their sources.
//!
//! The maintenance engine consumes a stream of [`TopologyEvent`]s — the
//! primitive ways a wireless ad hoc topology churns: a node powers on
//! ([`TopologyEvent::Join`]), crashes or leaves ([`TopologyEvent::Leave`]),
//! or moves ([`TopologyEvent::Move`]).  Two event sources are provided,
//! and [`EventSource::drive`] applies them (with [`FaultGen`]'s bursts):
//!
//! * [`ChurnGen`] — a synthetic, seeded generator mixing the three kinds
//!   with configurable rates, for stress tests and experiments,
//! * [`waypoint_epoch`] — an adapter sampling a
//!   [`mcds_udg::mobility::RandomWaypoint`] walk at epoch boundaries and
//!   emitting one `Move` per node that actually moved.

use mcds_geom::{Aabb, Point};
use mcds_rng::Rng;
use mcds_udg::mobility::RandomWaypoint;

use crate::engine::{Maintainer, RepairReport};

/// Stable node identity, preserved across events.
///
/// Dense graph indices are reassigned every snapshot; `NodeId`s are not —
/// they are what lets the engine (and its metrics) track a backbone node
/// through arbitrary join/leave interleavings.
pub type NodeId = usize;

/// One atomic change to the topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologyEvent {
    /// A new node powers on at `pos` (the engine assigns its [`NodeId`]).
    Join {
        /// Deployment position of the new node.
        pos: Point,
    },
    /// Node `node` crashes or leaves the network.
    Leave {
        /// The departing node.
        node: NodeId,
    },
    /// Node `node` moves to `to`.
    Move {
        /// The moving node.
        node: NodeId,
        /// Its new position.
        to: Point,
    },
}

/// Rates and shape of synthetic churn.
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// Deployment region for joins and moves.
    pub region: Aabb,
    /// Probability that an event is a join.
    pub p_join: f64,
    /// Probability that an event is a leave/crash.
    pub p_leave: f64,
    /// Maximum displacement of a single move event (a move jumps the node
    /// uniformly within this radius, clamped to the region).
    pub move_radius: f64,
    /// Leaves are suppressed (turned into moves) while the population is
    /// at or below this floor, so churn cannot drain the network.
    pub min_population: usize,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            region: Aabb::square(6.0),
            p_join: 0.1,
            p_leave: 0.1,
            move_radius: 0.5,
            min_population: 4,
        }
    }
}

/// A seeded synthetic churn source.
///
/// Each call to [`ChurnGen::next_event`] draws one event against the
/// caller's current population (the engine's alive nodes), so the stream
/// always references nodes that exist.
///
/// ```
/// use mcds_maintain::{ChurnConfig, ChurnGen};
/// use mcds_rng::{rngs::StdRng, SeedableRng};
/// use mcds_geom::Point;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut churn = ChurnGen::new(ChurnConfig::default());
/// let alive = vec![(0, Point::new(1.0, 1.0)), (1, Point::new(2.0, 2.0))];
/// let _event = churn.next_event(&mut rng, &alive);
/// ```
#[derive(Debug, Clone)]
pub struct ChurnGen {
    cfg: ChurnConfig,
}

impl ChurnGen {
    /// Creates a generator with the given rates.
    ///
    /// # Panics
    ///
    /// Panics if the probabilities are outside `[0, 1]` or sum past 1, or
    /// if `move_radius` is not positive and finite.
    pub fn new(cfg: ChurnConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.p_join)
                && (0.0..=1.0).contains(&cfg.p_leave)
                && cfg.p_join + cfg.p_leave <= 1.0,
            "need p_join, p_leave ≥ 0 with p_join + p_leave ≤ 1, got {} + {}",
            cfg.p_join,
            cfg.p_leave
        );
        assert!(
            cfg.move_radius.is_finite() && cfg.move_radius > 0.0,
            "move_radius must be positive and finite, got {}",
            cfg.move_radius
        );
        ChurnGen { cfg }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &ChurnConfig {
        &self.cfg
    }

    /// Draws the next event against the current population `alive`
    /// (stable id, position) — typically
    /// [`Maintainer::alive`](crate::Maintainer::alive).
    ///
    /// An empty population always yields a join; leaves are converted to
    /// moves at the population floor.
    pub fn next_event<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        alive: &[(NodeId, Point)],
    ) -> TopologyEvent {
        let region = self.cfg.region;
        let sample_in_region = |rng: &mut R| {
            Point::new(
                rng.gen_range(region.min().x..=region.max().x),
                rng.gen_range(region.min().y..=region.max().y),
            )
        };
        if alive.is_empty() {
            return TopologyEvent::Join {
                pos: sample_in_region(rng),
            };
        }
        let u: f64 = rng.gen();
        if u < self.cfg.p_join {
            return TopologyEvent::Join {
                pos: sample_in_region(rng),
            };
        }
        let (node, pos) = alive[rng.gen_range(0..alive.len())];
        if u < self.cfg.p_join + self.cfg.p_leave && alive.len() > self.cfg.min_population {
            return TopologyEvent::Leave { node };
        }
        // Move: uniform jump within `move_radius`, clamped to the region.
        let r = self.cfg.move_radius;
        let dx = rng.gen_range(-r..=r);
        let dy = rng.gen_range(-r..=r);
        let to = Point::new(
            (pos.x + dx).clamp(region.min().x, region.max().x),
            (pos.y + dy).clamp(region.min().y, region.max().y),
        );
        TopologyEvent::Move { node, to }
    }
}

/// Shape of injected failures.
///
/// Unlike [`ChurnConfig`]'s one-event-at-a-time churn, a fault is a
/// *correlated burst*: several nodes die in the same instant, either
/// because they share a location (a jammed or powered-down region) or
/// because they share a fate chosen at random (a firmware batch).  Both
/// kinds honor the same population floor as churn so injection cannot
/// drain the network.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Radius of a regional kill: every node within this distance of the
    /// (randomly chosen) epicenter dies.
    pub radius: f64,
    /// Number of victims of a batch kill.
    pub batch: usize,
    /// Kills are truncated so the population never drops below this floor.
    pub min_population: usize,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            radius: 1.5,
            batch: 3,
            min_population: 4,
        }
    }
}

/// A seeded failure injector emitting correlated kill bursts.
///
/// Each call draws one burst against the caller's current population and
/// returns it as a batch of [`TopologyEvent::Leave`]s, to be applied
/// back-to-back — the engine sees the network *after* the whole burst
/// only once repairs start, which is exactly the regime `(k, m)`
/// backbones are built for.
///
/// ```
/// use mcds_maintain::{FaultConfig, FaultGen, TopologyEvent};
/// use mcds_rng::{rngs::StdRng, SeedableRng};
/// use mcds_geom::Point;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut faults = FaultGen::new(FaultConfig { min_population: 0, ..FaultConfig::default() });
/// let alive = vec![(0, Point::new(1.0, 1.0)), (1, Point::new(1.5, 1.0))];
/// let burst = faults.regional_kill(&mut rng, &alive);
/// assert!(burst.iter().all(|e| matches!(e, TopologyEvent::Leave { .. })));
/// ```
#[derive(Debug, Clone)]
pub struct FaultGen {
    cfg: FaultConfig,
}

impl FaultGen {
    /// Creates an injector with the given burst shape.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not positive and finite or `batch` is zero.
    pub fn new(cfg: FaultConfig) -> Self {
        assert!(
            cfg.radius.is_finite() && cfg.radius > 0.0,
            "fault radius must be positive and finite, got {}",
            cfg.radius
        );
        assert!(cfg.batch > 0, "batch kill size must be at least 1");
        FaultGen { cfg }
    }

    /// The injector's configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// How many victims a burst may claim before hitting the floor.
    fn kill_allowance(&self, alive: &[(NodeId, Point)]) -> usize {
        alive.len().saturating_sub(self.cfg.min_population)
    }

    /// Kills every node within [`FaultConfig::radius`] of a randomly
    /// chosen alive epicenter (the epicenter included).
    ///
    /// Victims are listed nearest-the-epicenter first, so when the
    /// population floor truncates the burst the surviving kills are still
    /// spatially correlated.  Returns an empty burst when the population
    /// is at or below the floor.
    pub fn regional_kill<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        alive: &[(NodeId, Point)],
    ) -> Vec<TopologyEvent> {
        let allowed = self.kill_allowance(alive);
        if allowed == 0 {
            return Vec::new();
        }
        let (_, center) = alive[rng.gen_range(0..alive.len())];
        let mut victims: Vec<(NodeId, f64)> = alive
            .iter()
            .filter(|(_, pos)| pos.dist(center) <= self.cfg.radius)
            .map(|&(id, pos)| (id, pos.dist(center)))
            .collect();
        victims.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        victims.truncate(allowed);
        victims
            .into_iter()
            .map(|(node, _)| TopologyEvent::Leave { node })
            .collect()
    }

    /// Kills [`FaultConfig::batch`] distinct nodes chosen uniformly at
    /// random (fewer near the population floor; none at or below it).
    pub fn batch_kill<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        alive: &[(NodeId, Point)],
    ) -> Vec<TopologyEvent> {
        let kills = self.cfg.batch.min(self.kill_allowance(alive));
        let mut pool: Vec<NodeId> = alive.iter().map(|&(id, _)| id).collect();
        // Partial Fisher–Yates: the first `kills` slots become the victims.
        for i in 0..kills {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
        }
        pool.truncate(kills);
        pool.into_iter()
            .map(|node| TopologyEvent::Leave { node })
            .collect()
    }
}

/// Advances a random-waypoint walk by `dt` and emits one
/// [`TopologyEvent::Move`] per node that changed position.
///
/// The walk's node `i` is reported as [`NodeId`] `ids[i]`; pass the ids
/// the engine assigned at seeding time (for a population created in one
/// batch these are simply `0..n`).
///
/// # Panics
///
/// Panics if `ids.len()` differs from the walk's population.
pub fn waypoint_epoch<R: Rng + ?Sized>(
    walk: &mut RandomWaypoint,
    rng: &mut R,
    dt: f64,
    ids: &[NodeId],
) -> Vec<TopologyEvent> {
    assert_eq!(
        ids.len(),
        walk.positions().len(),
        "ids must map every node of the walk"
    );
    let before = walk.positions().to_vec();
    walk.step(rng, dt);
    walk.positions()
        .iter()
        .zip(before.iter())
        .zip(ids.iter())
        .filter(|((now, was), _)| now != was)
        .map(|((now, _), &id)| TopologyEvent::Move { node: id, to: *now })
        .collect()
}

/// A seeded event stream for a [`Maintainer`]: the one loop that turns
/// the generators above into applied events ([`EventSource::drive`]).
#[derive(Debug, Clone)]
pub enum EventSource {
    /// Synthetic churn, one event per slot.  With `Some((injector, k))`,
    /// every `k`-th slot is a fault burst instead, regional and batch
    /// kills alternating (regional first); a burst the population floor
    /// leaves empty falls back to a churn event.
    Churn(ChurnGen, Option<(FaultGen, usize)>),
    /// A random-waypoint walk sampled every `dt` time units (the `f64`),
    /// its node `i` reported as engine node `i`: the ids
    /// [`Maintainer::with_population`] gives the walk's positions.
    Waypoint(RandomWaypoint, f64),
}

impl EventSource {
    /// Draws events from `rng` and applies `events` of them to `engine`,
    /// handing each [`RepairReport`] (whose `event` is the applied
    /// event) to `each`, with whether a fault burst produced it.  The
    /// limit can cut a burst or an epoch short.  A waypoint walk also
    /// stops after max(50 × `events`, 1 000) epochs, since a long pause
    /// can leave whole epochs without a move.
    pub fn drive<R: Rng + ?Sized>(
        mut self,
        engine: &mut Maintainer,
        rng: &mut R,
        events: usize,
        mut each: impl FnMut(&RepairReport, bool),
    ) {
        let (ids, slots): (Vec<NodeId>, _) = match &self {
            EventSource::Churn(..) => (Vec::new(), usize::MAX),
            EventSource::Waypoint(walk, _) => (
                (0..walk.positions().len()).collect(),
                events.saturating_mul(50).max(1000),
            ),
        };
        let (mut applied, mut regional) = (0, true);
        for slot in 1..=slots {
            if applied == events {
                break;
            }
            let (batch, burst) = match &mut self {
                EventSource::Churn(churn, faults) => {
                    let mut batch = Vec::new();
                    if let Some((kill, _)) = faults.as_mut().filter(|f| slot.is_multiple_of(f.1)) {
                        let alive = engine.alive();
                        batch = if regional {
                            kill.regional_kill(rng, &alive)
                        } else {
                            kill.batch_kill(rng, &alive)
                        };
                        regional = !regional;
                    }
                    let burst = !batch.is_empty();
                    if !burst {
                        batch.push(churn.next_event(rng, &engine.alive()));
                    }
                    (batch, burst)
                }
                EventSource::Waypoint(walk, dt) => (waypoint_epoch(walk, rng, *dt, &ids), false),
            };
            for event in batch.into_iter().take(events - applied) {
                each(&engine.apply(event), burst);
                applied += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_rng::{rngs::StdRng, SeedableRng};

    fn alive(n: usize) -> Vec<(NodeId, Point)> {
        (0..n)
            .map(|i| (i, Point::new(i as f64 * 0.5, 1.0)))
            .collect()
    }

    #[test]
    fn empty_population_always_joins() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut churn = ChurnGen::new(ChurnConfig::default());
        for _ in 0..20 {
            assert!(matches!(
                churn.next_event(&mut rng, &[]),
                TopologyEvent::Join { .. }
            ));
        }
    }

    #[test]
    fn events_respect_region_and_population() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = ChurnConfig {
            region: Aabb::square(4.0),
            p_join: 0.3,
            p_leave: 0.3,
            move_radius: 1.0,
            min_population: 2,
        };
        let mut churn = ChurnGen::new(cfg);
        let pop = alive(10);
        let (mut joins, mut leaves, mut moves) = (0, 0, 0);
        for _ in 0..500 {
            match churn.next_event(&mut rng, &pop) {
                TopologyEvent::Join { pos } => {
                    joins += 1;
                    assert!(cfg.region.contains(pos), "{pos}");
                }
                TopologyEvent::Leave { node } => {
                    leaves += 1;
                    assert!(node < 10);
                }
                TopologyEvent::Move { node, to } => {
                    moves += 1;
                    assert!(node < 10);
                    assert!(cfg.region.contains(to), "{to}");
                }
            }
        }
        assert!(
            joins > 0 && leaves > 0 && moves > 0,
            "{joins}/{leaves}/{moves}"
        );
    }

    #[test]
    fn population_floor_suppresses_leaves() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut churn = ChurnGen::new(ChurnConfig {
            p_join: 0.0,
            p_leave: 1.0,
            min_population: 5,
            ..ChurnConfig::default()
        });
        for _ in 0..50 {
            let e = churn.next_event(&mut rng, &alive(5));
            assert!(
                matches!(e, TopologyEvent::Move { .. }),
                "leave at the floor must degrade to a move, got {e:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "p_join")]
    fn bad_rates_panic() {
        let _ = ChurnGen::new(ChurnConfig {
            p_join: 0.8,
            p_leave: 0.5,
            ..ChurnConfig::default()
        });
    }

    #[test]
    fn regional_kill_is_spatially_correlated() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut faults = FaultGen::new(FaultConfig {
            radius: 1.2,
            batch: 3,
            min_population: 0,
        });
        // Two clusters 10 units apart: a burst must stay within one.
        let mut pop = alive(5);
        pop.extend((5..10).map(|i| (i, Point::new(10.0 + (i - 5) as f64 * 0.5, 1.0))));
        for _ in 0..20 {
            let burst = faults.regional_kill(&mut rng, &pop);
            assert!(!burst.is_empty());
            let ids: Vec<NodeId> = burst
                .iter()
                .map(|e| match e {
                    TopologyEvent::Leave { node } => *node,
                    other => panic!("faults only kill, got {other:?}"),
                })
                .collect();
            assert!(
                ids.iter().all(|&id| id < 5) || ids.iter().all(|&id| id >= 5),
                "burst crossed clusters: {ids:?}"
            );
        }
    }

    #[test]
    fn batch_kill_picks_distinct_victims() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut faults = FaultGen::new(FaultConfig {
            batch: 4,
            min_population: 0,
            ..FaultConfig::default()
        });
        for _ in 0..20 {
            let burst = faults.batch_kill(&mut rng, &alive(10));
            assert_eq!(burst.len(), 4);
            let mut ids: Vec<NodeId> = burst
                .iter()
                .map(|e| match e {
                    TopologyEvent::Leave { node } => *node,
                    other => panic!("faults only kill, got {other:?}"),
                })
                .collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 4, "victims must be distinct");
        }
    }

    #[test]
    fn fault_bursts_respect_the_population_floor() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut faults = FaultGen::new(FaultConfig {
            radius: 100.0,
            batch: 100,
            min_population: 6,
        });
        let pop = alive(10);
        for _ in 0..10 {
            assert!(faults.regional_kill(&mut rng, &pop).len() <= 4);
            assert_eq!(faults.batch_kill(&mut rng, &pop).len(), 4);
        }
        assert!(faults.regional_kill(&mut rng, &alive(6)).is_empty());
        assert!(faults.batch_kill(&mut rng, &alive(5)).is_empty());
    }

    #[test]
    #[should_panic(expected = "fault radius")]
    fn bad_fault_radius_panics() {
        let _ = FaultGen::new(FaultConfig {
            radius: 0.0,
            ..FaultConfig::default()
        });
    }

    #[test]
    fn waypoint_epoch_emits_moves_with_stable_ids() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut walk = RandomWaypoint::new(&mut rng, 12, Aabb::square(5.0), (0.5, 1.0), 0.0);
        let ids: Vec<NodeId> = (100..112).collect();
        let events = waypoint_epoch(&mut walk, &mut rng, 1.0, &ids);
        assert!(!events.is_empty());
        for e in &events {
            let TopologyEvent::Move { node, to } = e else {
                panic!("waypoint epochs only move nodes, got {e:?}");
            };
            assert!((100..112).contains(node));
            assert!(to.is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "ids must map")]
    fn waypoint_epoch_checks_id_arity() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut walk = RandomWaypoint::new(&mut rng, 3, Aabb::square(2.0), (1.0, 1.0), 0.0);
        let _ = waypoint_epoch(&mut walk, &mut rng, 1.0, &[0, 1]);
    }
}
