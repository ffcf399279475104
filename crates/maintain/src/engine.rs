//! The maintenance engine: incremental backbone repair under churn.
//!
//! [`Maintainer`] holds the live population as a resident
//! [`Topology`] (stable [`NodeId`]s with positions and sorted neighbour
//! rows) and the current backbone (dominators + connectors, the
//! two-phased structure of the paper).  Each [`Maintainer::apply`] call
//! patches the topology by one [`TopologyEvent`] in time proportional
//! to the local degree, takes the giant component by relabelling the
//! patched rows, and repairs the backbone:
//!
//! 1. **Local MIS re-election** — dominators are repaired first-fit
//!    inside the event's 2-hop damage region only: adjacent dominator
//!    pairs (created by motion/joins) are resolved toward the smaller id,
//!    then undominated nodes are promoted in id order.  Outside the
//!    region nothing changes, mirroring how a distributed protocol would
//!    localize the update.
//! 2. **Confined connector patch** — if `G[I ∪ C]` fell apart, the
//!    paper's Section-IV max-gain greedy runs with candidates confined to
//!    the damaged region (phase 2's own bucket-queue kernel,
//!    [`connect::max_gain_connectors_within`]), and connectors of the
//!    region that no longer hold `G[I ∪ C]` together are dropped, each
//!    drop decided by the exact local cut search ([`LocalSearch`])
//!    around the connector.
//! 3. **Fallback** — when the confined greedy stalls, the repaired set
//!    fails verification, or its size drifts past
//!    [`MaintainConfig::drift_threshold`] × the event's baseline, the
//!    engine adopts that baseline instead.  The baseline is
//!    `Solver::new(Algorithm::GreedyConnect).m(m)` on the snapshot, solved
//!    once per event.
//!
//! Every event yields a [`RepairReport`] (locality, role deltas,
//! decision, size vs. baseline, wall time).  Every maintained set is
//! checked once against
//! [`mcds_graph::properties::is_connected_dominating_set`] (the `(1, m)`
//! contract for `m ≥ 2`): a repaired set before it is committed, an
//! adopted baseline after adoption.
//!
//! # Fault tolerance
//!
//! With [`MaintainConfig::m`] above 1 the engine maintains a `(1, m)`
//! backbone instead (see [`mcds_cds::fault`]): every giant-component
//! node outside the backbone keeps at least `m` backbone neighbors, so
//! single dominator deaths — and the correlated bursts of
//! [`crate::FaultGen`] — tend to leave coverage intact.  Each report
//! counts the contract [`RepairReport::violations`] the event caused
//! *before* repair, which is the robustness metric experiment E22
//! compares across `m`.  Fallbacks to a full recompute are visible in
//! the reason-tagged `maintain.recompute.*` counters of [`mcds_obs`].

use std::time::{Duration, Instant};

use mcds_cds::{connect, Algorithm, Cds, Solver};
use mcds_geom::Point;
use mcds_graph::subsets::LocalSearch;
use mcds_graph::{properties, Graph};
use mcds_udg::mobility::survival_fraction;
use mcds_udg::Topology;

use crate::event::{NodeId, TopologyEvent};

/// Tunables of the maintenance engine.  Verification is not one of
/// them: every maintained set is checked once per event.
#[derive(Debug, Clone, Copy)]
pub struct MaintainConfig {
    /// Communication radius of the unit-disk model (the paper normalizes
    /// to 1.0).
    pub radius: f64,
    /// Recompute from scratch when `maintained size / baseline size`
    /// exceeds this factor.  Values `≥ 1`; the differential test suite
    /// relies on this staying `≤ 2`.
    pub drift_threshold: f64,
    /// Domination multiplicity of the maintained backbone: nodes outside
    /// it must keep at least `m` backbone neighbors (`1..=3`).  `1` is
    /// the paper's classic CDS; `2` and `3` are the fault-tolerant
    /// `(1, m)` contracts of [`mcds_cds::fault`].
    pub m: usize,
}

impl Default for MaintainConfig {
    fn default() -> Self {
        MaintainConfig {
            radius: 1.0,
            drift_threshold: 1.75,
            m: 1,
        }
    }
}

/// Why the engine abandoned local repair for a full recompute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecomputeReason {
    /// No previous backbone existed (first event, or the backbone's
    /// component vanished entirely).
    ColdStart,
    /// The confined max-gain greedy could not merge the remaining
    /// components (the damage exceeded the local candidate pool).
    Stalled,
    /// The locally repaired set failed CDS verification.
    Invalid,
    /// The repaired set was valid but drifted past
    /// [`MaintainConfig::drift_threshold`] × the fresh baseline.
    Drift,
}

impl RecomputeReason {
    /// Stable lowercase label — the suffix of the reason-tagged
    /// `maintain.recompute.*` counters and the CSV value experiments
    /// emit.
    pub fn name(self) -> &'static str {
        match self {
            RecomputeReason::ColdStart => "cold_start",
            RecomputeReason::Stalled => "stalled",
            RecomputeReason::Invalid => "invalid",
            RecomputeReason::Drift => "drift",
        }
    }
}

/// Bumps both the aggregate `maintain.recomputed` counter and the
/// reason-tagged `maintain.recompute.<reason>` counter, so traces show
/// *why* local repair degraded to a recompute.
fn count_recompute(reason: RecomputeReason) {
    mcds_obs::counter!("maintain.recomputed");
    match reason {
        RecomputeReason::ColdStart => mcds_obs::counter!("maintain.recompute.cold_start"),
        RecomputeReason::Stalled => mcds_obs::counter!("maintain.recompute.stalled"),
        RecomputeReason::Invalid => mcds_obs::counter!("maintain.recompute.invalid"),
        RecomputeReason::Drift => mcds_obs::counter!("maintain.recompute.drift"),
    }
}

/// The repair-vs-recompute outcome of one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairDecision {
    /// Local repair succeeded; the previous backbone was patched in
    /// place.
    Repaired,
    /// The engine adopted the event's baseline,
    /// `Solver::new(Algorithm::GreedyConnect).m(m)` on the snapshot, in
    /// place of the local repair.
    Recomputed(RecomputeReason),
}

/// Per-event accounting emitted by [`Maintainer::apply`].
#[derive(Debug, Clone)]
pub struct RepairReport {
    /// Event sequence number (0-based).
    pub seq: usize,
    /// The applied event (joins carry the id the engine assigned).
    pub event: TopologyEvent,
    /// The id assigned to a join, echoed for all event kinds.
    pub node: NodeId,
    /// Population size after the event.
    pub alive: usize,
    /// Size of the giant component the backbone serves.
    pub giant: usize,
    /// Nodes in the damage region the local repair inspected — the
    /// *repair locality* (0 for recomputes decided before repair).
    pub nodes_touched: usize,
    /// Giant-component nodes left undominated — outside the surviving
    /// backbone with no backbone neighbor — immediately after the event,
    /// *before* any repair ran.  Measured the same way for every
    /// [`MaintainConfig::m`] so traces are comparable across `m`: a
    /// valid `(1, m ≥ 2)` backbone keeps this at zero through any
    /// single failure.  The headline robustness metric of experiment
    /// E22.
    pub violations: usize,
    /// Dominators promoted by this event.
    pub dominators_added: usize,
    /// Dominators demoted or lost by this event.
    pub dominators_removed: usize,
    /// Connectors added by this event.
    pub connectors_added: usize,
    /// Connectors dropped by this event.
    pub connectors_removed: usize,
    /// Repair-vs-recompute decision.
    pub decision: RepairDecision,
    /// Maintained CDS size on the giant component after the event
    /// (backbone remnants preserved for minor components are excluded —
    /// the baseline serves the giant alone, so this is the comparable
    /// number).
    pub cds_size: usize,
    /// Size of the event's baseline,
    /// `Solver::new(Algorithm::GreedyConnect).m(m)` on the same snapshot
    /// (the backbone a recompute adopts).
    pub baseline_size: usize,
    /// Fraction of the previous backbone surviving into the new one
    /// (1.0 when there was no previous backbone).
    pub survival: f64,
    /// Wall-clock time of the event from its start through the
    /// verification of the maintained set: the topology patch, the
    /// giant-component snapshot, the fresh baseline solve, the local
    /// repair (or the recompute that replaced it) and the verification.
    /// Only the role and survival accounting of this report comes after.
    pub wall: Duration,
    /// Whether the maintained set passed verification on the new
    /// snapshot.  A repaired set is committed only once its check passes
    /// (a failure falls back to the baseline), so this is `false` only
    /// when the adopted baseline fails its check.
    pub valid: bool,
}

impl RepairReport {
    /// Maintained size over fresh-baseline size (1.0 when both are
    /// empty).
    pub fn size_ratio(&self) -> f64 {
        if self.baseline_size == 0 {
            1.0
        } else {
            self.cds_size as f64 / self.baseline_size as f64
        }
    }

    /// The degraded-mode reason when the engine fell back to a full
    /// recompute, `None` for local repairs.
    pub fn fallback(&self) -> Option<RecomputeReason> {
        match self.decision {
            RepairDecision::Recomputed(reason) => Some(reason),
            RepairDecision::Repaired => None,
        }
    }
}

/// The event-driven CDS maintenance engine.
///
/// ```
/// use mcds_geom::Point;
/// use mcds_maintain::{MaintainConfig, Maintainer, TopologyEvent};
///
/// // A 3-node chain: the first-fit MIS takes both endpoints and the
/// // middle node connects them, so every node has a backbone role.
/// let pts = vec![Point::new(0.0, 0.0), Point::new(0.8, 0.0), Point::new(1.6, 0.0)];
/// let mut engine = Maintainer::with_population(MaintainConfig::default(), pts);
/// assert_eq!(engine.backbone(), vec![0, 1, 2]);
///
/// // A fourth node joins at the far end; the maintained set stays a CDS.
/// let report = engine.apply(TopologyEvent::Join { pos: Point::new(2.4, 0.0) });
/// assert!(report.valid);
/// assert_eq!(report.alive, 4);
/// assert!(report.size_ratio() <= 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct Maintainer {
    cfg: MaintainConfig,
    next_id: NodeId,
    topology: Topology,
    /// Giant-component size of the last snapshot.
    giant: usize,
    /// Backbone roles as stable ids (sorted, disjoint).
    dominators: Vec<NodeId>,
    connectors: Vec<NodeId>,
    events_applied: usize,
}

/// One dense snapshot of the live topology restricted to its giant
/// component, with the id translation tables the repair needs.
struct Snapshot {
    /// `ids[local] = stable id` over the giant component, ascending.
    ids: Vec<NodeId>,
    /// The giant-component graph over `ids`.
    graph: Graph,
}

impl Snapshot {
    fn local(&self, id: NodeId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }
}

/// A node's backbone role on one snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Out,
    Dominator,
    Connector,
}

/// The backbone roles mapped into one snapshot: a role per local index,
/// and the role ids off its giant component.
struct LocalRoles {
    role: Vec<Role>,
    off_dom: Vec<NodeId>,
    off_con: Vec<NodeId>,
}

impl LocalRoles {
    fn map(snap: &Snapshot, dominators: &[NodeId], connectors: &[NodeId]) -> Self {
        let mut role = vec![Role::Out; snap.ids.len()];
        let mut split = |ids: &[NodeId], r: Role| {
            let mut off = Vec::new();
            for &id in ids {
                match snap.local(id) {
                    Some(v) => role[v] = r,
                    None => off.push(id),
                }
            }
            off
        };
        let off_dom = split(dominators, Role::Dominator);
        let off_con = split(connectors, Role::Connector);
        LocalRoles {
            role,
            off_dom,
            off_con,
        }
    }
}

impl Maintainer {
    /// Creates an engine with no nodes.
    ///
    /// # Panics
    ///
    /// Panics if the configured radius is not positive and finite, or the
    /// drift threshold is below 1.
    pub fn new(cfg: MaintainConfig) -> Self {
        assert!(
            cfg.radius.is_finite() && cfg.radius > 0.0,
            "radius must be positive and finite, got {}",
            cfg.radius
        );
        assert!(
            cfg.drift_threshold >= 1.0,
            "drift threshold below 1 would recompute every event, got {}",
            cfg.drift_threshold
        );
        assert!(
            (1..=3).contains(&cfg.m),
            "m must be in 1..=3, got {}",
            cfg.m
        );
        Maintainer {
            cfg,
            next_id: 0,
            topology: Topology::new(cfg.radius),
            giant: 0,
            dominators: Vec::new(),
            connectors: Vec::new(),
            events_applied: 0,
        }
    }

    /// Creates an engine seeded with a whole population at once (ids
    /// `0..points.len()`) and an initial backbone computed from scratch.
    pub fn with_population(cfg: MaintainConfig, points: Vec<Point>) -> Self {
        let mut engine = Maintainer::new(cfg);
        engine.next_id = points.len();
        engine.topology = Topology::with_points(points, cfg.radius);
        if let Some(snap) = engine.snapshot() {
            engine.giant = snap.ids.len();
            let cds = engine.baseline(&snap);
            engine.adopt(&snap, &cds);
        }
        engine
    }

    /// The engine configuration.
    pub fn config(&self) -> &MaintainConfig {
        &self.cfg
    }

    /// Live nodes as `(stable id, position)`, ascending by id — the shape
    /// [`crate::ChurnGen::next_event`] consumes.
    pub fn alive(&self) -> Vec<(NodeId, Point)> {
        self.topology.iter().collect()
    }

    /// Number of live nodes.
    pub fn population(&self) -> usize {
        self.topology.len()
    }

    /// The resident topology of the live population, patched by every
    /// event.  [`Topology::graph`] gives the unit-disk graph of all live
    /// nodes without rebuilding geometry.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Size of the giant component the backbone serves, as of the last
    /// event (or the seeding), 0 with no nodes alive.
    pub fn giant(&self) -> usize {
        self.giant
    }

    /// Whether `node` is currently alive.  [`Maintainer::apply`] panics
    /// on a `Leave`/`Move` of a dead node, so admission layers (the
    /// `mcds-serve` churn queue) check here first and reject instead.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.topology.contains(node)
    }

    /// The position of a live node, or `None` when it is dead.
    pub fn position(&self, node: NodeId) -> Option<Point> {
        self.topology.position(node)
    }

    /// The maintained backbone (dominators ∪ connectors) as sorted stable
    /// ids.
    pub fn backbone(&self) -> Vec<NodeId> {
        let mut all = self.dominators.clone();
        all.extend(self.connectors.iter().copied());
        all.sort_unstable();
        all
    }

    /// The phase-1 dominators (sorted stable ids).
    pub fn dominators(&self) -> &[NodeId] {
        &self.dominators
    }

    /// The phase-2 connectors (sorted stable ids, disjoint from the
    /// dominators).
    pub fn connectors(&self) -> &[NodeId] {
        &self.connectors
    }

    /// The dense giant-component snapshot, relabelled from the resident
    /// rows, or `None` when no nodes are alive.
    fn snapshot(&self) -> Option<Snapshot> {
        if self.topology.is_empty() {
            return None;
        }
        let (ids, graph) = self.topology.giant();
        Some(Snapshot { ids, graph })
    }

    /// A fresh greedy CDS of the snapshot (the `(1, m)` variant when
    /// [`MaintainConfig::m`] is above 1), over its local indices.
    fn baseline(&self, snap: &Snapshot) -> Cds {
        Solver::new(Algorithm::GreedyConnect)
            .m(self.cfg.m)
            .solve(&snap.graph)
            .expect("giant component is connected and non-empty")
            .into_cds()
    }

    /// Replaces the backbone with `cds`, a backbone of the snapshot.
    fn adopt(&mut self, snap: &Snapshot, cds: &Cds) {
        self.dominators = cds.dominators().iter().map(|&v| snap.ids[v]).collect();
        self.connectors = cds.connectors().iter().map(|&v| snap.ids[v]).collect();
    }

    /// Applies one topology event, repairs the backbone, and reports.
    ///
    /// # Panics
    ///
    /// Panics if a `Leave`/`Move` references a dead node, or a position is
    /// non-finite.
    pub fn apply(&mut self, event: TopologyEvent) -> RepairReport {
        // Each step below is a direct child span of `maintain.apply`.
        // The baseline `solve` must stay a direct child: the benchmark
        // folds `maintain.apply/solve` into the per-event baseline time.
        let _apply_span = mcds_obs::span("maintain.apply");
        mcds_obs::counter!("maintain.events");
        let started = Instant::now();
        let seq = self.events_applied;
        self.events_applied += 1;

        // 1. Patch the topology, collecting the stable ids whose
        //    neighborhoods changed (the damage seeds).
        let patch_span = mcds_obs::span("maintain.patch");
        let prev_backbone = self.backbone();
        let (node, seeds) = self.mutate(&event);
        drop(patch_span);

        // 2. Dense giant-component snapshot + fresh baseline.
        let snapshot_span = mcds_obs::span("maintain.snapshot");
        let snap = self.snapshot();
        self.giant = snap.as_ref().map_or(0, |s| s.ids.len());
        drop(snapshot_span);
        let Some(snap) = snap else {
            // Population emptied out: the empty backbone is trivially
            // valid for the empty graph.
            self.dominators.clear();
            self.connectors.clear();
            count_recompute(RecomputeReason::ColdStart);
            return RepairReport {
                seq,
                event,
                node,
                alive: 0,
                giant: 0,
                nodes_touched: 0,
                violations: 0,
                dominators_added: 0,
                dominators_removed: prev_backbone.len(),
                connectors_added: 0,
                connectors_removed: 0,
                decision: RepairDecision::Recomputed(RecomputeReason::ColdStart),
                cds_size: 0,
                baseline_size: 0,
                survival: if prev_backbone.is_empty() { 1.0 } else { 0.0 },
                wall: started.elapsed(),
                valid: true,
            };
        };
        let baseline = self.baseline(&snap);

        // 3. Map the surviving backbone into the snapshot once, then
        //    count the damage and repair.
        let repair_span = mcds_obs::span("maintain.repair");
        let roles = LocalRoles::map(&snap, &self.dominators, &self.connectors);
        // Coverage damage before repair: how many giant nodes the
        // surviving backbone leaves undominated.  Measured against plain
        // domination (m = 1) for every engine so E22 can compare the
        // same failure trace across m; a valid (1, m ≥ 2) backbone
        // absorbs any single death with zero violations.
        let violations = {
            let _span = mcds_obs::span("maintain.violations");
            coverage_violations(&snap.graph, |v| roles.role[v] != Role::Out, 1)
        };
        let prev_dom: Vec<NodeId> = self.dominators.clone();
        let prev_con: Vec<NodeId> = self.connectors.clone();
        let had_backbone = !prev_backbone.is_empty();
        let repaired = if had_backbone {
            let _span = mcds_obs::span("maintain.local_repair");
            self.repair_local(&snap, &seeds, roles)
        } else {
            Err(RecomputeReason::ColdStart)
        };
        // Drift is judged on the giant component only — the baseline
        // serves it alone, and backbone remnants preserved for minor
        // components must not count against the repair.
        let drifted = |size: usize| {
            !baseline.is_empty() && size as f64 / baseline.len() as f64 > self.cfg.drift_threshold
        };
        let (decision, nodes_touched, repaired_size) = match repaired {
            Ok((touched, size)) if drifted(size) => (
                RepairDecision::Recomputed(RecomputeReason::Drift),
                touched,
                size,
            ),
            Ok((touched, size)) => (RepairDecision::Repaired, touched, size),
            Err(reason) => (RepairDecision::Recomputed(reason), 0, 0),
        };
        drop(repair_span);

        // 4. A repaired set was checked before it was committed; a
        //    recompute adopts the baseline and checks it once.
        let _verify_span = mcds_obs::span("maintain.verify");
        let (cds_size, valid) = match decision {
            RepairDecision::Repaired => {
                mcds_obs::counter!("maintain.repaired");
                mcds_obs::observe("maintain.damage_region", nodes_touched as u64);
                (repaired_size, true)
            }
            RepairDecision::Recomputed(reason) => {
                count_recompute(reason);
                self.adopt(&snap, &baseline);
                let valid = backbone_valid(&snap.graph, baseline.nodes(), self.cfg.m);
                (baseline.len(), valid)
            }
        };
        let wall = started.elapsed();

        let new_backbone = self.backbone();
        let dominators_added = diff_count(&self.dominators, &prev_dom);
        let dominators_removed = diff_count(&prev_dom, &self.dominators);
        let connectors_added = diff_count(&self.connectors, &prev_con);
        let connectors_removed = diff_count(&prev_con, &self.connectors);
        RepairReport {
            seq,
            event,
            node,
            alive: self.topology.len(),
            giant: snap.ids.len(),
            nodes_touched,
            violations,
            dominators_added,
            dominators_removed,
            connectors_added,
            connectors_removed,
            decision,
            cds_size,
            baseline_size: baseline.len(),
            survival: if had_backbone {
                survival_fraction(&prev_backbone, &new_backbone)
            } else {
                1.0
            },
            wall,
            valid,
        }
    }

    /// Patches the topology and returns `(event node id, seed ids whose
    /// neighborhoods changed)`.
    fn mutate(&mut self, event: &TopologyEvent) -> (NodeId, Vec<NodeId>) {
        match *event {
            TopologyEvent::Join { pos } => {
                assert!(pos.is_finite(), "join position must be finite");
                let id = self.next_id;
                self.next_id += 1;
                self.topology.insert(id, pos);
                (id, vec![id])
            }
            TopologyEvent::Leave { node } => {
                assert!(self.is_alive(node), "leave of dead node {node}");
                // The departed node's old neighbors lost an edge each.
                let seeds = self.topology.remove(node);
                self.dominators.retain(|&v| v != node);
                self.connectors.retain(|&v| v != node);
                (node, seeds)
            }
            TopologyEvent::Move { node, to } => {
                assert!(to.is_finite(), "move target must be finite");
                assert!(self.is_alive(node), "move of dead node {node}");
                // Damage spans both the detach site (old neighbors) and
                // the attach site (new neighbors).
                (node, self.topology.relocate(node, to))
            }
        }
    }

    /// Attempts the local repair of `roles` on the snapshot.  On success
    /// stores the repaired roles (stable ids) and returns the
    /// damage-region size and the repaired backbone's size on the giant;
    /// on failure returns the reason and leaves roles untouched (the
    /// caller adopts the baseline).
    fn repair_local(
        &mut self,
        snap: &Snapshot,
        seeds: &[NodeId],
        roles: LocalRoles,
    ) -> Result<(usize, usize), RecomputeReason> {
        let g = &snap.graph;
        let n = g.num_nodes();
        let m = self.cfg.m;
        let LocalRoles {
            mut role,
            off_dom,
            off_con,
        } = roles;
        if !role.contains(&Role::Dominator) {
            // The entire dominator set fell off this component; nothing
            // to repair locally.
            return Err(RecomputeReason::ColdStart);
        }

        // Damage zones, nested by hop distance from the seeds: the
        // 2-hop closed neighborhood is the re-election region; one more
        // ring is the check zone (a demoted dominator undominates only
        // its direct neighbors, which sit within one hop of the region);
        // one more again holds the connector candidates (so a bridge
        // just outside the check zone is still reachable).
        let seed_local: Vec<usize> = seeds.iter().filter_map(|&id| snap.local(id)).collect();
        let (ball, hop) = hop_ball(g, &seed_local, 4);
        let check_zone: Vec<usize> = ball.iter().copied().filter(|&v| hop[v] <= 3).collect();

        // Phase 1a: resolve independence violations inside the region
        // toward the smaller id (new dominator adjacencies can only
        // involve region nodes — edges change only at the event site).
        // Dominators outside the region are immutable, so a region
        // dominator adjacent to one must always yield.  Skipped for
        // m ≥ 2: m-fold dominator sets are deliberately non-independent,
        // so there is no independence invariant to restore.
        if m == 1 {
            for &v in check_zone.iter().filter(|&&v| hop[v] <= 2) {
                if role[v] != Role::Dominator {
                    continue;
                }
                let demote = g
                    .neighbors_iter(v)
                    .any(|u| role[u] == Role::Dominator && (u < v || hop[u] > 2));
                if demote {
                    role[v] = Role::Out;
                }
            }
        }

        // Phase 1b: first-fit re-election — promote under-covered nodes
        // of the check zone in ascending id order (the first-fit
        // tie-break of the paper's phase 1).  For m ≥ 2 a node is covered
        // when it sits in the backbone or sees ≥ m backbone neighbors;
        // promotion to dominator self-satisfies it and feeds coverage to
        // later nodes of the pass.
        for &v in &check_zone {
            let covered = if m == 1 {
                role[v] == Role::Dominator
                    || g.neighbors_iter(v).any(|u| role[u] == Role::Dominator)
            } else {
                role[v] != Role::Out
                    || g.neighbors_iter(v)
                        .filter(|&u| role[u] != Role::Out)
                        .count()
                        >= m
            };
            if !covered {
                role[v] = Role::Dominator;
            }
        }

        // Coverage must hold on the whole component; a miss here means
        // the damage model was too small for this event — recompute.
        let coverage_ok = if m == 1 {
            let dom_list: Vec<usize> = (0..n).filter(|&v| role[v] == Role::Dominator).collect();
            properties::is_dominating_set(g, &dom_list)
        } else {
            coverage_violations(g, |v| role[v] != Role::Out, m) == 0
        };
        if !coverage_ok {
            return Err(RecomputeReason::Invalid);
        }

        // Phase 2: patch connectivity of G[I ∪ C] with phase 2's max-gain
        // kernel, its candidates confined to the connector zone.
        let backbone: Vec<usize> = (0..n).filter(|&v| role[v] != Role::Out).collect();
        let patch = connect::max_gain_connectors_within(g, &backbone, |w| hop[w] <= 4)
            .map_err(|_| RecomputeReason::Stalled)?;
        for w in patch {
            role[w] = Role::Connector;
        }

        // Phase 3: drop connectors in the check zone that the repair
        // made redundant (highest id first), so local churn cannot
        // ratchet the backbone size upward.  Phase 2 left `G[I ∪ C]`
        // connected and every accepted drop keeps it so, hence dropping
        // `c` keeps it connected iff `c` is not a cut vertex of
        // `G[I ∪ C]`, which the exact local search decides near `c`.
        let mut search = LocalSearch::new(n);
        for &c in check_zone.iter().rev() {
            if role[c] != Role::Connector {
                continue;
            }
            role[c] = Role::Out;
            let in_backbone = |u: usize| role[u] != Role::Out;
            // For m ≥ 2 a connector also carries coverage: it may only
            // be dropped if it and its now-outside neighbors all keep
            // ≥ m backbone neighbors.
            let droppable = (m == 1 || drop_keeps_coverage(g, in_backbone, c, m))
                && search.run(g, in_backbone, c, u64::MAX, &mut 0) == Some(false);
            if !droppable {
                role[c] = Role::Connector;
            }
        }

        // The one check of the repaired set, before it is committed:
        // it guards the gaps of the damage model.
        let all_local: Vec<usize> = (0..n).filter(|&v| role[v] != Role::Out).collect();
        if !backbone_valid(g, &all_local, m) {
            return Err(RecomputeReason::Invalid);
        }

        // Commit: translate local roles back to stable ids, preserving
        // backbone nodes that live outside this giant component (they
        // keep serving their own components and matter for survival
        // accounting if the components remerge).
        let commit = |mut off: Vec<NodeId>, r: Role| {
            off.extend((0..n).filter(|&v| role[v] == r).map(|v| snap.ids[v]));
            off.sort_unstable();
            off
        };
        self.dominators = commit(off_dom, Role::Dominator);
        self.connectors = commit(off_con, Role::Connector);
        Ok((check_zone.len(), all_local.len()))
    }
}

/// The closed `hops`-hop neighborhood of `seeds` in `g`, ascending, and
/// every node's hop distance from the nearest seed (`u8::MAX` beyond
/// `hops`): one breadth-first search yields all the nested zones.
fn hop_ball(g: &Graph, seeds: &[usize], hops: u8) -> (Vec<usize>, Vec<u8>) {
    let mut hop = vec![u8::MAX; g.num_nodes()];
    let mut ball = Vec::new();
    for &s in seeds {
        if hop[s] == u8::MAX {
            hop[s] = 0;
            ball.push(s);
        }
    }
    let mut head = 0;
    while let Some(&v) = ball.get(head) {
        head += 1;
        if hop[v] == hops {
            continue;
        }
        for u in g.neighbors_iter(v) {
            if hop[u] == u8::MAX {
                hop[u] = hop[v] + 1;
                ball.push(u);
            }
        }
    }
    ball.sort_unstable();
    (ball, hop)
}

/// How many elements of sorted `a` are missing from sorted `b`.
fn diff_count(a: &[NodeId], b: &[NodeId]) -> usize {
    a.iter().filter(|v| b.binary_search(v).is_err()).count()
}

/// Nodes of `g` outside the backbone with fewer than `m` backbone
/// neighbors — the under-covered nodes of the `(1, m)` contract (`m = 1`
/// recovers plain domination by the backbone).
fn coverage_violations(g: &Graph, in_backbone: impl Fn(usize) -> bool, m: usize) -> usize {
    (0..g.num_nodes())
        .filter(|&v| !in_backbone(v))
        .filter(|&v| g.neighbors_iter(v).filter(|&u| in_backbone(u)).count() < m)
        .count()
}

/// Whether the coverage contract survives dropping `c` (already out of
/// the backbone): `c` itself and its now-outside neighbors must all
/// retain ≥ `m` backbone neighbors.
fn drop_keeps_coverage(g: &Graph, in_backbone: impl Fn(usize) -> bool, c: usize, m: usize) -> bool {
    let covered = |v: usize| g.neighbors_iter(v).filter(|&u| in_backbone(u)).count() >= m;
    covered(c)
        && g.neighbors_iter(c)
            .filter(|&u| !in_backbone(u))
            .all(covered)
}

/// m-aware validity: the classic CDS check for `m == 1`, the `(1, m)`
/// backbone contract of [`mcds_cds::fault::check_m_cds`] otherwise.
fn backbone_valid(g: &Graph, set: &[usize], m: usize) -> bool {
    if m == 1 {
        properties::is_connected_dominating_set(g, set)
    } else {
        mcds_cds::fault::check_m_cds(g, set, m).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ChurnConfig, ChurnGen};
    use mcds_graph::traversal;
    use mcds_rng::{rngs::StdRng, Rng, SeedableRng};
    use mcds_udg::Udg;

    fn chain(n: usize, spacing: f64) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new(i as f64 * spacing, 0.0))
            .collect()
    }

    /// The snapshot as the engine took it before the resident topology:
    /// a fresh unit-disk build of `alive()`, its largest component, and
    /// the restriction to it.  Kept only as the oracle of `snapshot()`.
    fn rebuilt_snapshot(engine: &Maintainer) -> Option<Snapshot> {
        let alive = engine.alive();
        if alive.is_empty() {
            return None;
        }
        let pts: Vec<Point> = alive.iter().map(|&(_, p)| p).collect();
        let udg = Udg::with_radius(pts, engine.cfg.radius);
        let giant = traversal::largest_component(udg.graph());
        Some(Snapshot {
            ids: giant.iter().map(|&i| alive[i].0).collect(),
            graph: udg.restricted_to(&giant).graph().clone(),
        })
    }

    fn assert_snapshot_matches_rebuild(engine: &Maintainer, context: &str) {
        let got = engine.snapshot();
        let want = rebuilt_snapshot(engine);
        assert_eq!(got.is_some(), want.is_some(), "{context}");
        if let (Some(got), Some(want)) = (got, want) {
            assert_eq!(got.ids, want.ids, "{context}: giant ids");
            assert_eq!(got.graph, want.graph, "{context}: giant CSR");
            assert_eq!(engine.giant(), want.ids.len(), "{context}: giant size");
        } else {
            assert_eq!(engine.giant(), 0, "{context}");
        }
    }

    #[test]
    fn snapshots_equal_the_rebuilt_giant_after_every_event() {
        // Obs stays off and serialized, so the recomputes here cannot
        // leak into `fallback_reasons_reach_the_counters`.
        mcds_obs::test_support::with_enabled(false, snapshot_streams);
    }

    fn snapshot_streams() {
        for (seed, m) in [(3u64, 1), (8, 1), (13, 2), (21, 2)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let side = 5.0;
            let pts: Vec<Point> = (0..50)
                .map(|_| Point::new(rng.gen_range(0.0..=side), rng.gen_range(0.0..=side)))
                .collect();
            let cfg = MaintainConfig {
                m,
                ..MaintainConfig::default()
            };
            let mut engine = Maintainer::with_population(cfg, pts);
            assert_snapshot_matches_rebuild(&engine, &format!("seed {seed}, seeding"));
            let mut churn = ChurnGen::new(ChurnConfig {
                region: mcds_geom::Aabb::square(side),
                p_join: 0.25,
                p_leave: 0.25,
                move_radius: 1.5,
                min_population: 4,
            });
            for step in 0..120 {
                let event = churn.next_event(&mut rng, &engine.alive());
                engine.apply(event);
                assert_snapshot_matches_rebuild(&engine, &format!("seed {seed}, event {step}"));
            }
        }
    }

    #[test]
    fn equal_components_resolve_to_the_smallest_member_id() {
        // The giant flips cold-start the backbone; keep obs off and
        // serialized as above.
        mcds_obs::test_support::with_enabled(false, tied_components);
    }

    fn tied_components() {
        // Two 3-node clusters far apart, ids interleaved: {0, 2, 4} on
        // the left, {1, 3, 5} on the right.  Equal sizes go to the
        // cluster holding the smallest id, exactly as the rebuild's
        // `largest_component` breaks the tie.
        let left = |k: f64| Point::new(k * 0.5, 0.0);
        let right = |k: f64| Point::new(20.0 + k * 0.5, 0.0);
        let pts = vec![
            left(0.0),
            right(0.0),
            left(1.0),
            right(1.0),
            left(2.0),
            right(2.0),
        ];
        let mut engine = Maintainer::with_population(MaintainConfig::default(), pts);
        assert_snapshot_matches_rebuild(&engine, "seeding");
        assert_eq!(engine.snapshot().unwrap().ids, vec![0, 2, 4]);
        let events = [
            // 2 v 3: the right cluster takes over.
            TopologyEvent::Leave { node: 0 },
            // 3 v 3 again; the right cluster holds the smaller id 1.
            TopologyEvent::Join { pos: left(3.0) },
            // Node 1 crosses over: 4 v 2.
            TopologyEvent::Move {
                node: 1,
                to: left(1.5),
            },
            // 3 v 3, left {1, 4, 6} against right {3, 5, 7}.
            TopologyEvent::Leave { node: 2 },
            TopologyEvent::Join { pos: right(1.5) },
        ];
        let giants = [
            vec![1, 3, 5],
            vec![1, 3, 5],
            vec![1, 2, 4, 6],
            vec![1, 4, 6],
            vec![1, 4, 6],
        ];
        for (step, (event, giant)) in events.into_iter().zip(giants).enumerate() {
            let report = engine.apply(event);
            assert!(report.valid, "step {step}");
            assert_snapshot_matches_rebuild(&engine, &format!("step {step}"));
            assert_eq!(engine.snapshot().unwrap().ids, giant, "step {step}");
        }
    }

    fn assert_valid(engine: &Maintainer) {
        let snap = engine.snapshot().expect("population non-empty");
        let local: Vec<usize> = engine
            .backbone()
            .iter()
            .filter_map(|&id| snap.local(id))
            .collect();
        assert!(
            backbone_valid(&snap.graph, &local, engine.cfg.m),
            "maintained set {:?} is not a valid (1, {}) backbone",
            engine.backbone(),
            engine.cfg.m
        );
    }

    #[test]
    fn seeding_builds_a_valid_backbone() {
        let engine = Maintainer::with_population(MaintainConfig::default(), chain(9, 0.9));
        assert_eq!(engine.population(), 9);
        assert!(!engine.backbone().is_empty());
        assert_valid(&engine);
    }

    #[test]
    fn join_extends_the_chain() {
        let mut engine = Maintainer::with_population(MaintainConfig::default(), chain(3, 0.8));
        let report = engine.apply(TopologyEvent::Join {
            pos: Point::new(2.4, 0.0),
        });
        assert!(report.valid);
        assert_eq!(report.alive, 4);
        assert_eq!(report.node, 3);
        assert_valid(&engine);
    }

    #[test]
    fn leave_of_backbone_node_is_repaired() {
        let mut engine = Maintainer::with_population(MaintainConfig::default(), chain(7, 0.9));
        let backbone = engine.backbone();
        // Kill an interior backbone node.
        let victim = *backbone
            .iter()
            .find(|&&v| v != 0 && v != 6)
            .expect("a 7-chain backbone has interior nodes");
        let report = engine.apply(TopologyEvent::Leave { node: victim });
        assert!(report.valid);
        assert!(!engine.backbone().contains(&victim));
        assert_valid(&engine);
    }

    #[test]
    fn leave_of_non_backbone_node_is_cheap() {
        // A 5-chain backbone uses every chain node, so hang an extra leaf
        // off node 0 that no role needs.
        let mut pts = chain(5, 0.9);
        pts.push(Point::new(0.0, 0.5));
        let mut engine = Maintainer::with_population(MaintainConfig::default(), pts);
        let bystander = 5;
        assert!(!engine.backbone().contains(&bystander));
        let report = engine.apply(TopologyEvent::Leave { node: bystander });
        assert!(report.valid);
        assert_eq!(report.decision, RepairDecision::Repaired);
        assert_valid(&engine);
    }

    #[test]
    fn move_within_range_keeps_validity() {
        let mut engine = Maintainer::with_population(MaintainConfig::default(), chain(6, 0.9));
        let report = engine.apply(TopologyEvent::Move {
            node: 2,
            to: Point::new(1.7, 0.3),
        });
        assert!(report.valid);
        assert_valid(&engine);
    }

    #[test]
    fn population_can_empty_out() {
        let mut engine = Maintainer::with_population(MaintainConfig::default(), chain(2, 0.5));
        let r1 = engine.apply(TopologyEvent::Leave { node: 0 });
        assert!(r1.valid);
        let r2 = engine.apply(TopologyEvent::Leave { node: 1 });
        assert!(r2.valid);
        assert_eq!(engine.population(), 0);
        assert!(engine.backbone().is_empty());
        // And it can repopulate.
        let r3 = engine.apply(TopologyEvent::Join {
            pos: Point::new(0.0, 0.0),
        });
        assert!(r3.valid);
        assert_eq!(engine.backbone().len(), 1);
    }

    #[test]
    fn report_accounts_roles_and_ratio() {
        let mut engine = Maintainer::with_population(MaintainConfig::default(), chain(9, 0.9));
        let report = engine.apply(TopologyEvent::Join {
            pos: Point::new(7.2 + 0.9, 0.0),
        });
        assert!(report.size_ratio() >= 1.0 - 1e-9);
        assert!(report.size_ratio() <= engine.config().drift_threshold + 1e-9);
        assert!(report.baseline_size > 0);
        assert_eq!(report.cds_size, engine.backbone().len());
    }

    #[test]
    #[should_panic(expected = "dead node")]
    fn leave_of_unknown_node_panics() {
        let mut engine = Maintainer::with_population(MaintainConfig::default(), chain(3, 0.8));
        let _ = engine.apply(TopologyEvent::Leave { node: 99 });
    }

    #[test]
    #[should_panic(expected = "drift threshold")]
    fn bad_drift_threshold_panics() {
        let _ = Maintainer::new(MaintainConfig {
            drift_threshold: 0.5,
            ..MaintainConfig::default()
        });
    }

    /// A 3×3 unit-disk grid, dense enough that (1, 2) backbones leave
    /// genuine non-backbone nodes.
    fn grid9() -> Vec<Point> {
        (0..9)
            .map(|i| Point::new((i % 3) as f64 * 0.6, (i / 3) as f64 * 0.6))
            .collect()
    }

    #[test]
    fn coverage_violations_counts_under_covered_nodes() {
        let g = Graph::path(4);
        let mask = [true, false, false, true];
        assert_eq!(coverage_violations(&g, |v| mask[v], 1), 0);
        assert_eq!(coverage_violations(&g, |v| mask[v], 2), 2);
    }

    #[test]
    fn violations_count_nodes_that_lost_domination() {
        let mut engine = Maintainer::with_population(MaintainConfig::default(), chain(3, 0.8));
        // Pin a minimal valid backbone so the damage is deterministic:
        // the center alone dominates and connects the chain.
        engine.dominators = vec![1];
        engine.connectors = vec![];
        let report = engine.apply(TopologyEvent::Leave { node: 1 });
        // The whole backbone died: the surviving giant node is uncovered.
        assert_eq!(report.violations, 1);
        assert_eq!(report.fallback(), Some(RecomputeReason::ColdStart));
        assert!(report.valid);
        assert_valid(&engine);
    }

    #[test]
    fn m2_backbone_absorbs_any_single_failure() {
        let cfg = MaintainConfig {
            m: 2,
            ..MaintainConfig::default()
        };
        for victim in 0..9 {
            let mut engine = Maintainer::with_population(cfg, grid9());
            assert_valid(&engine);
            let report = engine.apply(TopologyEvent::Leave { node: victim });
            // Every non-backbone node had ≥ 2 backbone neighbors, so one
            // death cannot undominate anyone.
            assert_eq!(report.violations, 0, "victim {victim}");
            assert!(report.valid, "victim {victim}");
            assert_valid(&engine);
        }
    }

    #[test]
    fn m2_engine_survives_a_burst_and_a_join() {
        let cfg = MaintainConfig {
            m: 2,
            ..MaintainConfig::default()
        };
        let mut engine = Maintainer::with_population(cfg, grid9());
        for victim in [4, 1] {
            let report = engine.apply(TopologyEvent::Leave { node: victim });
            assert!(report.valid, "victim {victim}");
            assert_valid(&engine);
        }
        let report = engine.apply(TopologyEvent::Join {
            pos: Point::new(0.3, 0.3),
        });
        assert!(report.valid);
        assert_valid(&engine);
    }

    #[test]
    fn fallback_reasons_reach_the_counters() {
        assert_eq!(RecomputeReason::Drift.name(), "drift");
        mcds_obs::test_support::with_enabled(true, || {
            let recomputed = mcds_obs::counter_value("maintain.recomputed");
            let cold = mcds_obs::counter_value("maintain.recompute.cold_start");
            let mut engine = Maintainer::with_population(MaintainConfig::default(), chain(3, 0.8));
            engine.dominators = vec![1];
            engine.connectors = vec![];
            let report = engine.apply(TopologyEvent::Leave { node: 1 });
            assert_eq!(report.fallback(), Some(RecomputeReason::ColdStart));
            assert_eq!(
                mcds_obs::counter_value("maintain.recompute.cold_start"),
                cold + 1,
                "the reason-tagged counter must fire with the fallback"
            );
            assert_eq!(
                mcds_obs::counter_value("maintain.recomputed"),
                recomputed + 1
            );
        });
    }

    #[test]
    #[should_panic(expected = "m must be in 1..=3")]
    fn bad_m_panics() {
        let _ = Maintainer::new(MaintainConfig {
            m: 0,
            ..MaintainConfig::default()
        });
    }

    #[test]
    fn split_and_remerge_is_survived() {
        // Two clusters joined by a mobile bridge node; moving the bridge
        // away splits the topology, moving it back remerges.
        let mut pts = chain(3, 0.8); // left cluster at x = 0.0, 0.8, 1.6
        pts.extend(
            chain(3, 0.8)
                .into_iter()
                .map(|p| Point::new(p.x + 4.0, 0.0)),
        );
        pts.push(Point::new(2.8, 0.0)); // bridge node, id 6 (reaches x=1.6 at dist 1.2? no)
        let mut engine = Maintainer::with_population(MaintainConfig::default(), pts);
        // Bridge at 2.4 connects 1.6 and 3.2? 2.8 -> dist to 1.6 is 1.2 > 1:
        // the seed topology is split; the engine serves the giant.
        let r = engine.apply(TopologyEvent::Move {
            node: 6,
            to: Point::new(2.4, 0.0),
        });
        assert!(r.valid);
        // 2.4 reaches 1.6 (dist 0.8) but not 4.0 (dist 1.6): still split.
        let r2 = engine.apply(TopologyEvent::Join {
            pos: Point::new(3.3, 0.0),
        });
        // Now 2.4 - 3.3 - 4.0 chains the clusters: one component of 8.
        assert!(r2.valid);
        assert_eq!(r2.giant, 8);
        assert_valid(&engine);
    }
}
