//! Differential tests: the maintenance engine versus from-scratch
//! construction.
//!
//! For every seeded churn stream, after *every* event the maintained set
//! must (a) be a connected dominating set of the live giant component —
//! checked here independently of the engine's own verification — and
//! (b) stay within 2× of a fresh [`Algorithm::GreedyConnect`] solve on
//! the same snapshot (the engine's drift threshold of 1.75 makes the 2×
//! bound hold by construction; the test pins it against regressions in
//! the drift accounting).

use mcds_cds::{Algorithm, Solver};
use mcds_geom::{Aabb, Point};
use mcds_graph::{properties, traversal};
use mcds_maintain::{
    waypoint_epoch, ChurnConfig, ChurnGen, MaintainConfig, Maintainer, NodeId, StabilityMetrics,
    TopologyEvent,
};
use mcds_rng::rngs::StdRng;
use mcds_rng::{Rng, SeedableRng};
use mcds_udg::mobility::RandomWaypoint;
use mcds_udg::Udg;

/// Independently rebuilds the topology from the engine's live population
/// and checks the maintained backbone against the giant component,
/// returning `(giant size, maintained size on giant, fresh greedy size)`.
fn audit(engine: &Maintainer, context: &str) -> (usize, usize, usize) {
    let alive = engine.alive();
    if alive.is_empty() {
        assert!(
            engine.backbone().is_empty(),
            "{context}: backbone nonempty with no nodes alive"
        );
        return (0, 0, 0);
    }
    let ids: Vec<NodeId> = alive.iter().map(|&(id, _)| id).collect();
    let pts: Vec<Point> = alive.iter().map(|&(_, p)| p).collect();
    let udg = Udg::with_radius(pts, engine.config().radius);
    let giant = traversal::largest_component(udg.graph());
    let sub = udg.restricted_to(&giant);
    let giant_ids: Vec<NodeId> = giant.iter().map(|&i| ids[i]).collect();

    let backbone_local: Vec<usize> = engine
        .backbone()
        .iter()
        .filter_map(|id| giant_ids.binary_search(id).ok())
        .collect();
    assert!(
        properties::is_connected_dominating_set(sub.graph(), &backbone_local),
        "{context}: maintained set is not a CDS of the giant component \
         (giant {} nodes, backbone-on-giant {:?})",
        giant.len(),
        backbone_local
    );

    let fresh = Solver::new(Algorithm::GreedyConnect)
        .solve(sub.graph())
        .expect("giant component is connected and non-empty")
        .len();
    assert!(
        backbone_local.len() <= 2 * fresh,
        "{context}: maintained size {} exceeds 2x the fresh greedy size {}",
        backbone_local.len(),
        fresh
    );
    (giant.len(), backbone_local.len(), fresh)
}

fn uniform_points<R: Rng + ?Sized>(rng: &mut R, n: usize, side: f64) -> Vec<Point> {
    (0..n)
        .map(|_| Point::new(rng.gen_range(0.0..=side), rng.gen_range(0.0..=side)))
        .collect()
}

#[test]
fn synthetic_churn_stays_valid_and_bounded_over_300_events() {
    // Three seeds x 100 events = 300 audited events, exceeding the
    // 200-event floor even if one stream were ever trimmed.
    for seed in [11u64, 42, 2008] {
        let mut rng = StdRng::seed_from_u64(seed);
        let side = 6.0;
        let pts = uniform_points(&mut rng, 80, side);
        let mut engine = Maintainer::with_population(MaintainConfig::default(), pts);
        audit(&engine, &format!("seed {seed}, initial population"));

        let mut churn = ChurnGen::new(ChurnConfig {
            region: Aabb::square(side),
            p_join: 0.15,
            p_leave: 0.15,
            move_radius: 0.75,
            min_population: 4,
        });
        let mut metrics = StabilityMetrics::new();
        for step in 0..100 {
            let event = churn.next_event(&mut rng, &engine.alive());
            let report = engine.apply(event);
            assert!(
                report.valid,
                "seed {seed}, event {step}: engine reported an invalid set"
            );
            let (_, maintained, fresh) = audit(&engine, &format!("seed {seed}, event {step}"));
            assert_eq!(
                maintained, report.cds_size,
                "seed {seed}, event {step}: report disagrees with audit"
            );
            assert_eq!(
                fresh, report.baseline_size,
                "seed {seed}, event {step}: baseline disagrees with audit"
            );
            metrics.record(&report);
        }
        assert_eq!(metrics.events, 100);
        assert_eq!(metrics.invalid_events, 0);
        // The whole point of maintenance: most events repair locally.
        assert!(
            metrics.repair_rate() > 0.5,
            "seed {seed}: local repair resolved only {:.0}% of events",
            100.0 * metrics.repair_rate()
        );
        assert!(
            metrics.ratio_max <= 2.0,
            "seed {seed}: worst size ratio {} broke the 2x bound",
            metrics.ratio_max
        );
    }
}

#[test]
fn waypoint_churn_stays_valid_and_bounded_over_200_events() {
    let mut rng = StdRng::seed_from_u64(77);
    let n = 60;
    let side = 5.5;
    let mut walk = RandomWaypoint::new(&mut rng, n, Aabb::square(side), (0.4, 1.6), 0.1);
    let mut engine =
        Maintainer::with_population(MaintainConfig::default(), walk.positions().to_vec());
    let ids: Vec<NodeId> = (0..n).collect();

    let mut applied = 0;
    let mut epochs = 0;
    while applied < 200 && epochs < 2000 {
        epochs += 1;
        for event in waypoint_epoch(&mut walk, &mut rng, 0.3, &ids) {
            if applied == 200 {
                break;
            }
            let report = engine.apply(event);
            assert!(report.valid, "epoch {epochs}, event {applied}: invalid");
            audit(&engine, &format!("epoch {epochs}, event {applied}"));
            assert!(
                report.size_ratio() <= 2.0,
                "event {applied}: ratio {} broke the 2x bound",
                report.size_ratio()
            );
            applied += 1;
        }
    }
    assert_eq!(applied, 200, "walk failed to produce 200 move events");
    // Population is fixed in waypoint mode.
    assert_eq!(engine.population(), n);
}

#[test]
fn adversarial_stream_empty_refill_split_remerge() {
    // Hand-built stream exercising the engine's edge paths: drain the
    // population to nothing, refill it, then drag a node far away and
    // back (giant-component flip).  Every state is audited.
    let mut engine = Maintainer::with_population(
        MaintainConfig::default(),
        vec![
            Point::new(0.0, 0.0),
            Point::new(0.8, 0.0),
            Point::new(1.6, 0.0),
        ],
    );
    for node in 0..3 {
        let report = engine.apply(TopologyEvent::Leave { node });
        assert!(report.valid);
        audit(&engine, &format!("drain step {node}"));
    }
    assert_eq!(engine.population(), 0);

    for k in 0..6 {
        let report = engine.apply(TopologyEvent::Join {
            pos: Point::new(k as f64 * 0.7, 0.0),
        });
        assert!(report.valid);
        audit(&engine, &format!("refill step {k}"));
    }
    // Drag the middle node far away (splits the chain), then back.
    let far = Point::new(100.0, 100.0);
    let report = engine.apply(TopologyEvent::Move { node: 5, to: far });
    assert!(report.valid);
    audit(&engine, "after split");
    let report = engine.apply(TopologyEvent::Move {
        node: 5,
        to: Point::new(3.5, 0.0),
    });
    assert!(report.valid);
    audit(&engine, "after remerge");
    assert_eq!(engine.population(), 6);
}

#[test]
fn dense_cluster_churn_with_tight_drift_threshold() {
    // A tight drift threshold forces frequent recomputes; validity and
    // the (now trivially enforced) bound must still hold.
    let mut rng = StdRng::seed_from_u64(5);
    let pts = uniform_points(&mut rng, 120, 4.0);
    let cfg = MaintainConfig {
        drift_threshold: 1.05,
        ..MaintainConfig::default()
    };
    let mut engine = Maintainer::with_population(cfg, pts);
    let mut churn = ChurnGen::new(ChurnConfig {
        region: Aabb::square(4.0),
        p_join: 0.2,
        p_leave: 0.2,
        move_radius: 1.5,
        min_population: 8,
    });
    let mut metrics = StabilityMetrics::new();
    for step in 0..60 {
        let event = churn.next_event(&mut rng, &engine.alive());
        let report = engine.apply(event);
        assert!(report.valid, "event {step}: invalid");
        audit(&engine, &format!("tight-drift event {step}"));
        metrics.record(&report);
    }
    assert!(
        metrics.ratio_max <= 1.05 + 1e-9,
        "drift threshold 1.05 not enforced: worst ratio {}",
        metrics.ratio_max
    );
}
