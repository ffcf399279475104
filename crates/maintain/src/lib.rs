//! Dynamic CDS maintenance under churn.
//!
//! The rest of the workspace constructs a connected dominating set once,
//! for a frozen snapshot.  Real wireless ad hoc networks churn — nodes
//! power on, crash, and move — and rebuilding the backbone from scratch
//! on every change defeats the point of a *virtual backbone*.  This crate
//! keeps a valid CDS alive across a stream of topology events by
//! repairing it locally and falling back to the paper's two-phased
//! construction only when local repair is insufficient:
//!
//! * [`TopologyEvent`] — the churn primitives (join, leave/crash, move),
//!   produced by the seeded synthetic [`ChurnGen`], injected as
//!   correlated failure bursts by [`FaultGen`] (regional and batch
//!   kills), or adapted from a [`mcds_udg::mobility::RandomWaypoint`]
//!   walk via [`waypoint_epoch`], and applied by [`EventSource::drive`];
//! * [`Maintainer`] — the engine: local first-fit MIS re-election
//!   restricted to the event's 2-hop neighborhood, connector patching
//!   with the Section-IV max-gain greedy confined to the damaged region
//!   (phase 2's own kernel, [`mcds_cds::connect::max_gain_connectors_within`]),
//!   and adoption of the event's fresh baseline solve whenever repair
//!   stalls, fails verification, or drifts past
//!   [`MaintainConfig::drift_threshold`] × that baseline;
//! * [`RepairReport`] / [`StabilityMetrics`] — per-event accounting
//!   (locality, role deltas, decision, size ratio, wall time) and its
//!   aggregation into the stability figures the churn experiments plot.
//!
//! Every maintained set is checked once per event against
//! [`mcds_graph::properties::is_connected_dominating_set`] on the giant
//! component of the live topology (a repaired set before it is
//! committed), so invalid intermediate states cannot survive an event
//! unnoticed.  With [`MaintainConfig::m`] above 1 the
//! engine maintains the fault-tolerant `(1, m)` backbone of
//! [`mcds_cds::fault`] instead, and each [`RepairReport`] counts the
//! nodes an event undominated before repair — the robustness metric the
//! failure-injection experiment (E22) compares across `m`.
//!
//! # Example
//!
//! ```
//! use mcds_geom::Point;
//! use mcds_maintain::{
//!     ChurnConfig, ChurnGen, EventSource, MaintainConfig, Maintainer, StabilityMetrics,
//! };
//! use mcds_rng::{rngs::StdRng, Rng, SeedableRng};
//!
//! // Deploy 40 nodes uniformly in a 6×6 region (radius 1).
//! let mut rng = StdRng::seed_from_u64(7);
//! let cfg = ChurnConfig::default();
//! let pts: Vec<Point> = (0..40)
//!     .map(|_| {
//!         Point::new(rng.gen_range(0.0..=6.0), rng.gen_range(0.0..=6.0))
//!     })
//!     .collect();
//! let mut engine = Maintainer::with_population(MaintainConfig::default(), pts);
//!
//! // Drive 30 churn events through the engine and aggregate stability.
//! let mut metrics = StabilityMetrics::new();
//! EventSource::Churn(ChurnGen::new(cfg), None)
//!     .drive(&mut engine, &mut rng, 30, |report, _| metrics.record(report));
//! assert_eq!(metrics.invalid_events, 0, "every maintained set is a CDS");
//! assert!(metrics.mean_survival() > 0.5, "the backbone is mostly stable");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod event;
mod metrics;

pub use engine::{MaintainConfig, Maintainer, RecomputeReason, RepairDecision, RepairReport};
pub use event::{
    waypoint_epoch, ChurnConfig, ChurnGen, EventSource, FaultConfig, FaultGen, NodeId,
    TopologyEvent,
};
pub use metrics::StabilityMetrics;
