//! Unit-disk-graph model of wireless ad hoc networks.
//!
//! The paper models a wireless ad hoc network whose nodes lie in a plane
//! with equal maximum transmission radii (normalized to one) as a
//! **unit-disk graph** (UDG): nodes `u, v` are adjacent iff their Euclidean
//! distance is at most one.  This crate binds the geometric substrate
//! ([`mcds_geom`]) to the graph substrate ([`mcds_graph`]):
//!
//! * [`Udg`] — a point set together with its induced unit-disk graph,
//!   built in expected `O(n + m)` from one sorted cell table that writes
//!   the CSR directly (with a naive `O(n²)` reference used in tests);
//!   sub-instances such as giant components relabel the graph instead
//!   of rebuilding it,
//! * [`Topology`] — the resident form of a [`Udg`] for churn: stable
//!   node ids, sorted neighbour rows patched per join, leave or move in
//!   time proportional to the local degree, and graphs (the whole
//!   population or its giant component) taken by relabelling the rows,
//! * [`gen`] — deterministic, seedable instance generators: uniform in a
//!   square/disk, clustered, perturbed grid, linear chains, plus
//!   connected-instance helpers (resampling and giant-component
//!   extraction),
//! * [`io`] — a minimal plain-text instance format for persisting and
//!   sharing instances,
//! * [`analysis`] — instance statistics (degree histograms, clustering,
//!   component structure),
//! * [`mobility`] — random-waypoint node mobility for
//!   backbone-maintenance studies.
//!
//! # Example
//!
//! ```
//! use mcds_geom::Point;
//! use mcds_udg::Udg;
//!
//! let pts = vec![
//!     Point::new(0.0, 0.0),
//!     Point::new(0.8, 0.0),
//!     Point::new(1.6, 0.0),
//! ];
//! let udg = Udg::build(pts);
//! assert_eq!(udg.graph().num_edges(), 2);   // 0-1 and 1-2; 0-2 too far
//! assert!(udg.graph().is_connected());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cells;
mod model;
mod resident;

pub mod analysis;
pub mod gen;
pub mod io;
pub mod mobility;

pub use model::Udg;
pub use resident::{Giant, Topology};
