//! Computational-geometry substrate for unit-disk-graph CDS algorithms.
//!
//! This crate provides the planar-geometry foundation used throughout the
//! `mcds` workspace, which reproduces *"Two-Phased Approximation Algorithms
//! for Minimum CDS in Wireless Ad Hoc Networks"* (Wan, Wang & Yao, ICDCS
//! 2008).  The paper models a wireless ad hoc network as a **unit-disk
//! graph** (UDG): nodes are points in the plane and two nodes are adjacent
//! iff their Euclidean distance is at most one.  Everything geometric that
//! the paper's Section II (independence-packing bounds), Section V
//! (tightness constructions) and the instance generators need lives here:
//!
//! * [`Point`] — a plain 2-D point with the usual vector operations,
//! * [`Aabb`] — axis-aligned bounding boxes (deployment regions),
//! * [`Disk`] — the unit disks `D_u` and the neighborhood `⋃_{u∈S} D_u`
//!   of a point set,
//! * [`packing`] — predicates on *independent* point sets (pairwise distance
//!   `> 1`), the classical packing constants (Wegner's 21-point bound,
//!   the 5-points-per-disk bound) that Theorem 3 of the paper builds on,
//!   `φ(n)` and Theorem 6's bound,
//! * [`area`] — the exact lens and hexagon areas of the area argument
//!   (E10).
//!
//! # Floating-point policy
//!
//! All coordinates are `f64`.  Geometric predicates that the algorithms'
//! correctness depends on (adjacency, independence) accept an explicit
//! tolerance; the conventional default is [`EPS`].  Constructions that are
//! tight "in the limit" (the paper's Fig. 1/2 use an arbitrarily small
//! `ε > 0`) are parameterized by that `ε` so tests can verify behavior as
//! `ε → 0`.
//!
//! # Example
//!
//! ```
//! use mcds_geom::{Point, Disk};
//!
//! let o = Point::new(0.0, 0.0);
//! let u = Point::new(0.6, 0.0);
//! assert!(o.dist(u) <= 1.0);              // adjacent in the UDG
//! let d = Disk::unit(o);
//! assert!(d.contains(Point::new(0.3, 0.4)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod aabb;
mod disk;
mod point;

pub mod area;
pub mod packing;

pub use aabb::Aabb;
pub use disk::{neighborhood_contains, Disk};
pub use point::Point;

/// Default tolerance for geometric comparisons.
///
/// Distances in this workspace are O(1)–O(100) (deployment regions are at
/// most a few hundred units wide), so absolute comparisons at `1e-9` are far
/// below any meaningful geometric scale while far above `f64` rounding noise.
pub const EPS: f64 = 1e-9;
