//! Closed disks, including the unit disks `D_u` of the paper.

use crate::{Point, EPS};
use std::fmt;

/// A closed disk in the plane.
///
/// In the paper's notation, `D_u` is the unit disk centered at `u`; a node
/// `v` is *covered* (dominated) by `u` iff `v ∈ D_u`, and the neighborhood
/// of a point set `S` is `⋃_{u∈S} D_u`.
///
/// ```
/// use mcds_geom::{Disk, Point};
/// let d = Disk::unit(Point::ORIGIN);
/// assert!(d.contains(Point::new(1.0, 0.0)));       // boundary counts
/// assert!(!d.contains(Point::new(1.0 + 1e-6, 0.0)));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Disk {
    /// Center of the disk.
    pub center: Point,
    /// Radius of the disk (non-negative).
    pub radius: f64,
}

impl Disk {
    /// Creates a disk from center and radius.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or not finite.
    pub fn new(center: Point, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "disk radius must be finite and non-negative, got {radius}"
        );
        Disk { center, radius }
    }

    /// The unit disk `D_c` centered at `c`.
    pub fn unit(center: Point) -> Self {
        Disk::new(center, 1.0)
    }

    /// Returns `true` if `p` lies in the closed disk (within [`EPS`] slack,
    /// so that exactly-unit distances — ubiquitous in the paper's tight
    /// constructions — count as inside).
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        self.center.dist_sq(p) <= self.radius * self.radius + EPS
    }

    /// Area of the disk.
    pub fn area(&self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius
    }

    /// All indices of `points` inside the closed disk.
    ///
    /// This is `I(u) = I ∩ D_u` from the paper when `points` enumerate the
    /// independent set `I`.
    pub fn covered_indices(&self, points: &[Point]) -> Vec<usize> {
        points
            .iter()
            .enumerate()
            .filter(|(_, &p)| self.contains(p))
            .map(|(i, _)| i)
            .collect()
    }
}

impl fmt::Display for Disk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "disk(center={}, r={})", self.center, self.radius)
    }
}

/// Returns `true` if `p` lies in the neighborhood `⋃_{u∈S} D_u` of the
/// point set `S` under unit disks.
///
/// ```
/// use mcds_geom::{neighborhood_contains, Point};
/// let s = [Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
/// assert!(neighborhood_contains(&s, Point::new(1.9, 0.0)));
/// assert!(!neighborhood_contains(&s, Point::new(2.5, 0.0)));
/// ```
pub fn neighborhood_contains(set: &[Point], p: Point) -> bool {
    set.iter().any(|&u| Disk::unit(u).contains(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containment_boundary_semantics() {
        let d = Disk::unit(Point::ORIGIN);
        assert!(d.contains(Point::new(1.0, 0.0)));
        assert!(d.contains(Point::new(1.0 + EPS / 4.0, 0.0)));
        assert!(!d.contains(Point::new(1.0 + 1e-6, 0.0)));
        assert!(d.contains(Point::new(0.5, 0.0)));
        assert!(!d.contains(Point::new(0.8, 0.8)));
    }

    #[test]
    fn covered_indices_lists_inside_points() {
        let d = Disk::unit(Point::ORIGIN);
        let pts = [
            Point::new(0.5, 0.0),
            Point::new(2.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(-0.3, -0.3),
        ];
        assert_eq!(d.covered_indices(&pts), vec![0, 2, 3]);
    }

    #[test]
    fn neighborhood_union_semantics() {
        let s = [Point::new(0.0, 0.0), Point::new(3.0, 0.0)];
        assert!(neighborhood_contains(&s, Point::new(0.9, 0.0)));
        assert!(neighborhood_contains(&s, Point::new(3.9, 0.0)));
        assert!(!neighborhood_contains(&s, Point::new(1.5, 0.0)));
        assert!(!neighborhood_contains(&[], Point::ORIGIN));
    }

    #[test]
    fn area_of_unit_disk() {
        assert!((Disk::unit(Point::ORIGIN).area() - std::f64::consts::PI).abs() < 1e-12);
    }
}
