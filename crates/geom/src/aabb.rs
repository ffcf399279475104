//! Axis-aligned bounding boxes.

use crate::Point;
use std::fmt;

/// An axis-aligned bounding box, stored as min/max corners.
///
/// Used by instance generators and churn models (deployment regions) and
/// by the SVG renderer (viewports).
///
/// ```
/// use mcds_geom::{Aabb, Point};
/// let b = Aabb::new(Point::new(0.0, 0.0), Point::new(10.0, 5.0));
/// assert!(b.contains(Point::new(3.0, 4.0)));
/// assert_eq!(b.width(), 10.0);
/// assert_eq!(b.area(), 50.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aabb {
    min: Point,
    max: Point,
}

impl Aabb {
    /// Creates a box from two opposite corners (in any order).
    pub fn new(a: Point, b: Point) -> Self {
        Aabb {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// The square `[0, side] × [0, side]` — the conventional deployment
    /// region for random UDG instances.
    pub fn square(side: f64) -> Self {
        Aabb::new(Point::ORIGIN, Point::new(side, side))
    }

    /// The tightest box containing all `points`.
    ///
    /// Returns `None` for an empty input: an empty set has no extent.
    pub fn of_points<I: IntoIterator<Item = Point>>(points: I) -> Option<Self> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut bb = Aabb::new(first, first);
        for p in it {
            bb.expand(p);
        }
        Some(bb)
    }

    /// Minimum corner.
    #[inline]
    pub fn min(&self) -> Point {
        self.min
    }

    /// Maximum corner.
    #[inline]
    pub fn max(&self) -> Point {
        self.max
    }

    /// Horizontal extent.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Vertical extent.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area of the box.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center of the box.
    #[inline]
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// Returns `true` if `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Grows the box (in place) to include `p`.
    pub fn expand(&mut self, p: Point) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// The box expanded outward by `margin` on every side.
    pub fn inflated(&self, margin: f64) -> Aabb {
        Aabb::new(
            self.min - Point::new(margin, margin),
            self.max + Point::new(margin, margin),
        )
    }
}

impl fmt::Display for Aabb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corners_are_normalized() {
        let b = Aabb::new(Point::new(5.0, -1.0), Point::new(1.0, 3.0));
        assert_eq!(b.min(), Point::new(1.0, -1.0));
        assert_eq!(b.max(), Point::new(5.0, 3.0));
    }

    #[test]
    fn of_points_handles_empty_and_singleton() {
        assert!(Aabb::of_points(std::iter::empty()).is_none());
        let b = Aabb::of_points([Point::new(2.0, 3.0)]).unwrap();
        assert_eq!(b.min(), b.max());
        assert_eq!(b.area(), 0.0);
    }

    #[test]
    fn of_points_bounds_everything() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(-2.0, 5.0),
            Point::new(3.0, 1.0),
        ];
        let b = Aabb::of_points(pts).unwrap();
        for p in pts {
            assert!(b.contains(p));
        }
        assert_eq!(b.width(), 5.0);
        assert_eq!(b.height(), 5.0);
    }

    #[test]
    fn contains_boundary() {
        let b = Aabb::square(2.0);
        assert!(b.contains(Point::new(0.0, 0.0)));
        assert!(b.contains(Point::new(2.0, 2.0)));
        assert!(!b.contains(Point::new(2.0 + 1e-9, 2.0)));
    }

    #[test]
    fn inflated_grows_every_side() {
        let a = Aabb::square(1.0);
        let corner = Point::new(2.0, 0.0);
        assert!(!a.contains(corner));
        assert!(a.inflated(1.0).contains(corner));
        assert_eq!(a.inflated(1.0).min(), Point::new(-1.0, -1.0));
    }

    #[test]
    fn center_of_square() {
        assert_eq!(Aabb::square(4.0).center(), Point::new(2.0, 2.0));
    }
}
