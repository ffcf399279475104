//! Plain 2-D points with vector arithmetic.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A point (or free vector) in the Euclidean plane.
///
/// `Point` doubles as a 2-D vector: subtraction of two points yields the
/// displacement vector between them, and scalar multiplication scales a
/// vector.  All UDG nodes, disk centers and construction points in the
/// workspace are `Point`s.
///
/// ```
/// use mcds_geom::Point;
/// let a = Point::new(1.0, 2.0);
/// let b = Point::new(4.0, 6.0);
/// assert_eq!(a.dist(b), 5.0);
/// assert_eq!((a + b) / 2.0, a.midpoint(b));
/// ```
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Creates the unit vector at angle `theta` (radians, CCW from +x).
    ///
    /// ```
    /// use mcds_geom::Point;
    /// let p = Point::from_angle(std::f64::consts::FRAC_PI_2);
    /// assert!((p.y - 1.0).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn from_angle(theta: f64) -> Self {
        Point::new(theta.cos(), theta.sin())
    }

    /// Creates a point at polar coordinates `(r, theta)` around `center`.
    #[inline]
    pub fn polar(center: Point, r: f64, theta: f64) -> Self {
        center + Point::from_angle(theta) * r
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Cheaper than [`Point::dist`]; prefer it for comparisons against a
    /// squared threshold (UDG adjacency tests compare against `1.0`).
    #[inline]
    pub fn dist_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(self, other: Point) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Euclidean norm of this point viewed as a vector.
    #[inline]
    pub fn norm(self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Squared Euclidean norm of this point viewed as a vector.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product with `other`.
    #[inline]
    pub fn dot(self, other: Point) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// The midpoint of the segment from `self` to `other`.
    #[inline]
    pub fn midpoint(self, other: Point) -> Point {
        Point::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }

    /// The vector scaled to unit length.
    ///
    /// Returns `None` for the zero vector (there is no direction to keep).
    #[inline]
    pub fn normalized(self) -> Option<Point> {
        let n = self.norm();
        if n == 0.0 {
            None
        } else {
            Some(self / n)
        }
    }

    /// Returns `true` if both coordinates are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Point {
    #[inline]
    fn add_assign(&mut self, rhs: Point) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Point {
    #[inline]
    fn sub_assign(&mut self, rhs: Point) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Neg for Point {
    type Output = Point;
    #[inline]
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    #[inline]
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point {
    type Output = Point;
    #[inline]
    fn div(self, rhs: f64) -> Point {
        Point::new(self.x / rhs, self.y / rhs)
    }
}

impl From<(f64, f64)> for Point {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for (f64, f64) {
    #[inline]
    fn from(p: Point) -> Self {
        (p.x, p.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn distance_is_symmetric_and_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.dist(b), 5.0);
        assert_eq!(b.dist(a), 5.0);
        assert_eq!(a.dist_sq(b), 25.0);
    }

    #[test]
    fn vector_arithmetic() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, -1.0);
        assert_eq!(a + b, Point::new(4.0, 1.0));
        assert_eq!(a - b, Point::new(-2.0, 3.0));
        assert_eq!(-a, Point::new(-1.0, -2.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(a / 2.0, Point::new(0.5, 1.0));
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn dot_product() {
        let a = Point::new(1.0, 0.0);
        let b = Point::new(0.0, 1.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(Point::new(2.0, 3.0).dot(Point::new(4.0, -1.0)), 5.0);
    }

    #[test]
    fn polar_and_angle_roundtrip() {
        let c = Point::new(5.0, -2.0);
        let p = Point::polar(c, 2.0, 1.1);
        assert!((p.dist(c) - 2.0).abs() < 1e-12);
        let v = p - c;
        assert!((v.y.atan2(v.x) - 1.1).abs() < 1e-12);
        assert!(Point::polar(c, 1.0, FRAC_PI_2).dist(Point::new(5.0, -1.0)) < 1e-12);
    }

    #[test]
    fn normalized_handles_zero() {
        assert!(Point::ORIGIN.normalized().is_none());
        let v = Point::new(3.0, 4.0).normalized().unwrap();
        assert!((v.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn conversions() {
        let p: Point = (1.5, 2.5).into();
        assert_eq!(p, Point::new(1.5, 2.5));
        let t: (f64, f64) = p.into();
        assert_eq!(t, (1.5, 2.5));
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Point::ORIGIN).is_empty());
        assert_eq!(format!("{}", Point::new(1.0, 2.0)), "(1, 2)");
    }
}
