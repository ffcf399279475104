//! Independent-point predicates and packing helpers.
//!
//! Section II of the paper is a packing argument: a finite planar set is
//! *independent* if all pairwise distances exceed one, and the theorems
//! bound how many independent points fit in the neighborhood (union of unit
//! disks) of a structured set.  This module provides
//!
//! * the independence predicate itself ([`is_independent`]),
//! * the classical constants the paper leans on — at most [`MAX_PER_DISK`]
//!   independent points in one unit disk, and Wegner's bound of at most
//!   [`WEGNER_RADIUS_2`] points with pairwise distance ≥ 1 in a disk of
//!   radius two,
//! * a greedy packer ([`greedy_pack`]) used by the conjecture-exploration
//!   experiment (E8) to *search* for large independent sets inside a
//!   neighborhood.

use crate::{neighborhood_contains, Point};

/// Maximum number of independent points inside a single unit disk.
///
/// "It's trivial that `|I(u)| ≤ 5` for any planar point `u`" — five points
/// at pairwise distance > 1 fit in a unit disk (slightly-perturbed regular
/// pentagon on the boundary), six cannot.
pub const MAX_PER_DISK: usize = 5;

/// Wegner's bound: a disk of radius two contains at most 21 points whose
/// pairwise distances are all at least one (G. Wegner, 1986).  Used by the
/// paper to cap `|I(S)|` for stars with many points.
pub const WEGNER_RADIUS_2: usize = 21;

/// The paper's `φ(n)`: the maximum number of independent points in the
/// neighborhood of an *n-star* (Theorem 3).
///
/// `φ(n) = 3n + 2` for `n ≤ 2`, and `min(3n + 3, 21)` for `n ≥ 3`.
///
/// # Panics
///
/// Panics if `n == 0` (a star has at least one point).
///
/// ```
/// use mcds_geom::packing::phi;
/// assert_eq!(phi(1), 5);
/// assert_eq!(phi(2), 8);
/// assert_eq!(phi(3), 12);
/// assert_eq!(phi(6), 21);
/// assert_eq!(phi(100), 21);
/// ```
pub fn phi(n: usize) -> usize {
    assert!(n >= 1, "a star contains at least one point");
    if n <= 2 {
        3 * n + 2
    } else {
        (3 * n + 3).min(WEGNER_RADIUS_2)
    }
}

/// Theorem 6's bound on `|I(V)|` for a *connected* planar set of `n ≥ 2`
/// points: `11n/3 + 1`, returned as an `f64` since it is generally
/// fractional.
///
/// ```
/// use mcds_geom::packing::connected_set_bound;
/// assert!((connected_set_bound(3) - 12.0).abs() < 1e-12);
/// ```
pub fn connected_set_bound(n: usize) -> f64 {
    assert!(n >= 2, "Theorem 6 requires at least two points");
    11.0 * n as f64 / 3.0 + 1.0
}

/// Returns `true` if all pairwise distances in `points` are strictly
/// greater than one, up to `tol` slack — i.e. the set is *independent* in
/// the paper's sense.
///
/// `tol` lets callers accept limit constructions where distances approach
/// one from above (pass `0.0` for the strict predicate).
///
/// ```
/// use mcds_geom::{packing::is_independent, Point};
/// let good = [Point::new(0.0, 0.0), Point::new(1.5, 0.0)];
/// let bad = [Point::new(0.0, 0.0), Point::new(0.5, 0.0)];
/// assert!(is_independent(&good, 0.0));
/// assert!(!is_independent(&bad, 0.0));
/// ```
pub fn is_independent(points: &[Point], tol: f64) -> bool {
    min_pairwise_distance(points).is_none_or(|d| d > 1.0 - tol)
}

/// The smallest pairwise distance in `points`, or `None` for fewer than two
/// points.
pub fn min_pairwise_distance(points: &[Point]) -> Option<f64> {
    if points.len() < 2 {
        return None;
    }
    let mut best = f64::INFINITY;
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            best = best.min(points[i].dist(points[j]));
        }
    }
    Some(best)
}

/// Greedily packs a maximal independent subset of `candidates` (first-fit
/// in the given order): a candidate is kept iff it is more than one unit
/// from every kept point.
///
/// The output is maximal w.r.t. the candidate list but not maximum; the E8
/// experiment runs it over many shuffles to search for large packings.
///
/// ```
/// use mcds_geom::{packing::greedy_pack, Point};
/// let cands = [Point::new(0.0, 0.0), Point::new(0.5, 0.0), Point::new(1.2, 0.0)];
/// let packed = greedy_pack(&cands);
/// assert_eq!(packed.len(), 2); // keeps 0.0 and 1.2
/// ```
pub fn greedy_pack(candidates: &[Point]) -> Vec<Point> {
    let mut kept: Vec<Point> = Vec::new();
    for &c in candidates {
        if kept.iter().all(|&k| k.dist(c) > 1.0) {
            kept.push(c);
        }
    }
    kept
}

/// Greedily packs independent points drawn from `candidates` that also lie
/// in the unit-disk neighborhood of `set`.
///
/// This is the search primitive for the Section-V conjecture experiment:
/// how many independent points fit in `⋃_{u∈V} D_u`?
pub fn greedy_pack_in_neighborhood(set: &[Point], candidates: &[Point]) -> Vec<Point> {
    let in_nbhd: Vec<Point> = candidates
        .iter()
        .copied()
        .filter(|&c| neighborhood_contains(set, c))
        .collect();
    greedy_pack(&in_nbhd)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phi_table_matches_paper() {
        // φ(n): 5, 8, 12, 15, 18, 21, 21, ...
        let expect = [5usize, 8, 12, 15, 18, 21, 21, 21];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(phi(i + 1), e, "phi({})", i + 1);
        }
    }

    #[test]
    fn phi_is_at_most_linear_bound() {
        // The paper: φ(n) ≤ 11n/3 + 1 for n ≥ 2.
        for n in 2..50 {
            assert!(phi(n) as f64 <= 11.0 * n as f64 / 3.0 + 1.0 + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn phi_zero_panics() {
        let _ = phi(0);
    }

    #[test]
    fn five_points_fit_in_unit_disk() {
        // Slightly shrunk regular pentagon scaled so chords exceed 1.
        // Regular pentagon on a unit circle has side 2 sin(36°) ≈ 1.1756.
        let pts: Vec<Point> = (0..5)
            .map(|k| Point::from_angle(k as f64 * std::f64::consts::TAU / 5.0))
            .collect();
        assert!(is_independent(&pts, 0.0));
        assert_eq!(pts.len(), MAX_PER_DISK);
        // All inside the unit disk centered at the origin (on its boundary).
        assert!(pts
            .iter()
            .all(|&p| neighborhood_contains(&[Point::ORIGIN], p)));
    }

    #[test]
    fn min_pairwise_distance_edge_cases() {
        assert!(min_pairwise_distance(&[]).is_none());
        assert!(min_pairwise_distance(&[Point::ORIGIN]).is_none());
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(1.0, 0.0),
        ];
        assert_eq!(min_pairwise_distance(&pts), Some(1.0));
    }

    #[test]
    fn independence_tolerance_semantics() {
        let touching = [Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        assert!(!is_independent(&touching, 0.0)); // distance exactly 1 is NOT independent
        assert!(is_independent(&touching, 1e-6)); // but passes with slack
        assert!(is_independent(&[], 0.0));
        assert!(is_independent(&[Point::ORIGIN], 0.0));
    }

    #[test]
    fn greedy_pack_output_is_independent_and_maximal() {
        let cands: Vec<Point> = (0..100)
            .map(|i| Point::new((i % 10) as f64 * 0.4, (i / 10) as f64 * 0.4))
            .collect();
        let packed = greedy_pack(&cands);
        assert!(is_independent(&packed, 0.0));
        // Maximality: every rejected candidate is within 1 of a kept point.
        for &c in &cands {
            assert!(packed.iter().any(|&k| k.dist(c) <= 1.0));
        }
    }

    #[test]
    fn wegner_bound_survives_randomized_packing() {
        // Wegner: at most 21 points with pairwise distance ≥ 1 in a disk
        // of radius 2.  Our greedy packer uses the strict (> 1) variant,
        // so it can never beat 21 either; hammer it with many orders.
        let mut s = 2025u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut best = 0usize;
        for _ in 0..300 {
            let mut candidates = Vec::with_capacity(200);
            for _ in 0..200 {
                let r = 2.0 * next().sqrt();
                let t = next() * std::f64::consts::TAU;
                candidates.push(Point::polar(Point::ORIGIN, r, t));
            }
            best = best.max(greedy_pack(&candidates).len());
        }
        assert!(best <= WEGNER_RADIUS_2, "packed {best} > Wegner's 21");
        // Wegner's 21 needs pairwise distance *exactly* 1 in places; with
        // our strict predicate the dense configurations (hex lattice with
        // unit spacing) lose their outer ring, so ~13 is the realistic
        // strict-packing ceiling here.  Require the search to reach 12.
        assert!(best >= 12, "search too weak: only {best}");
    }

    #[test]
    fn neighborhood_packing_respects_neighborhood() {
        let set = [Point::ORIGIN];
        let cands = [
            Point::new(0.9, 0.0),
            Point::new(-0.9, 0.0),
            Point::new(5.0, 5.0), // outside neighborhood
        ];
        let packed = greedy_pack_in_neighborhood(&set, &cands);
        assert!(packed.iter().all(|&p| neighborhood_contains(&set, p)));
        assert_eq!(packed.len(), 2);
    }
}
