//! Seeded inputs.  The generator is the benchmark's own (SplitMix64), so
//! a change to the program's random-number or deployment code cannot
//! change what the benchmark feeds it.

use std::f64::consts::PI;

use mcds_geom::Point;

/// SplitMix64: tiny, seedable, and good enough for deployments.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and an input `stream`, so different inputs
    /// of one run are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD134_2543_DE82_EF95));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

/// Side of the square that gives `n` uniform points of unit radius an
/// expected degree of about `degree`.
pub fn side_for_degree(n: usize, degree: f64) -> f64 {
    (n as f64 * PI / degree).sqrt()
}

/// `n` points uniform in the square `[0, side]²`.
pub fn uniform_points(rng: &mut Rng, n: usize, side: f64) -> Vec<Point> {
    (0..n)
        .map(|_| Point::new(rng.unit() * side, rng.unit() * side))
        .collect()
}

/// A step of length at most `max_step` from `p` in a random direction,
/// clamped into the square `[0, side]²`.
pub fn bounded_step(rng: &mut Rng, p: Point, max_step: f64, side: f64) -> Point {
    let angle = rng.unit() * 2.0 * PI;
    let len = rng.unit() * max_step;
    Point::new(
        (p.x + len * angle.cos()).clamp(0.0, side),
        (p.y + len * angle.sin()).clamp(0.0, side),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_points_other_stream_other_points() {
        let a = uniform_points(&mut Rng::new(7, 1), 100, 10.0);
        let b = uniform_points(&mut Rng::new(7, 1), 100, 10.0);
        let c = uniform_points(&mut Rng::new(7, 2), 100, 10.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a
            .iter()
            .all(|p| (0.0..10.0).contains(&p.x) && (0.0..10.0).contains(&p.y)));
    }

    #[test]
    fn steps_are_bounded_and_stay_inside() {
        let mut rng = Rng::new(3, 0);
        let mut p = Point::new(0.1, 9.9);
        for _ in 0..1000 {
            let q = bounded_step(&mut rng, p, 0.5, 10.0);
            assert!(p.dist_sq(q) <= 0.25 + 1e-12);
            assert!((0.0..=10.0).contains(&q.x) && (0.0..=10.0).contains(&q.y));
            p = q;
        }
    }
}
