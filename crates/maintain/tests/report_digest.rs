//! A pinned digest of the maintainer's per-event reports.
//!
//! Fixed-seed mixed join/leave/move streams at m ∈ {1, 2, 3} run
//! through the engine, and every [`RepairReport`] field except `wall` is
//! folded into one FNV-1a digest.  The streams are chosen to hit every
//! [`RecomputeReason`], so the digest pins the repair decisions, role
//! deltas, sizes and survival of the whole repair ladder.  A change to
//! the engine that alters any report fails here; a change that only
//! makes it faster does not.

use mcds_geom::{Aabb, Point};
use mcds_maintain::{
    ChurnConfig, ChurnGen, MaintainConfig, Maintainer, RecomputeReason, RepairReport,
};
use mcds_rng::rngs::StdRng;
use mcds_rng::{Rng, SeedableRng};

/// One stream: deployment, churn mix and engine configuration.
struct Stream {
    seed: u64,
    n: usize,
    side: f64,
    events: usize,
    p_join: f64,
    p_leave: f64,
    move_radius: f64,
    drift: f64,
    m: usize,
}

const STREAMS: [Stream; 6] = [
    Stream {
        seed: 17,
        n: 90,
        side: 6.0,
        events: 250,
        p_join: 0.2,
        p_leave: 0.2,
        move_radius: 1.0,
        drift: 1.75,
        m: 1,
    },
    Stream {
        seed: 29,
        n: 40,
        side: 7.0,
        events: 250,
        p_join: 0.1,
        p_leave: 0.3,
        move_radius: 2.0,
        drift: 1.1,
        m: 1,
    },
    Stream {
        seed: 31,
        n: 80,
        side: 5.0,
        events: 200,
        p_join: 0.2,
        p_leave: 0.2,
        move_radius: 1.0,
        drift: 1.75,
        m: 2,
    },
    Stream {
        seed: 43,
        n: 50,
        side: 6.0,
        events: 200,
        p_join: 0.1,
        p_leave: 0.3,
        move_radius: 2.0,
        drift: 1.1,
        m: 2,
    },
    Stream {
        seed: 53,
        n: 70,
        side: 4.5,
        events: 150,
        p_join: 0.2,
        p_leave: 0.2,
        move_radius: 1.0,
        drift: 1.75,
        m: 3,
    },
    Stream {
        seed: 61,
        n: 40,
        side: 5.5,
        events: 150,
        p_join: 0.1,
        p_leave: 0.3,
        move_radius: 2.0,
        drift: 1.1,
        m: 3,
    },
];

/// One-move streams (no joins, no leaves) on a 10 000-node uniform
/// deployment at side 56.05, an average degree of about 10, at m = 1
/// and m = 2.  [`STREAMS`] have at most 90 nodes, where the damage zone
/// covers most of the giant; here it is a few dozen nodes of 10 000.
const SCALE_STREAMS: [Stream; 2] = [
    Stream {
        seed: 3,
        n: 10_000,
        side: 56.05,
        events: 200,
        p_join: 0.0,
        p_leave: 0.0,
        move_radius: 0.5,
        drift: 1.75,
        m: 1,
    },
    Stream {
        seed: 7,
        n: 10_000,
        side: 56.05,
        events: 200,
        p_join: 0.0,
        p_leave: 0.0,
        move_radius: 0.5,
        drift: 1.75,
        m: 2,
    },
];

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Every report field except `wall`, in declaration order, as one line.
fn render(r: &RepairReport) -> String {
    format!(
        "{} {:?} {} {} {} {} {} {} {} {} {} {:?} {} {} {:016x} {}\n",
        r.seq,
        r.event,
        r.node,
        r.alive,
        r.giant,
        r.nodes_touched,
        r.violations,
        r.dominators_added,
        r.dominators_removed,
        r.connectors_added,
        r.connectors_removed,
        r.decision,
        r.cds_size,
        r.baseline_size,
        r.survival.to_bits(),
        r.valid,
    )
}

/// Runs one stream, folding its reports into `digest` and tallying the
/// recompute reasons `[cold_start, stalled, invalid, drift]`.
fn run(s: &Stream, digest: &mut Fnv, reasons: &mut [usize; 4]) {
    let mut rng = StdRng::seed_from_u64(s.seed);
    let pts: Vec<Point> = (0..s.n)
        .map(|_| Point::new(rng.gen_range(0.0..=s.side), rng.gen_range(0.0..=s.side)))
        .collect();
    let cfg = MaintainConfig {
        drift_threshold: s.drift,
        m: s.m,
        ..MaintainConfig::default()
    };
    let mut engine = Maintainer::with_population(cfg, pts);
    let mut churn = ChurnGen::new(ChurnConfig {
        region: Aabb::square(s.side),
        p_join: s.p_join,
        p_leave: s.p_leave,
        move_radius: s.move_radius,
        min_population: 4,
    });
    for _ in 0..s.events {
        let event = churn.next_event(&mut rng, &engine.alive());
        let report = engine.apply(event);
        digest.write(render(&report).as_bytes());
        if let Some(reason) = report.fallback() {
            reasons[match reason {
                RecomputeReason::ColdStart => 0,
                RecomputeReason::Stalled => 1,
                RecomputeReason::Invalid => 2,
                RecomputeReason::Drift => 3,
            }] += 1;
        }
    }
    digest.write(format!("{:?}\n", engine.backbone()).as_bytes());
}

/// The digest of the 1 250 reports (and six final backbones) of
/// [`STREAMS`], recorded on the engine that rebuilt its unit-disk graph
/// for every event; the resident topology must reproduce it exactly.
const PINNED: u64 = 0x8111_2699_000e_f929;

#[test]
fn report_stream_matches_the_pinned_digest() {
    let mut digest = Fnv::new();
    let mut reasons = [0usize; 4];
    for s in &STREAMS {
        run(s, &mut digest, &mut reasons);
    }
    assert!(
        reasons.iter().all(|&c| c > 0),
        "the streams must hit every recompute reason, got {reasons:?}"
    );
    assert_eq!(
        digest.0, PINNED,
        "the report stream changed: digest {:016x}",
        digest.0
    );
}

/// The digest of the 400 reports (and two final backbones) of
/// [`SCALE_STREAMS`], recorded on the engine whose connector patch
/// rescanned its candidate zone per selection.
const SCALE_PINNED: u64 = 0x5214_bb8e_53d0_d2ae;

#[test]
#[ignore = "10k-node streams; run in release with --include-ignored"]
fn scale_stream_matches_the_pinned_digest() {
    let mut digest = Fnv::new();
    let mut reasons = [0usize; 4];
    for s in &SCALE_STREAMS {
        run(s, &mut digest, &mut reasons);
    }
    assert_eq!(
        digest.0, SCALE_PINNED,
        "the 10k report stream changed: digest {:016x}",
        digest.0
    );
}
