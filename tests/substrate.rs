//! Property tests for the graph substrate split: the CSR and
//! gap-compressed backends must be observationally identical, the varint
//! codec must reject every malformed stream, and the streaming UDG
//! builder must agree with the reference grid build.

use mcds::prelude::*;
use mcds_check::gen::{point_sets, usizes, vecs};
use mcds_check::oracle::oracle_cases;
use mcds_check::{prop_assert, prop_assert_eq, Property, TestResult};
use mcds_graph::codec::{read_varint, write_varint, zigzag_decode, zigzag_encode};
use mcds_graph::{traversal, CompactGraph};

#[test]
fn csr_compact_round_trip() {
    Property::new("csr_compact_round_trip")
        .cases(64)
        .run(&point_sets(0..=120, 5.0), |points| {
            let udg = Udg::build(points.clone());
            let g = udg.graph();
            let c = CompactGraph::from_graph(g);
            prop_assert_eq!(&c.to_graph(), g);
            prop_assert_eq!(c.num_nodes(), g.num_nodes());
            prop_assert_eq!(c.num_edges(), g.num_edges());
            for v in 0..g.num_nodes() {
                prop_assert_eq!(c.degree(v), g.degree(v));
                prop_assert!(
                    c.successors(v).eq(g.neighbors_iter(v)),
                    "successor streams differ at node {v}"
                );
            }
            TestResult::Pass
        });
}

/// The solver configurations the backends must agree under: the plain
/// m = 1 solve, and with prune the (1,1), (1,2) and (2,2) backbones.
const CONFIGS: [(usize, bool, bool); 4] = [
    (1, false, false),
    (1, false, true),
    (2, false, true),
    (2, true, true),
];

/// Solves `g` on the CSR backend and on its compact copy with every
/// algorithm under every [`CONFIGS`] entry (verify on, as `mcds-cli
/// solve` runs), and asserts equal CDSs, `pruned_from` and errors.
/// Returns how many solves failed (on both backends alike).
fn backends_agree(g: &Graph, label: &str) -> Result<usize, String> {
    use mcds::cds::algorithms::Algorithm;
    use mcds::cds::Solver;

    let c = CompactGraph::from_graph(g);
    let mut failed = 0;
    for (m, biconnect, prune) in CONFIGS {
        for alg in Algorithm::ALL {
            let solver = Solver::new(alg)
                .verify(true)
                .prune(prune)
                .m(m)
                .biconnect(biconnect);
            let context = format!("{label}, {alg} m={m} biconnect={biconnect} prune={prune}");
            match (solver.solve(g), solver.solve(&c)) {
                (Ok(a), Ok(b)) => {
                    if (a.cds(), a.pruned_from()) != (b.cds(), b.pruned_from()) {
                        return Err(format!(
                            "{context}: backends disagree ({:?} from {:?} vs {:?} from {:?})",
                            a.nodes(),
                            a.pruned_from(),
                            b.nodes(),
                            b.pruned_from()
                        ));
                    }
                }
                (Err(a), Err(b)) if a == b => failed += 1,
                (a, b) => {
                    return Err(format!(
                        "{context}: backends disagree ({:?} vs {:?})",
                        a.map(|s| s.nodes().to_vec()),
                        b.map(|s| s.nodes().to_vec())
                    ))
                }
            }
        }
    }
    Ok(failed)
}

#[test]
fn solves_agree_across_backends() {
    Property::new("solves_agree_across_backends")
        .cases(48)
        .run(&oracle_cases(14), |case| {
            let udg = Udg::build(case.points.clone());
            let comp = traversal::largest_component(udg.graph());
            let (giant, _) = udg.graph().induced_subgraph(&comp);
            for (g, part) in [(udg.graph(), "whole"), (&giant, "giant")] {
                if let Err(msg) = backends_agree(g, part) {
                    return TestResult::Fail(msg);
                }
            }
            TestResult::Pass
        });
}

/// The instance `mcds-cli gen --n 150 --side 6.5 --seed 23 --connected`
/// writes, on which every algorithm solves at m = 1 and m = 2, with and
/// without `biconnect`: each solve must succeed, alike on both backends.
#[test]
fn cli_instance_solves_alike_on_both_backends() {
    use mcds::rng::rngs::StdRng;
    use mcds::rng::SeedableRng;

    let mut rng = StdRng::seed_from_u64(23);
    let udg = mcds::udg::gen::connected_uniform(&mut rng, 150, 6.5, 100).expect("connected");
    assert_eq!(backends_agree(udg.graph(), "n = 150"), Ok(0));
}

#[test]
fn varint_round_trips_and_zigzag_is_involutive() {
    Property::new("varint_round_trip").cases(256).run(
        &vecs(usizes(0..=usize::MAX), 0..=8),
        |values| {
            let mut bytes = Vec::new();
            for &v in values {
                write_varint(&mut bytes, v as u64);
            }
            let mut pos = 0;
            for &v in values {
                prop_assert_eq!(read_varint(&bytes, &mut pos), Ok(v as u64));
                let delta = v as i64;
                prop_assert_eq!(zigzag_decode(zigzag_encode(delta)), delta);
            }
            prop_assert_eq!(pos, bytes.len());
            TestResult::Pass
        },
    );
}

/// Hostile fuzz: an arbitrary byte stream either decodes to a value whose
/// canonical re-encoding is exactly the consumed prefix, or is rejected
/// with `pos` left at the failed varint — never a panic, never an
/// out-of-bounds read, never a non-canonical acceptance.
#[test]
fn varint_decoder_survives_hostile_bytes() {
    Property::new("varint_hostile_fuzz")
        .cases(512)
        .run(&vecs(usizes(0..=255), 0..=24), |raw| {
            let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
            let mut pos = 0;
            while pos < bytes.len() {
                let start = pos;
                match read_varint(&bytes, &mut pos) {
                    Ok(x) => {
                        prop_assert!(pos > start && pos <= bytes.len());
                        let mut canonical = Vec::new();
                        write_varint(&mut canonical, x);
                        prop_assert!(
                            bytes[start..pos] == canonical[..],
                            "accepted a non-canonical encoding of {x}"
                        );
                    }
                    Err(_) => {
                        prop_assert_eq!(pos, start);
                        break;
                    }
                }
            }
            TestResult::Pass
        });
}

#[test]
fn streaming_build_matches_grid_build() {
    Property::new("streaming_build_matches_grid_build")
        .cases(48)
        .run(&point_sets(0..=150, 6.0), |points| {
            let streamed = mcds::udg::stream_build(points.clone(), 1.0);
            let csr = Udg::with_radius(streamed.points().to_vec(), 1.0);
            prop_assert_eq!(&streamed.graph().to_graph(), csr.graph());
            prop_assert_eq!(
                streamed.graph().num_edges(),
                Udg::build(points.clone()).graph().num_edges()
            );
            TestResult::Pass
        });
}
