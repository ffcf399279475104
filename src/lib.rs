//! # mcds — Minimum Connected Dominating Sets in Wireless Ad Hoc Networks
//!
//! A faithful, full-stack reproduction of
//!
//! > Peng-Jun Wan, Lixin Wang, Frances Yao,
//! > *"Two-Phased Approximation Algorithms for Minimum CDS in Wireless Ad
//! > Hoc Networks"*, ICDCS 2008.
//!
//! The paper studies **connected dominating sets** (CDS) — the standard
//! virtual-backbone abstraction for wireless ad hoc networks — on
//! **unit-disk graphs** (UDGs), and contributes: a tighter packing bound
//! `α(G) ≤ 3⅔·γ_c(G) + 1` (Corollary 7); an improved `7⅓` approximation
//! ratio for the classic Wan–Alzoubi–Frieder two-phased algorithm
//! (Theorem 8); and a new two-phased algorithm with greedy connector
//! selection whose ratio is at most `6 7/18` (Theorem 10).
//!
//! This facade re-exports the workspace crates:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`geom`] | `mcds-geom` | points, unit disks, bounding boxes, packing predicates |
//! | [`graph`] | `mcds-graph` | CSR graphs, BFS trees, union–find, CDS/MIS predicates |
//! | [`udg`] | `mcds-udg` | unit-disk-graph model, instance generators, I/O |
//! | [`mis`] | `mcds-mis` | first-fit MIS, star decompositions, packing bounds, Fig. 1/2 constructions |
//! | [`cds`] | `mcds-cds` | the two-phased algorithms and baselines |
//! | [`exact`] | `mcds-exact` | exact `α`, `γ`, `γ_c` solvers |
//! | [`distsim`] | `mcds-distsim` | synchronous protocol simulator, distributed WAF |
//! | [`viz`] | `mcds-viz` | SVG rendering of instances, backbones and the paper's figures |
//! | [`maintain`] | `mcds-maintain` | dynamic CDS maintenance under churn |
//! | [`obs`] | `mcds-obs` | zero-dep tracing, counters/histograms, JSONL profiling |
//! | [`rng`] | `mcds-rng` | zero-dependency seeded PRNG (hermetic builds) |
//! | [`check`] | `mcds-check` | in-tree property testing: generators, shrinking, corpus, differential oracle |
//!
//! # Quickstart
//!
//! ```
//! use mcds::prelude::*;
//! use mcds_rng::{rngs::StdRng, SeedableRng};
//!
//! // Deploy 60 sensors uniformly in a 4×4 field (unit radio range).
//! let mut rng = StdRng::seed_from_u64(7);
//! let udg = mcds::udg::gen::connected_uniform(&mut rng, 60, 4.0, 100)
//!     .expect("dense deployments are connected");
//!
//! // Build the virtual backbone with the paper's 6 7/18-approximation.
//! let backbone = Solver::new(Algorithm::GreedyConnect).solve(udg.graph())?;
//! assert!(backbone.cds().verify(udg.graph()).is_ok());
//!
//! // Compare with the classic WAF 7 1/3-approximation.
//! let waf = Solver::new(Algorithm::WafTree).solve(udg.graph())?;
//! println!("greedy: {} nodes, waf: {} nodes", backbone.len(), waf.len());
//! # Ok::<(), mcds::cds::CdsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod paper;

/// The README's Rust examples, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

/// The tutorial's Rust examples, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../docs/TUTORIAL.md")]
struct TutorialDoctests;

pub use mcds_cds as cds;
pub use mcds_check as check;
pub use mcds_distsim as distsim;
pub use mcds_exact as exact;
pub use mcds_geom as geom;
pub use mcds_graph as graph;
pub use mcds_maintain as maintain;
pub use mcds_mis as mis;
pub use mcds_obs as obs;
pub use mcds_rng as rng;
pub use mcds_udg as udg;
pub use mcds_viz as viz;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use mcds_cds::{Algorithm, Cds, CdsError, Solution, Solver};
    pub use mcds_geom::Point;
    pub use mcds_graph::{properties, Graph};
    pub use mcds_mis::BfsMis;
    pub use mcds_udg::Udg;
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reaches_every_crate() {
        use crate::prelude::*;
        let g = Graph::path(5);
        let cds = Solver::new(Algorithm::GreedyConnect).solve(&g).unwrap();
        assert!(properties::is_connected_dominating_set(&g, cds.nodes()));
        let _alpha = crate::exact::independence_number(&g);
        let _phi = crate::geom::packing::phi(2);
        let _c = crate::mis::constructions::fig1_two_star(0.02);
        let udg = Udg::build(vec![Point::new(0.0, 0.0)]);
        assert_eq!(udg.len(), 1);
        use crate::rng::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1);
        let _u: f64 = rng.gen();
        let engine = crate::maintain::Maintainer::with_population(
            crate::maintain::MaintainConfig::default(),
            vec![Point::new(0.0, 0.0)],
        );
        assert_eq!(engine.backbone().len(), 1);
    }
}
