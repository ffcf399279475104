//! Two-phased connected-dominating-set algorithms — the core contribution
//! of *"Two-Phased Approximation Algorithms for Minimum CDS in Wireless Ad
//! Hoc Networks"* (Wan, Wang & Yao, ICDCS 2008).
//!
//! Every construction runs through one configurable builder, [`Solver`]:
//! pick an [`Algorithm`], optionally a root, pruning, verification or a
//! fault-tolerant level, and call [`Solver::solve`].  Both of the paper's
//! algorithms first elect the BFS-ordered first-fit MIS of
//! [`mcds_mis::BfsMis`] as the *dominator* set, then differ in how they
//! select *connectors*:
//!
//! * [`Algorithm::WafTree`] — the algorithm of Wan–Alzoubi–Frieder \[10\]
//!   as analyzed in the paper's Section III: one special neighbor `s` of
//!   the root plus the BFS-tree parents of the dominators `s` does not
//!   cover.  Approximation ratio at most **7⅓** (Theorem 8).
//! * [`Algorithm::GreedyConnect`] — the paper's new Section-IV algorithm:
//!   connectors are chosen greedily by maximum *gain* (the drop in the
//!   number of connected components of `G[I ∪ C]`).  Approximation ratio
//!   at most **6 7/18** (Theorem 10).
//!
//! The baselines the paper positions itself against are here too:
//!
//! * [`Algorithm::ChvatalSetCover`] — phase 1 by Chvátal's greedy Set
//!   Cover \[2\] (logarithmic ratio), connected by shortest-path
//!   connectors,
//! * [`Algorithm::ArbitraryMis`] — an arbitrary (lexicographic) MIS
//!   \[1\]/\[9\] with max-gain connectors,
//! * [`Algorithm::GreedyGrowth`] — the classic single-phase
//!   Guha–Khuller-style greedy grow,
//!
//! plus a validity-preserving [`prune`] post-pass (an extension beyond the
//! paper), the generic connector routines in [`connect`] — both run
//! incremental word-parallel bitset kernels, diffed against the original
//! scalar loops kept as test oracles —
//! backbone-routing stretch measurement in [`routing`], and the
//! fault-tolerant `(k,m)` backbone family in [`fault`] — m-fold
//! domination and 2-connectivity augmentation reachable through
//! [`Solver::m`] and [`Solver::biconnect`], on the same kernels (its
//! replaced loops are the oracles of `tests/fault_equiv.rs`).
//!
//! # Example
//!
//! ```
//! use mcds_graph::{Graph, properties};
//! use mcds_cds::{Algorithm, Solver};
//!
//! let g = Graph::path(9);
//! let greedy = Solver::new(Algorithm::GreedyConnect).verify(true).solve(&g)?;
//! let waf = Solver::new(Algorithm::WafTree).solve(&g)?;
//! assert!(properties::is_connected_dominating_set(&g, waf.nodes()));
//! assert!(greedy.len() >= 7); // γ_c(P9) = 7
//! assert!(greedy.len() <= waf.len() + 1); // typically smaller
//! assert_eq!(greedy.algorithm(), Algorithm::GreedyConnect);
//! # Ok::<(), mcds_cds::CdsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod growth;
mod result;
mod setcover;
mod solver;
mod waf;

pub mod accounting;
pub mod algorithms;
pub mod connect;
pub mod fault;
pub mod prune;
pub mod routing;

pub use algorithms::{parse_selector, Algorithm, UnknownAlgorithm};
pub use error::CdsError;
pub use fault::{m_fold_dominators, UnknownWeightScheme, WeightScheme};
pub use mcds_graph::CdsViolation;
pub use result::{check_cds, Cds};
pub use setcover::chvatal_dominating_set;
pub use solver::{PhaseTimings, Solution, Solver};
