//! Maximal-independent-set machinery for the two-phased CDS algorithms.
//!
//! Phase 1 of both algorithms in the paper (the WAF algorithm of Section
//! III and the new greedy algorithm of Section IV) selects a maximal
//! independent set (MIS) *"in the first-fit manner in the
//! breadth-first-search ordering"* of a rooted spanning tree.  This crate
//! implements that selection ([`first_fit`], [`BfsMis`]) together with the
//! comparison MIS of the arbitrary-MIS baseline, and the geometric
//! machinery of the paper's Sections II and V:
//!
//! * [`first_fit`] / [`BfsMis`] — the canonical BFS-ordered first-fit MIS
//!   with the 2-hop separation property (used by Lemma 9),
//! * [`variants`] — the lexicographic first-fit MIS of the arbitrary-MIS
//!   baseline of \[1\]/\[9\],
//! * [`stars`] — stars and the constructive star-decomposition of
//!   Lemma 4,
//! * [`packing`] — `I(u)`, `I(S)` and the Theorem 3 / Theorem 6 bound
//!   oracles over point sets,
//! * [`constructions`] — the tightness instances of Figures 1 and 2
//!   (8 points around a 2-star, 12 around a 3-star, `3(n+1)` around an
//!   `n`-chain),
//! * [`bounds`] — the numeric constants of the paper
//!   (`α ≤ 11/3·γ_c + 1`, ratio bounds `7⅓` and `6 7/18`, and the prior
//!   bounds they improve).
//!
//! # Example
//!
//! ```
//! use mcds_graph::{Graph, properties};
//! use mcds_mis::BfsMis;
//!
//! let g = Graph::path(7);
//! let result = BfsMis::compute(&g, 0);
//! assert!(properties::is_maximal_independent_set(&g, result.mis()));
//! assert!(properties::has_two_hop_separation(&g, result.mis()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod firstfit;

pub mod bounds;
pub mod constructions;
pub mod lemmas;
pub mod packing;
pub mod stars;
pub mod variants;

pub use firstfit::{first_fit, BfsMis};
