//! Exact solvers and lower bounds for the optimization problems the paper
//! reasons about: the independence number `α(G)`, the domination number
//! `γ(G)`, and the connected domination number `γ_c(G)`.
//!
//! The paper's results are *relative* guarantees (`|CDS| ≤ 7⅓·γ_c`, `α ≤
//! 11/3·γ_c + 1`), so reproducing its claims empirically requires the
//! right-hand sides: this crate computes them exactly on instances small
//! enough for branch & bound, and bounds them from below otherwise.
//!
//! * [`max_independent_set`] — B&B with greedy-clique-cover bounding
//!   (practical to n ≈ 120 on sparse UDGs; hard caps at 128 nodes),
//! * [`min_dominating_set`] — B&B branching on the closed neighborhood of
//!   an uncovered vertex,
//! * [`min_connected_dominating_set`] — iterative deepening over the CDS
//!   size with domination-based pruning,
//! * [`min_12cds`] — exact minimum (1,2)-CDS (connected, 2-fold
//!   dominating) for the fault-tolerant backbone family (n ≈ 16): the
//!   same search as γ_c's, for a connected set every outside node sees
//!   twice,
//! * [`is_m_dominating`] / [`is_biconnected`] — the m-fold domination
//!   and 2-connectivity ground-truth checkers the differential suite
//!   verifies fault-tolerant backbones against,
//! * [`brute`] — exhaustive `O(2ⁿ)` reference solvers for cross-checks,
//! * budgeted variants (`try_*`) that abandon the search after a step
//!   limit, for use inside experiment sweeps.
//!
//! # Example
//!
//! ```
//! use mcds_graph::Graph;
//! use mcds_exact::{independence_number, connected_domination_number};
//!
//! let g = Graph::cycle(9);
//! assert_eq!(independence_number(&g), 4);
//! assert_eq!(connected_domination_number(&g), Some(7)); // γ_c(C_n) = n − 2
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod domination;
mod fault;
mod independence;

pub mod brute;

pub use domination::{
    connected_domination_number, domination_number, min_connected_dominating_set,
    min_dominating_set, try_min_connected_dominating_set, try_min_dominating_set,
};
pub use fault::{is_biconnected, is_m_dominating, min_12cds, try_min_12cds};
pub use independence::{independence_number, max_independent_set, try_max_independent_set};

/// Default step budget for the `try_*` solvers used in experiment sweeps:
/// generous enough for the instance sizes the harness generates, small
/// enough to keep a sweep bounded.
pub const DEFAULT_BUDGET: u64 = 50_000_000;
