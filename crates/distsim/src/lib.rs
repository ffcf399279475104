//! Synchronous message-passing simulator for wireless ad hoc protocols.
//!
//! The algorithms of the paper are *distributed* algorithms: the
//! evaluation model of the surrounding literature measures them in
//! synchronous rounds and (local-broadcast) transmissions.  This crate
//! provides that execution model and the distributed realization of the
//! paper's pipeline:
//!
//! * [`Simulator`] — a synchronous round-driven runtime over a
//!   communication topology, with wireless accounting (a local broadcast
//!   costs one transmission) and optional deterministic per-message
//!   delays for asynchrony stress tests,
//! * [`protocols::FloodBfs`] — leader election + BFS-tree construction by
//!   min-id flooding (phase 0: elects the root and gives every node its
//!   level and canonical parent),
//! * [`protocols::MisElection`] — rank-based first-fit MIS election,
//!   provably equal to the centralized [`mcds_mis::BfsMis`] selection,
//! * [`protocols::WafConnectors`] — the WAF connector phase of Section
//!   III as a constant-round synchronous protocol,
//! * [`pipeline::run_waf_distributed`] — the three phases composed; its
//!   output CDS equals the centralized
//!   [`Algorithm::WafTree`](mcds_cds::Algorithm::WafTree) solve rooted
//!   at the elected leader, and its [`pipeline::DistributedRun`] carries
//!   per-phase round/transmission counts (experiment E7),
//! * [`protocols::LubyMis`] — Luby's randomized MIS, the classic
//!   diameter-independent alternative to the rank-based election (E15),
//! * [`protocols::run_broadcast`] — relay broadcast over a backbone, the
//!   motivating application (E12),
//! * [`protocols::run_verify_cds`] — distributed self-verification of a
//!   backbone (domination locally, connectivity by min-originator token
//!   flooding).
//!
//! The paper's Section-IV greedy connector rule needs global component
//! counts and is presented centrally; we do not distribute it (see
//! DESIGN.md §2).
//!
//! # Example
//!
//! ```
//! use mcds_graph::Graph;
//! use mcds_distsim::pipeline::run_waf_distributed;
//!
//! let g = Graph::path(9);
//! let run = run_waf_distributed(&g).unwrap();
//! assert!(mcds_graph::properties::is_connected_dominating_set(&g, run.cds.nodes()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod runtime;

pub mod pipeline;
pub mod protocols;

pub use runtime::{Node, NodeCtx, Outgoing, SimError, SimStats, Simulator};
