//! Backbone-as-a-service: a zero-dependency JSONL-over-TCP daemon that
//! keeps a [`mcds_maintain::Maintainer`] resident in memory and answers
//! solve / churn / query / metrics requests over it.
//!
//! One JSON object per line in each direction (see [`proto`] for the
//! schema).  The daemon's two load-bearing properties:
//!
//! * **Byte-identical solves** — a `solve` request parses into the
//!   [`mcds_cds::Solver`] the batch CLI builds from the same flags, and
//!   both render through [`proto::render_solve`], so `scripts/verify.sh`
//!   can `diff` the daemon's answer against `mcds-cli solve --json`.
//! * **Interleaving-invariant churn** — events queue and are admitted in
//!   batches per *tick*, sorted into a canonical order first, so the
//!   resident state after each tick is independent of which client's
//!   events arrived first (DESIGN.md §8 over the wire).
//!
//! The crate splits into [`proto`] (request parsing over the strict
//! [`mcds_obs::json`] value model + fixed-field-order response
//! rendering), [`server`] (the daemon: `mcds-pool` workers, one
//! mutex-guarded engine), and [`client`] (blocking client + the load
//! generator behind E21).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod proto;
pub mod server;

pub use client::{run_load, Client, LoadConfig, LoadReport};
pub use server::{ServeConfig, Server};
