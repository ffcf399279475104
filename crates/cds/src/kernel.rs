//! Hot-path kernel selection — scalar adjacency loops vs. the
//! word-parallel bitset kernels of [`mcds_graph::bitgraph`].
//!
//! The connector phase and the prune post-pass each exist in two
//! implementations that produce **byte-identical output** (proven by
//! `tests/kernel_equiv.rs`):
//!
//! * **Scalar** — the original adjacency-list loops, cheapest below a few
//!   hundred nodes where setup cost dominates,
//! * **Bitset** — incremental algorithms over [`bitgraph::BitSet`] masks
//!   (cover counts plus one up-front masked Tarjan pass kept valid by
//!   local cut-vertex certificates for prune, a lazy bucket queue for
//!   connectors), with packed [`bitgraph::BitRows`] adjacency used
//!   underneath while the row storage stays small
//!   ([`ROWS_MAX_NODES`]; above it the same algorithms run row-free —
//!   sparse UDG rows would be mostly padding).
//!
//! Selection order: programmatic override (tests, benches) → the
//! `MCDS_KERNEL` environment variable (`scalar` | `bitset` | `auto`,
//! used by `verify.sh` to diff forced kernels across processes) → the
//! [`SCALAR_MAX_NODES`] size threshold.

use std::sync::atomic::{AtomicU8, Ordering};

use mcds_graph::bitgraph::BitRows;
use mcds_graph::RandomAccessGraph;

/// Which implementation of a rewritten hot path to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Original adjacency-list loops.
    Scalar,
    /// Incremental word-parallel bitset kernels.
    Bitset,
}

/// Below or at this node count, `auto` selection stays scalar: the
/// bitset kernels' setup (packed rows, cover counts, bucket queue) costs
/// more than the graphs they would accelerate.
pub const SCALAR_MAX_NODES: usize = 512;

/// Packed adjacency rows are materialized only up to this node count
/// (≤ 8 MiB of rows); larger graphs run the same bitset algorithms
/// row-free over the backend's successor iterators, where a sparse row
/// scan would touch `⌈n/64⌉` words to find a handful of neighbors.
pub const ROWS_MAX_NODES: usize = 8192;

const OVERRIDE_NONE: u8 = 0;
const OVERRIDE_SCALAR: u8 = 1;
const OVERRIDE_BITSET: u8 = 2;

static OVERRIDE: AtomicU8 = AtomicU8::new(OVERRIDE_NONE);

/// Forces every subsequent [`select`] in this process to the given
/// kernel (or restores automatic selection with `None`).
///
/// In-process alternative to the `MCDS_KERNEL` environment variable for
/// benches and tests: mutating the environment is not thread-safe, a
/// relaxed atomic is.
pub fn set_override(kernel: Option<Kernel>) {
    let v = match kernel {
        None => OVERRIDE_NONE,
        Some(Kernel::Scalar) => OVERRIDE_SCALAR,
        Some(Kernel::Bitset) => OVERRIDE_BITSET,
    };
    OVERRIDE.store(v, Ordering::Relaxed);
}

/// The kernel to use for an `n`-node graph (override → env → threshold).
///
/// # Panics
///
/// Panics if `MCDS_KERNEL` is set to something other than
/// `scalar` / `bitset` / `auto`.
pub fn select(n: usize) -> Kernel {
    match OVERRIDE.load(Ordering::Relaxed) {
        OVERRIDE_SCALAR => return Kernel::Scalar,
        OVERRIDE_BITSET => return Kernel::Bitset,
        _ => {}
    }
    match std::env::var("MCDS_KERNEL") {
        Ok(s) => match s.as_str() {
            "scalar" => Kernel::Scalar,
            "bitset" => Kernel::Bitset,
            "auto" | "" => auto(n),
            other => panic!("MCDS_KERNEL must be scalar|bitset|auto, got {other:?}"),
        },
        Err(_) => auto(n),
    }
}

fn auto(n: usize) -> Kernel {
    if n <= SCALAR_MAX_NODES {
        Kernel::Scalar
    } else {
        Kernel::Bitset
    }
}

/// Packed rows for `g` if it is small enough to afford them.
pub(crate) fn maybe_rows<G: RandomAccessGraph>(g: &G) -> Option<BitRows> {
    (g.num_nodes() <= ROWS_MAX_NODES).then(|| BitRows::build(g))
}

/// Visits `N(v)` in ascending order through packed rows when available,
/// falling back to the backend's sorted successor iterator.
pub(crate) fn for_each_neighbor<G: RandomAccessGraph, F: FnMut(usize)>(
    g: &G,
    rows: Option<&BitRows>,
    v: usize,
    f: F,
) {
    match rows {
        Some(r) => r.for_each_one(v, f),
        None => g.successors(v).for_each(f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_thresholds_and_override() {
        // Note: relies on MCDS_KERNEL being unset under `cargo test`.
        assert_eq!(select(SCALAR_MAX_NODES), Kernel::Scalar);
        assert_eq!(select(SCALAR_MAX_NODES + 1), Kernel::Bitset);
        set_override(Some(Kernel::Scalar));
        assert_eq!(select(1_000_000), Kernel::Scalar);
        set_override(Some(Kernel::Bitset));
        assert_eq!(select(4), Kernel::Bitset);
        set_override(None);
        assert_eq!(select(4), Kernel::Scalar);
    }

    #[test]
    fn rows_policy_follows_threshold() {
        let small = mcds_graph::Graph::path(16);
        assert!(maybe_rows(&small).is_some());
    }
}
