//! The anatomy of Theorem 10: the proof's connector accounting, made
//! executable.
//!
//! The paper bounds the Section-IV greedy connectors by splitting the
//! selection sequence `C` into three contiguous pieces by
//! component-count thresholds:
//!
//! * `C₁` — the shortest prefix with `q(C₁) ≤ ⌊11γ_c/3⌋ − 3`
//!   (shown: `|C₁| ≤ 1`),
//! * `C₂` — continue until `q(C₁ ∪ C₂) ≤ 2γ_c + 1`
//!   (shown: `|C₂| ≤ 13γ_c/18 − 1`),
//! * `C₃` — the rest (shown: `|C₃| ≤ 2γ_c − 1`),
//!
//! summing to `6 7/18·γ_c` together with `|I| ≤ ⌊11γ_c/3⌋ + 1`.
//!
//! [`greedy_accounting`] records the exact component-count trace of a
//! greedy run, and [`GreedyAccounting::split`] reproduces the proof's
//! decomposition against a known `γ_c`, so experiments can verify each
//! *internal* inequality of the proof — not just the final bound —
//! instance by instance (experiment E16).

use mcds_graph::{node_mask, subsets, Graph};
use mcds_mis::BfsMis;

use crate::{connect, CdsError};

/// A greedy run with its full component-count trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GreedyAccounting {
    /// Size of the phase-1 MIS (`|I|`).
    pub mis_size: usize,
    /// Connectors in selection order.
    pub connectors: Vec<usize>,
    /// `q_trace[i]` = number of components of `G[I ∪ C_{<i}]` before the
    /// `i`-th connector is added; the final entry is the terminal count
    /// (1 on success).  Length = `connectors.len() + 1`.
    pub q_trace: Vec<usize>,
}

/// The proof's three-piece split of the connector sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSplit {
    /// `|C₁|` — connectors spent reaching `q ≤ ⌊11γ_c/3⌋ − 3`.
    pub c1: usize,
    /// `|C₂|` — connectors spent reaching `q ≤ 2γ_c + 1`.
    pub c2: usize,
    /// `|C₃|` — connectors spent reaching `q = 1`.
    pub c3: usize,
}

impl GreedyAccounting {
    /// Reproduces the proof's decomposition for a given `γ_c`.
    ///
    /// For `γ_c = 1` the first threshold `⌊11γ_c/3⌋ − 3` is 0, which no
    /// component count reaches, so every connector is attributed to `C₁`
    /// — consistent with the paper, whose Theorem-10 proof handles
    /// `γ_c = 1` as a separate trivial case ([`GreedyAccounting::check`]
    /// likewise only enforces the piece bounds for `γ_c ≥ 2`).
    ///
    /// # Panics
    ///
    /// Panics if `gamma_c == 0`.
    pub fn split(&self, gamma_c: usize) -> PhaseSplit {
        assert!(gamma_c >= 1, "γ_c is at least 1 on non-empty graphs");
        let t1 = ((11 * gamma_c) / 3).saturating_sub(3); // ⌊11γc/3⌋ − 3
        let t2 = 2 * gamma_c + 1;
        // Position after which q first dips to ≤ t: number of connectors
        // consumed.  q_trace[i] is q before connector i; q_trace[k] for
        // k = len(connectors) is terminal.
        let spent_until = |t: usize| -> usize {
            self.q_trace
                .iter()
                .position(|&q| q <= t)
                .unwrap_or(self.connectors.len())
        };
        let c1_end = spent_until(t1);
        let c2_end = spent_until(t2).max(c1_end);
        let total = self.connectors.len();
        PhaseSplit {
            c1: c1_end,
            c2: c2_end - c1_end,
            c3: total - c2_end,
        }
    }

    /// The proof's per-piece bounds for a given `γ_c`, as
    /// `(c1_bound, c2_bound, c3_bound)`.
    ///
    /// `|C₁| ≤ 1`; `|C₂| ≤ 13γ_c/18 − 1` (only relevant for `γ_c > 2`;
    /// the proof shows `C₂ = ∅` otherwise, so we report 0 there);
    /// `|C₃| ≤ 2γ_c − 1`.
    pub fn proof_bounds(gamma_c: usize) -> (f64, f64, f64) {
        let c1 = 1.0;
        let c2 = if gamma_c > 2 {
            13.0 * gamma_c as f64 / 18.0 - 1.0
        } else {
            0.0
        };
        let c3 = 2.0 * gamma_c as f64 - 1.0;
        (c1, c2, c3)
    }

    /// Checks every internal inequality of the Theorem-10 proof against
    /// a known `γ_c`; returns the first violation as
    /// [`CdsError::BoundViolated`] naming the violated piece.
    ///
    /// # Errors
    ///
    /// [`CdsError::BoundViolated`] with the violated inequality.
    pub fn check(&self, gamma_c: usize) -> Result<PhaseSplit, CdsError> {
        let split = self.split(gamma_c);
        let (b1, b2, b3) = Self::proof_bounds(gamma_c);
        // |I| ≤ ⌊11γc/3⌋ + 1 (Corollary 7).
        let i_bound = (11 * gamma_c) / 3 + 1;
        if gamma_c >= 2 && self.mis_size > i_bound {
            return Err(CdsError::BoundViolated(format!(
                "|I| = {} exceeds ⌊11γ_c/3⌋ + 1 = {i_bound}",
                self.mis_size
            )));
        }
        if gamma_c >= 2 {
            if (split.c1 as f64) > b1 + 1e-9 {
                return Err(CdsError::BoundViolated(format!(
                    "|C1| = {} exceeds {b1}",
                    split.c1
                )));
            }
            if (split.c2 as f64) > b2 + 1e-9 {
                return Err(CdsError::BoundViolated(format!(
                    "|C2| = {} exceeds {b2:.3}",
                    split.c2
                )));
            }
            if (split.c3 as f64) > b3 + 1e-9 {
                return Err(CdsError::BoundViolated(format!(
                    "|C3| = {} exceeds {b3}",
                    split.c3
                )));
            }
        }
        Ok(split)
    }
}

/// Runs the Section-IV greedy construction while recording the
/// component-count trace the Theorem-10 proof reasons about.
///
/// ```
/// use mcds_graph::Graph;
/// use mcds_cds::accounting::greedy_accounting;
/// let g = Graph::path(12);
/// let acc = greedy_accounting(&g, 0)?;
/// assert_eq!(acc.q_trace[0], acc.mis_size);        // starts at |I| components
/// assert_eq!(*acc.q_trace.last().unwrap(), 1);     // ends connected
/// let split = acc.split(10);                       // γ_c(P12) = 10
/// assert_eq!(split.c1 + split.c2 + split.c3, acc.connectors.len());
/// # Ok::<(), mcds_cds::CdsError>(())
/// ```
///
/// # Errors
///
/// * [`CdsError::EmptyGraph`] if `g` has no nodes,
/// * [`CdsError::DisconnectedGraph`] if `g` is disconnected.
///
/// # Panics
///
/// Panics if `root` is out of range.
pub fn greedy_accounting(g: &Graph, root: usize) -> Result<GreedyAccounting, CdsError> {
    if g.num_nodes() == 0 {
        return Err(CdsError::EmptyGraph);
    }
    if !g.is_connected() {
        return Err(CdsError::DisconnectedGraph);
    }
    let mis = BfsMis::compute(g, root).mis().to_vec();
    let connectors = connect::max_gain_connectors(g, &mis)?;
    // Recompute the q trace over the selection order.
    let mut mask = node_mask(g.num_nodes(), &mis);
    let mut q_trace = Vec::with_capacity(connectors.len() + 1);
    q_trace.push(subsets::count_components(g, &mask));
    for &w in &connectors {
        mask[w] = true;
        q_trace.push(subsets::count_components(g, &mask));
    }
    Ok(GreedyAccounting {
        mis_size: mis.len(),
        connectors,
        q_trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_exact::connected_domination_number;

    #[test]
    fn trace_starts_at_mis_and_ends_at_one() {
        let g = Graph::path(20);
        let acc = greedy_accounting(&g, 0).unwrap();
        assert_eq!(acc.q_trace[0], acc.mis_size);
        assert_eq!(*acc.q_trace.last().unwrap(), 1);
        assert_eq!(acc.q_trace.len(), acc.connectors.len() + 1);
        // q is strictly decreasing (every connector has gain ≥ 1).
        for w in acc.q_trace.windows(2) {
            assert!(w[1] < w[0]);
        }
    }

    #[test]
    fn proof_bounds_hold_on_exactly_solved_families() {
        for g in [
            Graph::path(9),
            Graph::path(14),
            Graph::cycle(12),
            Graph::cycle(15),
        ] {
            let gamma_c = connected_domination_number(&g).expect("connected");
            let acc = greedy_accounting(&g, 0).unwrap();
            let split = acc.check(gamma_c).unwrap_or_else(|e| panic!("{g:?}: {e}"));
            assert_eq!(
                split.c1 + split.c2 + split.c3,
                acc.connectors.len(),
                "{g:?}: split must partition the sequence"
            );
        }
    }

    #[test]
    fn split_respects_thresholds() {
        // Synthetic trace: q = [10, 7, 5, 3, 1] with γ_c = 3:
        // t1 = ⌊33/3⌋ − 3 = 8 -> C1 ends at first q ≤ 8 (index 1 -> |C1| = 1);
        // t2 = 7 -> first q ≤ 7 is also index 1 -> |C2| = 0; |C3| = 3.
        let acc = GreedyAccounting {
            mis_size: 10,
            connectors: vec![101, 102, 103, 104],
            q_trace: vec![10, 7, 5, 3, 1],
        };
        let split = acc.split(3);
        assert_eq!(
            split,
            PhaseSplit {
                c1: 1,
                c2: 0,
                c3: 3
            }
        );
    }

    #[test]
    fn check_flags_violations() {
        // Fabricated impossible accounting: far too many connectors for
        // the claimed γ_c.
        let acc = GreedyAccounting {
            mis_size: 8,
            connectors: (0..30).collect(),
            q_trace: (1..=31).rev().collect(),
        };
        assert!(acc.check(2).is_err());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_gamma_panics() {
        let acc = GreedyAccounting {
            mis_size: 1,
            connectors: vec![],
            q_trace: vec![1],
        };
        let _ = acc.split(0);
    }
}
