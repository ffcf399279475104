//! Network-wide broadcast with a designated relay set — the application
//! a CDS backbone exists for.
//!
//! A source transmits once; every node that hears the message for the
//! first time re-transmits iff it belongs to the relay set.  With the
//! relay set = all nodes this is blind flooding; with a CDS backbone it
//! delivers to every node (domination) while only backbone nodes spend
//! energy (the backbone's connectivity carries the message everywhere).

use crate::{Node, NodeCtx, Outgoing};

/// Per-node state of the relay broadcast.
#[derive(Debug, Clone)]
pub struct RelayBroadcast {
    is_source: bool,
    is_relay: bool,
    heard: bool,
}

impl RelayBroadcast {
    /// Creates the state for one node.
    ///
    /// The source always transmits its own message, whether or not it is
    /// in the relay set.
    pub fn new(is_source: bool, is_relay: bool) -> Self {
        RelayBroadcast {
            is_source,
            is_relay,
            heard: is_source,
        }
    }

    /// Whether this node has received the broadcast.
    pub fn heard(&self) -> bool {
        self.heard
    }
}

impl Node for RelayBroadcast {
    type Msg = ();

    fn on_init(&mut self, _ctx: &NodeCtx<'_>) -> Vec<Outgoing<()>> {
        if self.is_source {
            vec![Outgoing::Broadcast(())]
        } else {
            Vec::new()
        }
    }

    fn on_round(
        &mut self,
        _round: u64,
        inbox: &[(usize, ())],
        _ctx: &NodeCtx<'_>,
    ) -> Vec<Outgoing<()>> {
        if !inbox.is_empty() && !self.heard {
            self.heard = true;
            if self.is_relay {
                return vec![Outgoing::Broadcast(())];
            }
        }
        Vec::new()
    }
}

/// Outcome of a broadcast run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BroadcastOutcome {
    /// How many nodes received the message.
    pub reached: usize,
    /// Simulator statistics (transmissions = energy spent).
    pub stats: crate::SimStats,
}

/// Runs a broadcast from `source` where only `relays` (plus the source)
/// re-transmit, and reports coverage and cost.
///
/// # Errors
///
/// Propagates simulator errors (cannot occur for this protocol on valid
/// inputs).
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn run_broadcast(
    g: &mcds_graph::Graph,
    source: usize,
    relays: &[usize],
) -> Result<BroadcastOutcome, crate::SimError> {
    assert!(source < g.num_nodes(), "source out of range");
    let relay_mask = mcds_graph::node_mask(g.num_nodes(), relays);
    let mut nodes: Vec<RelayBroadcast> = (0..g.num_nodes())
        .map(|v| RelayBroadcast::new(v == source, relay_mask[v]))
        .collect();
    let stats = crate::Simulator::new().run(g, &mut nodes)?;
    Ok(BroadcastOutcome {
        reached: nodes.iter().filter(|n| n.heard()).count(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_cds::{Algorithm, Solver};
    use mcds_graph::Graph;

    fn greedy(g: &Graph) -> Vec<usize> {
        let solution = Solver::new(Algorithm::GreedyConnect).solve(g).unwrap();
        solution.nodes().to_vec()
    }

    #[test]
    fn flooding_reaches_everyone_and_costs_n() {
        let g = Graph::cycle(10);
        let all: Vec<usize> = (0..10).collect();
        let out = run_broadcast(&g, 3, &all).unwrap();
        assert_eq!(out.reached, 10);
        // Every node transmits exactly once.
        assert_eq!(out.stats.transmissions, 10);
    }

    #[test]
    fn backbone_broadcast_reaches_everyone_cheaper() {
        let g = Graph::path(20);
        let backbone = greedy(&g);
        let all: Vec<usize> = (0..20).collect();
        let flood = run_broadcast(&g, 0, &all).unwrap();
        let cds = run_broadcast(&g, 0, &backbone).unwrap();
        assert_eq!(flood.reached, 20);
        assert_eq!(cds.reached, 20, "CDS relaying must still cover everyone");
        assert!(cds.stats.transmissions <= flood.stats.transmissions);
    }

    #[test]
    fn broadcast_from_every_source_covers_with_cds() {
        let g = Graph::cycle(12);
        let backbone = greedy(&g);
        for s in 0..12 {
            let out = run_broadcast(&g, s, &backbone).unwrap();
            assert_eq!(out.reached, 12, "source {s}");
        }
    }

    #[test]
    fn empty_relay_set_reaches_only_neighbors() {
        let g = Graph::path(5);
        let out = run_broadcast(&g, 2, &[]).unwrap();
        // Source + its two neighbors.
        assert_eq!(out.reached, 3);
        assert_eq!(out.stats.transmissions, 1);
    }

    #[test]
    fn rounds_track_relay_path_length() {
        let g = Graph::path(15);
        let all: Vec<usize> = (0..15).collect();
        let out = run_broadcast(&g, 0, &all).unwrap();
        // Message crosses 14 hops; +1 quiescence round tolerance.
        assert!(out.stats.rounds >= 14 && out.stats.rounds <= 16);
    }
}
