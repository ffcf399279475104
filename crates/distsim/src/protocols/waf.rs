//! The WAF connector phase (paper Section III) as a constant-round
//! synchronous protocol.
//!
//! Inputs (from the flooding and MIS phases): the elected root, each
//! node's dominator flag and canonical parent.  Schedule, in shared
//! synchronous rounds:
//!
//! | round | action |
//! |-------|--------|
//! | init  | dominators broadcast `IamDominator` |
//! | 0     | root-neighbors count adjacent dominators, unicast `Count` to the root |
//! | 1     | root picks `s` = arg max count (ties → min id), unicasts `YouAreS` |
//! | 2     | `s` marks itself connector, broadcasts `CoveredByS` |
//! | 3     | dominators *not* hearing `CoveredByS` unicast `ElectParent` to their parent |
//! | 4     | nodes receiving `ElectParent` mark themselves connectors |
//!
//! Round 3 relies on the shared round counter (a dominator with an empty
//! inbox still acts), so this protocol is **synchronous-only**: do not run
//! it under the simulator's delay mode.

use crate::{Node, NodeCtx, Outgoing};

/// Protocol messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WafMsg {
    /// Phase-1 output announcement.
    IamDominator,
    /// A root-neighbor's count of adjacent dominators.
    Count(usize),
    /// The root's choice of `s`.
    YouAreS,
    /// `s` announcing itself to the dominators it covers.
    CoveredByS,
    /// An uncovered dominator electing its parent as connector.
    ElectParent,
}

/// Per-node state of the connector phase.
#[derive(Debug, Clone)]
pub struct WafConnectors {
    root: usize,
    is_dominator: bool,
    parent: Option<usize>,
    adjacent_dominators: usize,
    covered_by_s: bool,
    is_connector: bool,
    /// Root only: `(count, neighbor)` reports received.
    reports: Vec<(usize, usize)>,
}

impl WafConnectors {
    /// Creates the state for one node from the previous phases' outputs.
    pub fn new(root: usize, is_dominator: bool, parent: Option<usize>) -> Self {
        WafConnectors {
            root,
            is_dominator,
            parent,
            adjacent_dominators: 0,
            covered_by_s: false,
            is_connector: false,
            reports: Vec::new(),
        }
    }

    /// Whether this node ended the protocol as a connector.
    pub fn is_connector(&self) -> bool {
        self.is_connector
    }
}

impl Node for WafConnectors {
    type Msg = WafMsg;

    fn on_init(&mut self, _ctx: &NodeCtx<'_>) -> Vec<Outgoing<WafMsg>> {
        if self.is_dominator {
            vec![Outgoing::Broadcast(WafMsg::IamDominator)]
        } else {
            Vec::new()
        }
    }

    fn on_round(
        &mut self,
        round: u64,
        inbox: &[(usize, WafMsg)],
        ctx: &NodeCtx<'_>,
    ) -> Vec<Outgoing<WafMsg>> {
        let mut out = Vec::new();
        for &(from, msg) in inbox {
            match msg {
                WafMsg::IamDominator => self.adjacent_dominators += 1,
                WafMsg::Count(k) => self.reports.push((k, from)),
                WafMsg::YouAreS => {
                    self.is_connector = true;
                    out.push(Outgoing::Broadcast(WafMsg::CoveredByS));
                }
                WafMsg::CoveredByS => self.covered_by_s = true,
                WafMsg::ElectParent => self.is_connector = true,
            }
        }
        match round {
            0
                // Root-neighbors report their dominator-adjacency.
                if ctx.is_neighbor(self.root) => {
                    out.push(Outgoing::Unicast(
                        self.root,
                        WafMsg::Count(self.adjacent_dominators),
                    ));
                }
            1
                if ctx.id == self.root && !self.reports.is_empty() => {
                    // Pick s: max count, ties toward the smaller id.
                    let &(_, s) = self
                        .reports
                        .iter()
                        .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
                        .expect("nonempty");
                    out.push(Outgoing::Unicast(s, WafMsg::YouAreS));
                }
            3
                // Uncovered dominators (never the root: it is adjacent to
                // s) elect their parent.
                if self.is_dominator && !self.covered_by_s && ctx.id != self.root => {
                    let p = self.parent.expect("non-root node has a parent");
                    out.push(Outgoing::Unicast(p, WafMsg::ElectParent));
                }
            _ => {}
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use mcds_graph::{properties, traversal::BfsTree, Graph};
    use mcds_mis::BfsMis;

    /// Full three-phase run (with centralized phase-1 inputs) returning
    /// the distributed CDS.
    fn run_connectors(g: &Graph) -> Vec<usize> {
        let phase1 = BfsMis::compute(g, 0);
        let tree: &BfsTree = phase1.tree();
        let mut nodes: Vec<WafConnectors> = (0..g.num_nodes())
            .map(|v| WafConnectors::new(0, phase1.contains(v), tree.parent(v)))
            .collect();
        Simulator::new().run(g, &mut nodes).unwrap();
        let mut cds: Vec<usize> = phase1.mis().to_vec();
        cds.extend((0..g.num_nodes()).filter(|&v| nodes[v].is_connector()));
        mcds_graph::node_set(cds)
    }

    #[test]
    fn matches_centralized_waf() {
        // (The |I| = 1 case — e.g. complete graphs — is covered by
        // `single_dominator_needs_no_connectors`: the raw protocol elects
        // an s the centralized path skips, and the pipeline handles it.)
        let graphs = [
            Graph::path(11),
            Graph::cycle(9),
            Graph::from_edges(
                10,
                [
                    (0, 1),
                    (0, 2),
                    (1, 3),
                    (2, 4),
                    (3, 5),
                    (4, 6),
                    (5, 7),
                    (6, 8),
                    (7, 9),
                    (8, 9),
                ],
            ),
        ];
        for g in &graphs {
            let distributed = run_connectors(g);
            let centralized = mcds_cds::Solver::new(mcds_cds::Algorithm::WafTree)
                .solve(g)
                .unwrap();
            assert_eq!(distributed, centralized.nodes().to_vec(), "{g:?}");
            assert!(properties::is_connected_dominating_set(g, &distributed));
        }
    }

    #[test]
    fn constant_round_count() {
        for n in [6usize, 12, 24, 48] {
            let g = Graph::cycle(n);
            let phase1 = BfsMis::compute(&g, 0);
            let mut nodes: Vec<WafConnectors> = (0..n)
                .map(|v| WafConnectors::new(0, phase1.contains(v), phase1.tree().parent(v)))
                .collect();
            let stats = Simulator::new().run(&g, &mut nodes).unwrap();
            assert!(stats.rounds <= 5, "n={n}: rounds={}", stats.rounds);
        }
    }

    #[test]
    fn single_dominator_needs_no_connectors() {
        // Complete graph: MIS = {0}, which already dominates; the
        // protocol still elects s but s contributes a connector that the
        // Cds normalization would keep — the *pipeline* skips the phase
        // when |I| = 1, mirroring the paper's γ_c = 1 special case.
        let g = Graph::complete(5);
        let cds = run_connectors(&g);
        assert!(properties::is_connected_dominating_set(&g, &cds));
        assert!(cds.len() <= 2);
    }
}
