//! Distributed CDS self-verification.
//!
//! After a backbone is constructed, the network can check it without any
//! central observer:
//!
//! 1. **Domination** — members announce themselves once; a non-member
//!    that hears no member neighbor knows *locally* that it is
//!    undominated.
//! 2. **Connectivity** — every member floods a token carrying its id
//!    through the member subgraph, keeping the minimum originator seen
//!    (min-id flooding restricted to members).  At quiescence, the
//!    members of the backbone component containing the minimum-id member
//!    have converged to that id; members of any *other* backbone
//!    component converge to their own component's minimum instead —
//!    which is how a split backbone is detected.
//!
//! [`run_verify_cds`] collects the per-node verdicts into a report.  For
//! a valid CDS the report is clean; for a broken one it names witnesses —
//! the same information the centralized
//! [`mcds_graph::properties::check_cds`] produces, obtained with radio
//! messages only.

use mcds_graph::{node_mask, Graph};

use crate::{Node, NodeCtx, Outgoing, SimError, SimStats, Simulator};

/// Protocol messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyMsg {
    /// "I am a backbone member."
    Member,
    /// Connectivity token carrying its originator's id; relayed by
    /// members only, keeping the minimum.
    Token(usize),
}

/// Per-node state of the verification protocol.
#[derive(Debug, Clone)]
pub struct VerifyCds {
    is_member: bool,
    member_neighbor: bool,
    best_token: Option<usize>,
}

impl VerifyCds {
    /// Creates the state for one node.
    pub fn new(is_member: bool) -> Self {
        VerifyCds {
            is_member,
            member_neighbor: false,
            best_token: None,
        }
    }

    /// Local verdict: is this node dominated (member, or member
    /// neighbor)?
    pub fn dominated(&self) -> bool {
        self.is_member || self.member_neighbor
    }

    /// For members: the smallest originator id whose token arrived —
    /// i.e. the minimum member id of this node's backbone component.
    pub fn component_leader(&self) -> Option<usize> {
        self.best_token
    }
}

impl Node for VerifyCds {
    type Msg = VerifyMsg;

    fn on_init(&mut self, ctx: &NodeCtx<'_>) -> Vec<Outgoing<VerifyMsg>> {
        if self.is_member {
            self.best_token = Some(ctx.id);
            vec![
                Outgoing::Broadcast(VerifyMsg::Member),
                Outgoing::Broadcast(VerifyMsg::Token(ctx.id)),
            ]
        } else {
            Vec::new()
        }
    }

    fn on_round(
        &mut self,
        _round: u64,
        inbox: &[(usize, VerifyMsg)],
        _ctx: &NodeCtx<'_>,
    ) -> Vec<Outgoing<VerifyMsg>> {
        let mut improved = None;
        for &(_, msg) in inbox {
            match msg {
                VerifyMsg::Member => self.member_neighbor = true,
                VerifyMsg::Token(origin) => {
                    if self.is_member && Some(origin) < self.best_token.or(Some(usize::MAX)) {
                        self.best_token = Some(origin);
                        improved = Some(origin);
                    }
                }
            }
        }
        match improved {
            Some(origin) => vec![Outgoing::Broadcast(VerifyMsg::Token(origin))],
            None => Vec::new(),
        }
    }
}

/// Report of a distributed verification run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Nodes that heard no member neighbor (and are not members).
    pub undominated: Vec<usize>,
    /// Members whose backbone component does not contain the minimum-id
    /// member — witnesses of a split backbone.
    pub unreached_members: Vec<usize>,
    /// Simulator statistics.
    pub stats: SimStats,
}

impl VerifyReport {
    /// Whether the backbone passed both checks.
    ///
    /// Note: an *empty* member set on a non-empty graph reports every
    /// node undominated, hence invalid — matching the centralized
    /// checker.
    pub fn is_valid(&self) -> bool {
        self.undominated.is_empty() && self.unreached_members.is_empty()
    }
}

/// Runs the distributed verification of `members` as a CDS of `g`.
///
/// ```
/// use mcds_distsim::protocols::run_verify_cds;
/// use mcds_graph::Graph;
///
/// let g = Graph::path(5);
/// assert!(run_verify_cds(&g, &[1, 2, 3])?.is_valid());
/// let report = run_verify_cds(&g, &[1, 3])?; // dominating but split
/// assert!(!report.is_valid());
/// assert_eq!(report.unreached_members, vec![3]);
/// # Ok::<(), mcds_distsim::SimError>(())
/// ```
///
/// # Errors
///
/// Propagates simulator errors (cannot occur for this protocol on valid
/// inputs).
pub fn run_verify_cds(g: &Graph, members: &[usize]) -> Result<VerifyReport, SimError> {
    let mask = node_mask(g.num_nodes(), members);
    let mut nodes: Vec<VerifyCds> = (0..g.num_nodes())
        .map(|v| VerifyCds::new(mask[v]))
        .collect();
    let stats = Simulator::new().run(g, &mut nodes)?;
    let undominated = (0..g.num_nodes())
        .filter(|&v| !nodes[v].dominated())
        .collect();
    let global_min = members.iter().copied().min();
    let unreached_members = (0..g.num_nodes())
        .filter(|&v| mask[v] && nodes[v].component_leader() != global_min)
        .collect();
    Ok(VerifyReport {
        undominated,
        unreached_members,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_cds::{Algorithm, Solver};

    #[test]
    fn valid_backbones_pass() {
        for g in [Graph::path(12), Graph::cycle(9), Graph::complete(5)] {
            let cds = Solver::new(Algorithm::GreedyConnect).solve(&g).unwrap();
            let report = run_verify_cds(&g, cds.nodes()).unwrap();
            assert!(report.is_valid(), "{g:?}: {report:?}");
        }
    }

    #[test]
    fn undominated_nodes_are_named() {
        // Backbone {1} on a path of 5: nodes 3 and 4 are undominated.
        let g = Graph::path(5);
        let report = run_verify_cds(&g, &[1]).unwrap();
        assert_eq!(report.undominated, vec![3, 4]);
        assert!(!report.is_valid());
    }

    #[test]
    fn split_backbone_is_detected() {
        // {1, 2, 4, 5} on a path of 7: dominating, but the member
        // subgraph has components {1,2} and {4,5}.  Tokens from 1 cover
        // only {1,2}; members 4 and 5 converge to leader 4 ≠ 1.
        let g = Graph::path(7);
        let report = run_verify_cds(&g, &[1, 2, 4, 5]).unwrap();
        assert!(report.undominated.is_empty());
        assert_eq!(report.unreached_members, vec![4, 5]);
        assert!(!report.is_valid());
    }

    #[test]
    fn empty_member_set_fails() {
        let g = Graph::path(3);
        let report = run_verify_cds(&g, &[]).unwrap();
        assert_eq!(report.undominated, vec![0, 1, 2]);
        assert!(!report.is_valid());
    }

    #[test]
    fn agrees_with_centralized_checker_on_many_sets() {
        // Random member sets on a fixed graph: the distributed verdict
        // must match properties::check_cds exactly.
        let g = Graph::from_edges(
            10,
            [
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 8),
                (8, 9),
                (1, 8),
                (3, 6),
            ],
        );
        let mut s = 55u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..40 {
            let members: Vec<usize> = (0..10).filter(|_| next() % 2 == 0).collect();
            let report = run_verify_cds(&g, &members).unwrap();
            let central_ok = mcds_graph::properties::check_cds(&g, &members).is_ok();
            assert_eq!(
                report.is_valid(),
                central_ok,
                "members {members:?}: distributed {report:?} vs centralized {central_ok}"
            );
        }
    }

    #[test]
    fn stats_are_modest() {
        let g = Graph::cycle(20);
        let cds = Solver::new(Algorithm::GreedyConnect).solve(&g).unwrap();
        let report = run_verify_cds(&g, cds.nodes()).unwrap();
        // Init: 2 broadcasts per member; min-id flooding re-broadcasts
        // once per improvement, at most k per member -> O(k²) worst case.
        let k = cds.len() as u64;
        assert!(report.stats.transmissions >= 2 * k);
        assert!(report.stats.transmissions <= 2 * k + k * k);
    }
}
