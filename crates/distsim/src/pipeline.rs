//! The full distributed WAF pipeline: flooding → MIS election →
//! connector election, with per-phase accounting.

use mcds_cds::{Cds, CdsError};
use mcds_graph::Graph;
use std::error::Error;
use std::fmt;

use crate::protocols::{FloodBfs, MisElection, WafConnectors};
use crate::{SimError, SimStats, Simulator};

/// Outcome of a distributed WAF run.
#[derive(Debug, Clone)]
pub struct DistributedRun {
    /// The constructed CDS (dominators = elected MIS, connectors = `s`
    /// plus elected parents).
    pub cds: Cds,
    /// The elected leader (minimum node id).
    pub root: usize,
    /// Stats of the flooding phase (leader election + BFS tree).
    pub flood: SimStats,
    /// Stats of the MIS election phase.
    pub mis: SimStats,
    /// Stats of the connector phase (zero if skipped for `|I| ≤ 1`).
    pub connect: SimStats,
}

impl DistributedRun {
    /// Total rounds across the three phases.
    pub fn total_rounds(&self) -> u64 {
        self.flood.rounds + self.mis.rounds + self.connect.rounds
    }

    /// Total radio transmissions across the three phases.
    pub fn total_transmissions(&self) -> u64 {
        self.flood.transmissions + self.mis.transmissions + self.connect.transmissions
    }

    /// Upper bound on the busiest single radio across the whole pipeline
    /// (sum of the per-phase hotspots; the hotspots may be different
    /// nodes, so this is conservative).
    pub fn hotspot_bound(&self) -> u64 {
        self.flood.max_node_transmissions
            + self.mis.max_node_transmissions
            + self.connect.max_node_transmissions
    }
}

/// Why the pipeline failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The input graph cannot host a CDS.
    Cds(CdsError),
    /// A protocol misbehaved in the simulator.
    Sim(SimError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Cds(e) => write!(f, "{e}"),
            PipelineError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl Error for PipelineError {}

impl From<CdsError> for PipelineError {
    fn from(e: CdsError) -> Self {
        PipelineError::Cds(e)
    }
}

impl From<SimError> for PipelineError {
    fn from(e: SimError) -> Self {
        PipelineError::Sim(e)
    }
}

/// Runs the three-phase distributed WAF construction on `g`.
///
/// The result's CDS equals the centralized
/// [`Algorithm::WafTree`](mcds_cds::Algorithm::WafTree) solve rooted at
/// the minimum id node-for-node — the distributed realization computes
/// the same spanning tree (canonical parents), the same first-fit MIS
/// (rank election) and the same connectors (same tie-breaks).
///
/// # Errors
///
/// * [`PipelineError::Cds`] for empty or disconnected inputs,
/// * [`PipelineError::Sim`] if a protocol exceeds the simulator's limits
///   (does not happen for valid inputs).
pub fn run_waf_distributed(g: &Graph) -> Result<DistributedRun, PipelineError> {
    let n = g.num_nodes();
    if n == 0 {
        return Err(CdsError::EmptyGraph.into());
    }
    if !g.is_connected() {
        return Err(CdsError::DisconnectedGraph.into());
    }
    if n == 1 {
        return Ok(DistributedRun {
            cds: Cds::new(vec![0], Vec::new()),
            root: 0,
            flood: SimStats::default(),
            mis: SimStats::default(),
            connect: SimStats::default(),
        });
    }

    let sim = Simulator::new();

    // Phase 0: leader election + BFS levels/parents.
    let mut flood_nodes: Vec<FloodBfs> = (0..n).map(|_| FloodBfs::new()).collect();
    let flood_stats = sim.run(g, &mut flood_nodes)?;
    let flood: Vec<_> = flood_nodes.iter().map(|f| f.result()).collect();
    let root = flood[0].root;
    debug_assert!(flood.iter().all(|r| r.root == root));

    // Phase 1: MIS election with ranks (level, id).
    let mut mis_nodes: Vec<MisElection> = (0..n)
        .map(|v| MisElection::new((flood[v].level, v)))
        .collect();
    let mis_stats = sim.run(g, &mut mis_nodes)?;
    let mis: Vec<usize> = (0..n)
        .filter(|&v| mis_nodes[v].in_mis() == Some(true))
        .collect();
    debug_assert!(mis_nodes.iter().all(|m| m.in_mis().is_some()));

    // γ_c = 1 shortcut, mirroring the paper's special case.
    if mis.len() <= 1 {
        return Ok(DistributedRun {
            cds: Cds::new(mis, Vec::new()),
            root,
            flood: flood_stats,
            mis: mis_stats,
            connect: SimStats::default(),
        });
    }

    // Phase 2: WAF connectors.
    let mis_mask = mcds_graph::node_mask(n, &mis);
    let mut waf_nodes: Vec<WafConnectors> = (0..n)
        .map(|v| WafConnectors::new(root, mis_mask[v], flood[v].parent))
        .collect();
    let connect_stats = sim.run(g, &mut waf_nodes)?;
    let connectors: Vec<usize> = (0..n).filter(|&v| waf_nodes[v].is_connector()).collect();

    Ok(DistributedRun {
        cds: Cds::new(mis, connectors),
        root,
        flood: flood_stats,
        mis: mis_stats,
        connect: connect_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_cds::{Algorithm, Solver};

    #[test]
    fn equals_centralized_on_families() {
        let graphs = [
            Graph::path(2),
            Graph::path(14),
            Graph::cycle(11),
            Graph::star(7),
            Graph::complete(6),
            Graph::from_edges(
                12,
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
                    (9, 10),
                    (10, 11),
                    (11, 0),
                    (3, 9),
                ],
            ),
        ];
        for g in &graphs {
            let run = run_waf_distributed(g).unwrap();
            let centralized = Solver::new(Algorithm::WafTree)
                .root(run.root)
                .solve(g)
                .unwrap();
            assert_eq!(run.cds.nodes(), centralized.nodes(), "{g:?}");
            assert!(run.cds.verify(g).is_ok());
        }
    }

    #[test]
    fn errors_match_centralized_contract() {
        assert!(matches!(
            run_waf_distributed(&Graph::empty(0)),
            Err(PipelineError::Cds(CdsError::EmptyGraph))
        ));
        let split = Graph::from_edges(4, [(0, 1), (2, 3)]);
        assert!(matches!(
            run_waf_distributed(&split),
            Err(PipelineError::Cds(CdsError::DisconnectedGraph))
        ));
    }

    #[test]
    fn singleton_shortcut() {
        let run = run_waf_distributed(&Graph::empty(1)).unwrap();
        assert_eq!(run.cds.nodes(), &[0]);
        assert_eq!(run.total_rounds(), 0);
    }

    #[test]
    fn rounds_scale_with_diameter_not_size() {
        // Two instances with the same diameter but different sizes:
        // rounds should track the diameter.
        let thin = Graph::path(16); // diameter 15
        let run_thin = run_waf_distributed(&thin).unwrap();
        let wide = Graph::from_edges(16, (1..16).map(|v| (0usize, v)).collect::<Vec<_>>()); // star: diameter 2
        let run_wide = run_waf_distributed(&wide).unwrap();
        assert!(run_wide.total_rounds() < run_thin.total_rounds());
    }

    #[test]
    fn accounting_sums_phases() {
        let g = Graph::cycle(9);
        let run = run_waf_distributed(&g).unwrap();
        assert_eq!(
            run.total_rounds(),
            run.flood.rounds + run.mis.rounds + run.connect.rounds
        );
        assert_eq!(
            run.total_transmissions(),
            run.flood.transmissions + run.mis.transmissions + run.connect.transmissions
        );
        assert!(run.total_transmissions() > 0);
    }
}
