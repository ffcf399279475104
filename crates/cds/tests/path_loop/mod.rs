//! Oracle for `connect::path_connectors`: the shortest-path loop as it
//! ran in production, which recounts and relabels the components of the
//! grown seed (`subsets::count_components`, `subsets::components_dsu`)
//! before each breadth-first search.  Shared by `kernel_equiv.rs` and
//! `fault_equiv.rs`; production runs the loop over
//! `connect::shortest_bridge` instead.

use mcds_cds::CdsError;
use mcds_graph::{node_mask, subsets, Graph};

/// The oracle with the production entry's graph checks.
pub fn path_connectors(g: &Graph, seed: &[usize]) -> Result<Vec<usize>, CdsError> {
    check_graph(g)?;
    Ok(path_connectors_unchecked(g, seed))
}

/// The graph errors the public connector entries return before
/// connecting anything.
pub fn check_graph(g: &Graph) -> Result<(), CdsError> {
    if g.num_nodes() == 0 {
        return Err(CdsError::EmptyGraph);
    }
    if !g.is_connected() {
        return Err(CdsError::DisconnectedGraph);
    }
    Ok(())
}

fn path_connectors_unchecked(g: &Graph, seed: &[usize]) -> Vec<usize> {
    let mut mask = node_mask(g.num_nodes(), seed);
    let mut connectors = Vec::new();
    loop {
        let q = subsets::count_components(g, &mask);
        if q <= 1 {
            break;
        }
        // Multi-source BFS from one component; stop at the first node of a
        // different component; add the interior of the path.
        let mut dsu = subsets::components_dsu(g, &mask);
        let start_root = {
            let first = (0..g.num_nodes())
                .find(|&v| mask[v])
                .expect("q > 1 implies nonempty seed");
            dsu.find(first)
        };
        let n = g.num_nodes();
        let mut parent = vec![usize::MAX; n];
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        for v in 0..n {
            if mask[v] && dsu.find(v) == start_root {
                seen[v] = true;
                queue.push_back(v);
            }
        }
        let mut hit = None;
        'bfs: while let Some(v) = queue.pop_front() {
            for u in g.neighbors_iter(v) {
                if seen[u] {
                    continue;
                }
                seen[u] = true;
                parent[u] = v;
                if mask[u] {
                    hit = Some(u);
                    break 'bfs;
                }
                queue.push_back(u);
            }
        }
        let hit = hit.expect("connected graph: another component is reachable");
        // Walk back, adding interior (non-seed) nodes as connectors.
        let mut v = parent[hit];
        while v != usize::MAX && !mask[v] {
            mask[v] = true;
            connectors.push(v);
            v = parent[v];
        }
    }
    connectors.sort_unstable();
    connectors
}
