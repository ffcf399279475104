//! A uniform registry over all CDS constructions, for the experiment
//! harness and examples.

/// The CDS algorithms this crate implements, as data; run one with
/// [`crate::Solver`].
///
/// `Algorithm::ALL` enumerates them in the order experiments report them.
///
/// ```
/// use mcds_graph::Graph;
/// use mcds_cds::{Algorithm, Solver};
///
/// let g = Graph::cycle(12);
/// for alg in Algorithm::ALL {
///     let solution = Solver::new(alg).solve(&g)?;
///     assert!(solution.cds().verify(&g).is_ok(), "{}", alg.name());
/// }
/// # Ok::<(), mcds_cds::CdsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Wan–Alzoubi–Frieder \[10\], ratio ≤ 7⅓ (paper Section III).
    ///
    /// 1. `T` = BFS spanning tree of `G` rooted at the root (the elected
    ///    leader, [`crate::Solver::root`]); `I` = first-fit MIS in the
    ///    `(level, id)` order of `T` (so the root is in `I`).
    /// 2. `s` = the neighbor of the root adjacent to the largest number of
    ///    nodes of `I` (ties toward smaller id).
    /// 3. `C = {s} ∪ { parent_T(u) : u ∈ I \ I(s) }`, where `I(s)` is the
    ///    set of dominators adjacent to `s`.
    ///
    /// `I ∪ C` is a CDS with `|I ∪ C| ≤ 7⅓·γ_c(G)` (Theorem 8).  The size
    /// inequality `|C| ≤ |I| − |I(s)| + 1` used in the proof is asserted
    /// in debug builds.
    WafTree,
    /// The paper's new greedy-connector algorithm, ratio ≤ 6 7/18
    /// (Section IV).
    ///
    /// Phase 1 is [`Algorithm::WafTree`]'s: the BFS-ordered first-fit MIS
    /// `I`.  Phase 2 selects connectors *"in a natural greedy manner"*:
    /// while `G[I ∪ C]` has more than one connected component, add the
    /// node `w` of maximum gain `Δ_w q(C) = q(C) − q(C ∪ {w})`.  Lemma 9
    /// guarantees a node of gain ≥ 1 always exists, so the loop
    /// terminates with a CDS; Theorem 10 bounds the result by
    /// `6 7/18 · γ_c(G)`.
    GreedyConnect,
    /// Chvátal greedy set-cover dominators + shortest-path connectors
    /// \[2\]; logarithmic ratio.
    ///
    /// Set-cover dominators lack the 2-hop separation property (two
    /// dominator components can be 3 hops apart), so the phase-2 rule is
    /// [`crate::connect::path_connectors`] rather than the paper's
    /// max-gain rule.
    ChvatalSetCover,
    /// Arbitrary (lexicographic) MIS + max-gain connectors \[1\]/\[9\].
    ///
    /// Unlike the paper's BFS-ordered MIS, an arbitrary MIS lacks the
    /// 2-hop separation property — its components can be 3 hops apart,
    /// where no single node merges two of them (e.g. `{0, 3, 5}` on a
    /// 6-path).  The connector rule is therefore
    /// [`crate::connect::max_gain_then_paths`].  This structural
    /// difference is exactly the motivation for the special MIS in
    /// \[4\]/\[8\]/\[10\].
    ArbitraryMis,
    /// Single-phase Guha–Khuller-style greedy growth; `O(log Δ)` ratio
    /// on general graphs.
    ///
    /// The whole grown set is reported as dominators (there is no phase
    /// split in this algorithm) and no connectors.
    GreedyGrowth,
}

impl Algorithm {
    /// All algorithms, in canonical reporting order.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::GreedyConnect,
        Algorithm::WafTree,
        Algorithm::ArbitraryMis,
        Algorithm::ChvatalSetCover,
        Algorithm::GreedyGrowth,
    ];

    /// Short stable identifier (used in CSV headers).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::WafTree => "waf",
            Algorithm::GreedyConnect => "greedy",
            Algorithm::ChvatalSetCover => "chvatal",
            Algorithm::ArbitraryMis => "arb-mis",
            Algorithm::GreedyGrowth => "gk-grow",
        }
    }

    /// Human-readable description with the provenance reference.
    pub fn description(self) -> &'static str {
        match self {
            Algorithm::WafTree => "WAF tree connectors [10], ratio ≤ 7 1/3 (Thm 8)",
            Algorithm::GreedyConnect => {
                "greedy max-gain connectors (Sec. IV), ratio ≤ 6 7/18 (Thm 10)"
            }
            Algorithm::ChvatalSetCover => "Chvátal set-cover + path connectors [2], ratio O(log Δ)",
            Algorithm::ArbitraryMis => "arbitrary MIS + max-gain connectors [1]/[9]",
            Algorithm::GreedyGrowth => {
                "single-phase greedy growth (Guha-Khuller style), ratio O(log Δ)"
            }
        }
    }

    /// The proven approximation-ratio bound on unit-disk graphs, if a
    /// constant one is known.
    pub fn ratio_bound(self) -> Option<f64> {
        match self {
            Algorithm::WafTree => Some(mcds_mis::bounds::WAF_RATIO),
            Algorithm::GreedyConnect => Some(mcds_mis::bounds::GREEDY_RATIO),
            Algorithm::ChvatalSetCover => None,
            // The arbitrary-MIS family has a constant ratio too (via
            // α ≤ 11/3 γ_c + 1 and one connector per extra component) but
            // the paper proves none for this exact variant; report none.
            Algorithm::ArbitraryMis => None,
            Algorithm::GreedyGrowth => None,
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The error of parsing an [`Algorithm`] (or selector) from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownAlgorithm(pub String);

impl std::fmt::Display for UnknownAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown algorithm '{}' (expected one of: ", self.0)?;
        for (i, alg) in Algorithm::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(alg.name())?;
        }
        f.write_str(", or 'all')")
    }
}

impl std::error::Error for UnknownAlgorithm {}

impl std::str::FromStr for Algorithm {
    type Err = UnknownAlgorithm;

    /// Parses the stable [`Algorithm::name`] identifiers, so parsing and
    /// [`std::fmt::Display`] round-trip.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Algorithm::ALL
            .into_iter()
            .find(|a| a.name() == s)
            .ok_or_else(|| UnknownAlgorithm(s.to_string()))
    }
}

/// Parses a command-line algorithm selector: an [`Algorithm::name`] for a
/// single algorithm, or `"all"` for [`Algorithm::ALL`] in reporting
/// order.  This is the one place front ends (CLI, experiment binaries)
/// resolve algorithm names.
///
/// # Errors
///
/// [`UnknownAlgorithm`] echoing the rejected input and the valid names.
pub fn parse_selector(s: &str) -> Result<Vec<Algorithm>, UnknownAlgorithm> {
    if s == "all" {
        Ok(Algorithm::ALL.to_vec())
    } else {
        s.parse().map(|alg| vec![alg])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Solver;
    use mcds_graph::Graph;

    #[test]
    fn registry_runs_everything() {
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
                (9, 0),
                (2, 7),
            ],
        );
        for alg in Algorithm::ALL {
            let solution = Solver::new(alg).solve(&g).unwrap();
            solution
                .cds()
                .verify(&g)
                .unwrap_or_else(|e| panic!("{alg}: {e}"));
            assert!(!alg.name().is_empty());
            assert!(!alg.description().is_empty());
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Algorithm::ALL.len());
    }

    #[test]
    fn ratio_bounds_match_paper() {
        assert_eq!(
            Algorithm::WafTree.ratio_bound(),
            Some(mcds_mis::bounds::WAF_RATIO)
        );
        assert_eq!(
            Algorithm::GreedyConnect.ratio_bound(),
            Some(mcds_mis::bounds::GREEDY_RATIO)
        );
        assert_eq!(Algorithm::ChvatalSetCover.ratio_bound(), None);
    }

    #[test]
    fn display_matches_name() {
        for alg in Algorithm::ALL {
            assert_eq!(alg.to_string(), alg.name());
        }
    }

    #[test]
    fn parse_round_trips_every_name() {
        for alg in Algorithm::ALL {
            assert_eq!(alg.name().parse::<Algorithm>(), Ok(alg));
            assert_eq!(alg.to_string().parse::<Algorithm>(), Ok(alg));
        }
        let err = "no-such".parse::<Algorithm>().unwrap_err();
        assert_eq!(err.0, "no-such");
        let msg = err.to_string();
        assert!(msg.contains("no-such"));
        assert!(msg.contains("waf"));
        assert!(msg.contains("'all'"));
    }

    #[test]
    fn selector_resolves_all_and_singles() {
        assert_eq!(parse_selector("all").unwrap(), Algorithm::ALL.to_vec());
        assert_eq!(
            parse_selector("greedy").unwrap(),
            vec![Algorithm::GreedyConnect]
        );
        assert!(parse_selector("bogus").is_err());
        assert!(parse_selector("").is_err());
    }
}
