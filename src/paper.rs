//! # Paper-to-code map
//!
//! A section-by-section index from *"Two-Phased Approximation Algorithms
//! for Minimum CDS in Wireless Ad Hoc Networks"* (Wan, Wang & Yao, ICDCS
//! 2008) to this workspace.  Every claim the paper makes has a concrete
//! artifact here: an implementation, an oracle that checks it, an
//! experiment that stresses it, or all three.
//!
//! ## Section I — Introduction
//!
//! | Paper | Here |
//! |-------|------|
//! | UDG communication model | [`mcds_udg::Udg`] |
//! | the two-phased family \[1\],\[2\],\[4\],\[8\],\[9\],\[10\] | [`mcds_cds::algorithms::Algorithm`] registry |
//! | `α ≤ 4γ_c + 1` (WAF 2004) | [`mcds_mis::bounds::alpha_upper_bound_waf2004`] |
//! | `α ≤ 3.8γ_c + 1.2` (Wu et al. 2006) | [`mcds_mis::bounds::alpha_upper_bound_wu2006`] |
//! | `α ≤ 3⅔γ_c + 1` (this paper) | [`mcds_mis::bounds::alpha_upper_bound`], experiment E3 |
//! | Funke et al. claim, demoted to conjecture | [`mcds_mis::bounds::alpha_claimed_funke`], E10 |
//!
//! ## Section II — Bound on the independence number
//!
//! | Paper | Here |
//! |-------|------|
//! | independent points, `I(u)`, `I(U)` | [`mcds_geom::packing::is_independent`], [`mcds_mis::packing::covered_by_point`], [`mcds_mis::packing::covered_by_set`] |
//! | Lemma 1 (`\|I(o) △ I(u)\| ≤ 7`) | [`mcds_mis::lemmas::stress_lemma1`], E9 |
//! | Lemma 2 (11-point union bound) | [`mcds_mis::lemmas::stress_lemma2`], E9 |
//! | `φ(n)` and Theorem 3 | [`mcds_geom::packing::phi`], [`mcds_mis::packing::check_theorem3`] |
//! | Theorem 3's refined `φ(n) − 1` clause | [`mcds_mis::packing::check_theorem3_refined`] |
//! | Wegner's 21-point bound | [`mcds_geom::packing::WEGNER_RADIUS_2`] |
//! | star decompositions, Lemma 4 | [`mcds_mis::stars::star_decomposition`] (the proof's construction, executable) |
//! | Lemma 5 (telescoping) | [`mcds_mis::packing::check_lemma5`] |
//! | Theorem 6 (`\|I(V)\| ≤ 11n/3 + 1`) | [`mcds_mis::packing::check_theorem6`], [`mcds_geom::packing::connected_set_bound`] |
//! | Corollary 7 | [`mcds_mis::bounds::alpha_upper_bound`], E3 |
//!
//! ## Section III — Improved ratio of the WAF algorithm
//!
//! | Paper | Here |
//! |-------|------|
//! | rooted spanning tree `T`, BFS order | [`mcds_graph::traversal::BfsTree`] |
//! | first-fit MIS | [`mcds_mis::first_fit`], [`mcds_mis::BfsMis`] |
//! | the connector rule `C = {s} ∪ parents` | [`mcds_cds::Algorithm::WafTree`] |
//! | Theorem 8 (ratio ≤ 7⅓) | [`mcds_mis::bounds::WAF_RATIO`], experiment E4 |
//! | distributed realization | [`mcds_distsim::pipeline::run_waf_distributed`], E7 |
//!
//! ## Section IV — The new algorithm
//!
//! | Paper | Here |
//! |-------|------|
//! | `q(U)` component counting | [`mcds_graph::subsets::count_components`] |
//! | the gain `Δ_w q(U)` | [`mcds_graph::subsets::adjacent_components`], [`mcds_cds::connect::gain_trace`] |
//! | Lemma 9 (progress guarantee) | asserted by [`mcds_cds::connect::max_gain_connectors`]'s stall error being unreachable on MIS seeds |
//! | the greedy connector algorithm | [`mcds_cds::Algorithm::GreedyConnect`] |
//! | Theorem 10 (ratio ≤ 6 7/18) | [`mcds_mis::bounds::GREEDY_RATIO`], experiment E5 |
//!
//! ## Section V — Discussions
//!
//! | Paper | Here |
//! |-------|------|
//! | Fig. 1 (8 / 12 points) | [`mcds_mis::constructions::fig1_two_star`], [`mcds_mis::constructions::fig1_three_star`], E1 |
//! | Fig. 2 (`3(n+1)` points) | [`mcds_mis::constructions::fig2_chain`], E2 |
//! | the `3(n+1)` conjecture | [`mcds_mis::bounds::alpha_conjectured_bound`], E8 |
//! | the area argument of Funke et al. | [`mcds_geom::area::area_argument_bound`], E10 |
//!
//! ## Beyond the paper (extensions, all labeled as such)
//!
//! * pruning post-pass: [`mcds_cds::prune::prune_cds`] (ablated in E6),
//! * broadcast/routing applications: [`mcds_distsim::protocols::run_broadcast`] (E12), [`mcds_cds::routing`] (E13),
//! * distributed self-verification: [`mcds_distsim::protocols::run_verify_cds`],
//! * root-choice ablation: E11,
//! * SVG figure rendering: [`mcds_viz`].
