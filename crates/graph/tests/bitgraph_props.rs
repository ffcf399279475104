//! Property tests for the word-parallel bitset primitives: every packed
//! operation must agree with a naive bit-by-bit reference, including on
//! hostile patterns — empty sets, all-ones, single bits at the 63/64/65
//! word boundaries, capacities that are not multiples of 64 — and the
//! masked articulation pass must find the members whose removal raises
//! the component count, no more and no fewer.

use mcds_check::gen::{usizes, vecs};
use mcds_check::{Property, TestResult};
use mcds_graph::bitgraph::{masked_articulation_points, ArticulationScratch, BitSet};
use mcds_graph::{node_mask, subsets, Graph};

/// Naive boolean-vector model of a [`BitSet`].
fn model(bits: usize, nodes: &[usize]) -> Vec<bool> {
    let mut m = vec![false; bits];
    for &v in nodes {
        m[v] = true;
    }
    m
}

/// Clamps generated ids into `0..bits` (the generators don't know the
/// capacity drawn alongside them).
fn clamp(bits: usize, raw: &[usize]) -> Vec<usize> {
    raw.iter().map(|&v| v % bits).collect()
}

#[test]
fn popcount_and_membership_match_naive_model() {
    Property::new("bitset_matches_bool_model").cases(128).run(
        &(usizes(1..=300), vecs(usizes(0..=1023), 0..=400)),
        |(bits, raw)| {
            let bits = *bits;
            let nodes = clamp(bits, raw);
            let m = model(bits, &nodes);
            let s = BitSet::from_nodes(bits, &nodes);
            if s.count_ones() != m.iter().filter(|&&b| b).count() {
                return TestResult::Fail("popcount diverged".into());
            }
            if (0..bits).any(|i| s.contains(i) != m[i]) {
                return TestResult::Fail("membership diverged".into());
            }
            let naive_ones: Vec<usize> = (0..bits).filter(|&i| m[i]).collect();
            if s.to_nodes() != naive_ones {
                return TestResult::Fail("iter_ones diverged".into());
            }
            TestResult::Pass
        },
    );
}

#[test]
fn intersection_count_matches_naive_loop() {
    Property::new("bitset_and_matches_naive").cases(128).run(
        &(
            usizes(1..=300),
            vecs(usizes(0..=1023), 0..=300),
            vecs(usizes(0..=1023), 0..=300),
        ),
        |(bits, raw_a, raw_b)| {
            let bits = *bits;
            let (na, nb) = (clamp(bits, raw_a), clamp(bits, raw_b));
            let (ma, mb) = (model(bits, &na), model(bits, &nb));
            let (a, b) = (BitSet::from_nodes(bits, &na), BitSet::from_nodes(bits, &nb));
            let naive_and = (0..bits).filter(|&i| ma[i] && mb[i]).count();
            if a.and_count(&b) != naive_and {
                return TestResult::Fail(format!(
                    "and_count {} != naive {naive_and}",
                    a.and_count(&b)
                ));
            }
            TestResult::Pass
        },
    );
}

/// The explicitly hostile patterns from the issue: empty, all-ones, a
/// single bit at each side of a word boundary, capacities off the
/// 64-bit grid.
#[test]
fn hostile_patterns_are_exact() {
    for bits in [1usize, 63, 64, 65, 127, 128, 129, 200] {
        let empty = BitSet::new(bits);
        assert_eq!(empty.count_ones(), 0, "bits={bits}");
        assert_eq!(empty.to_nodes(), Vec::<usize>::new());
        let all: Vec<usize> = (0..bits).collect();
        let full = BitSet::from_nodes(bits, &all);
        assert_eq!(full.count_ones(), bits, "bits={bits}");
        assert_eq!(full.to_nodes(), all, "bits={bits}");
        assert_eq!(full.and_count(&empty), 0);
    }
    for single in [63usize, 64, 65] {
        let s = BitSet::from_nodes(130, &[single]);
        assert_eq!(s.count_ones(), 1);
        assert!(s.contains(single));
        assert!(!s.contains(single - 1) && !s.contains(single + 1));
        assert_eq!(s.to_nodes(), vec![single]);
    }
}

/// Masked Tarjan equals the removal oracle on random subsets of random
/// graphs: a member is a cut vertex iff dropping it raises the induced
/// component count, which the pass also returns.
#[test]
fn masked_articulation_matches_induced_reference() {
    Property::new("masked_articulation_matches_induced")
        .cases(96)
        .run(
            &(
                usizes(2..=80),
                vecs((usizes(0..=1023), usizes(0..=1023)), 0..=200),
                vecs(usizes(0..=1023), 0..=60),
            ),
            |(n, raw_edges, raw_mask)| {
                let n = *n;
                let edges: Vec<(usize, usize)> = raw_edges
                    .iter()
                    .map(|&(u, v)| (u % n, v % n))
                    .filter(|&(u, v)| u != v)
                    .collect();
                let g = Graph::from_edges(n, edges);
                let members = mcds_graph::node_set(clamp(n, raw_mask));
                let mask = BitSet::from_nodes(n, &members);
                let mut scratch = ArticulationScratch::new();
                let mut cut = BitSet::new(n);
                let parts = masked_articulation_points(&g, &mask, &mut scratch, &mut cut);
                let mut bools = node_mask(n, &members);
                let base = subsets::count_components(&g, &bools);
                let mut want = Vec::new();
                for &v in &members {
                    bools[v] = false;
                    if subsets::count_components(&g, &bools) > base {
                        want.push(v);
                    }
                    bools[v] = true;
                }
                if cut.to_nodes() != want || parts != base {
                    return TestResult::Fail(format!(
                        "cut set {:?} in {parts} component(s) != removal reference \
                         {want:?} in {base}",
                        cut.to_nodes()
                    ));
                }
                TestResult::Pass
            },
        );
}
