//! E13 (application) — routing stretch over the constructed backbones.
//!
//! The original CDS motivation (Das & Bharghavan \[2\]) is routing:
//! confine route computation to the backbone.  The price is *stretch* —
//! backbone-constrained routes versus true shortest paths.  This
//! experiment measures exact all-pairs stretch for every algorithm's
//! backbone, plus each backbone's single-point-of-failure count
//! (articulation points of the induced backbone subgraph).
//!
//! Expected shape: mean stretch 1.0–1.3 and worst-case ≤ ~3 at moderate
//! density (CDS routing detours are local); the smaller greedy backbones
//! pay slightly more stretch than WAF's tree-shaped ones — the same
//! size-vs-quality tradeoff E12 shows for latency.
//!
//! Usage: `exp_routing [--quick] [--seed <u64>] [--out <dir>]`

use mcds_bench::sweeps::{instances, Cell};
use mcds_bench::{f2, f3, stats, ExpConfig, Table};
use mcds_cds::routing::stretch_stats;
use mcds_cds::{Algorithm, Solver};
use mcds_graph::bitgraph::{masked_articulation_points, ArticulationScratch, BitSet};

fn main() {
    let cfg = ExpConfig::from_args();
    let cells: Vec<Cell> = if cfg.quick {
        vec![Cell {
            n: 60,
            side: 4.0,
            instances: 3,
        }]
    } else {
        vec![
            Cell {
                n: 120,
                side: 5.5,
                instances: 10,
            },
            Cell {
                n: 250,
                side: 8.0,
                instances: 6,
            },
        ]
    };

    println!("E13 (application): all-pairs routing stretch over backbones\n");
    let mut table = Table::new(&[
        "n",
        "side",
        "alg",
        "|CDS|",
        "mean stretch",
        "max stretch",
        "mean +hops",
        "cut nodes",
    ]);
    let mut csv = cfg.csv("exp_routing");
    if let Some(w) = csv.as_mut() {
        w.row(&[
            "n",
            "side",
            "alg",
            "cds",
            "mean_stretch",
            "max_stretch",
            "mean_add",
            "cut_nodes",
        ]);
    }

    for cell in cells {
        type Metrics = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>);
        let mut per_alg: Vec<Metrics> = vec![Default::default(); Algorithm::ALL.len()];
        let mut scratch = ArticulationScratch::new();
        let mut cut = BitSet::new(0);
        for udg in instances(cell, cfg.seed) {
            let g = udg.graph();
            if g.num_nodes() < 2 {
                continue;
            }
            for (i, alg) in Algorithm::ALL.iter().enumerate() {
                let cds = Solver::new(*alg).solve(g).expect("connected");
                let s = stretch_stats(g, cds.nodes()).expect("CDS routes everything");
                let backbone = BitSet::from_nodes(g.num_nodes(), cds.nodes());
                masked_articulation_points(g, &backbone, &mut scratch, &mut cut);
                let cuts = cut.count_ones();
                per_alg[i].0.push(cds.len() as f64);
                per_alg[i].1.push(s.mean);
                per_alg[i].2.push(s.max);
                per_alg[i].3.push(s.mean_additive);
                per_alg[i].4.push(cuts as f64);
            }
        }
        for (i, alg) in Algorithm::ALL.iter().enumerate() {
            let (sizes, means, maxes, adds, cuts) = &per_alg[i];
            let row = [
                cell.n.to_string(),
                f2(cell.side),
                alg.name().to_string(),
                f2(stats::mean(sizes)),
                f3(stats::mean(means)),
                f2(stats::max(maxes)),
                f3(stats::mean(adds)),
                f2(stats::mean(cuts)),
            ];
            table.row(&row);
            if let Some(w) = csv.as_mut() {
                w.row(&row);
            }
        }
    }
    table.print();
    println!();
    println!(
        "RESULT: CDS-confined routing pays only a small stretch (detours are \
         local), and the 'cut nodes' column quantifies each backbone's single \
         points of failure — sparser backbones are leaner but more fragile."
    );
}
