//! E6 — head-to-head comparison of the CDS algorithms on instances
//! beyond exact-solver reach.
//!
//! Compares, across node counts and densities, every algorithm in the
//! registry — the paper's greedy (§IV), WAF (§III analysis), the
//! arbitrary-MIS two-phase \[1\]/\[9\], Chvátal set cover \[2\], the
//! single-phase greedy grow — plus a pruning-ablation column
//! (greedy + prune).  Sizes are normalized by a *certified lower bound*
//! on `γ_c` (`max(diam − 1, ⌈3(|I|−1)/11⌉)`), so the reported ratios are
//! conservative upper estimates of the true approximation ratios.
//!
//! Expected shape: within the shared-phase-1 pair, greedy ≤ WAF; the
//! greedy covers (Chvátal, GK-grow) are often smaller on random inputs —
//! their weakness is the missing constant worst-case guarantee, not
//! average size; pruning trims a further few percent.
//!
//! Trials fan out over the worker pool (`--threads`); sizes and the main
//! CSV are bit-identical at any width.  Per-phase wall times
//! (gen/mis/connect/verify) are aggregated into a *separate*
//! `exp_compare_timings.csv` artifact, since wall clocks are inherently
//! non-deterministic.
//!
//! Usage: `exp_compare [--quick] [--seed <u64>] [--out <dir>] [--threads <n>]`

use mcds_bench::sweeps::{gamma_c_lower_bound, instance, mean_timings, ms, Cell, Trial};
use mcds_bench::{f2, stats, ExpConfig, Table};
use mcds_cds::{Algorithm, Solver};

fn main() {
    let cfg = ExpConfig::from_args();
    let cells: Vec<Cell> = if cfg.quick {
        vec![
            Cell {
                n: 60,
                side: 4.0,
                instances: 3,
            },
            Cell {
                n: 120,
                side: 6.0,
                instances: 2,
            },
        ]
    } else {
        vec![
            Cell {
                n: 100,
                side: 5.0,
                instances: 20,
            },
            Cell {
                n: 100,
                side: 8.0,
                instances: 20,
            },
            Cell {
                n: 200,
                side: 7.0,
                instances: 15,
            },
            Cell {
                n: 200,
                side: 11.0,
                instances: 15,
            },
            Cell {
                n: 400,
                side: 10.0,
                instances: 10,
            },
            Cell {
                n: 400,
                side: 16.0,
                instances: 10,
            },
            Cell {
                n: 800,
                side: 14.0,
                instances: 5,
            },
        ]
    };

    println!("E6: CDS sizes across the algorithm registry on random connected UDGs\n");
    let mut header: Vec<String> = vec!["n".into(), "side".into(), "deg".into(), "gc_lb".into()];
    header.extend(Algorithm::ALL.iter().map(|a| a.name().to_string()));
    header.push("greedy+prune".into());
    header.push("greedy/lb".into());
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&header_refs);
    let mut csv = cfg.csv("exp_compare");
    if let Some(w) = csv.as_mut() {
        w.row(&header_refs);
    }
    // Wall-clock phase accounting lives in its own artifact: the main CSV
    // stays byte-identical across runs and pool widths.
    let mut timing_csv = cfg.csv("exp_compare_timings");
    if let Some(w) = timing_csv.as_mut() {
        w.row(&[
            "n",
            "side",
            "alg",
            "gen_ms",
            "mis_ms",
            "connect_ms",
            "verify_ms",
        ]);
    }

    let pool = mcds_pool::global::pool();
    for cell in cells {
        // One pooled pass per cell: each trial runs every algorithm on
        // its instance with the Solver's phase timing and verification.
        struct TrialRow {
            deg: f64,
            lb: f64,
            trials: Vec<Trial>,
            pruned: f64,
        }
        let trial_ids: Vec<usize> = (0..cell.instances).collect();
        let rows: Vec<Option<TrialRow>> = pool.parallel_map(trial_ids, |_, i| {
            let gen_start = std::time::Instant::now();
            let udg = instance(cell, cfg.seed, i);
            let gen_time = gen_start.elapsed();
            let g = udg.graph();
            if g.num_nodes() < 2 {
                return None;
            }
            let lb = gamma_c_lower_bound(g) as f64;
            let trials: Vec<Trial> = Algorithm::ALL
                .iter()
                .map(|&alg| {
                    let mut solution = Solver::new(alg)
                        .verify(true)
                        .solve(g)
                        .expect("connected instance");
                    solution.set_build_time(gen_time);
                    Trial {
                        n: g.num_nodes(),
                        solution,
                    }
                })
                .collect();
            let pruned = Solver::new(Algorithm::GreedyConnect)
                .prune(true)
                .solve(g)
                .expect("connected instance")
                .len() as f64;
            Some(TrialRow {
                deg: g.avg_degree(),
                lb,
                trials,
                pruned,
            })
        });
        let rows: Vec<TrialRow> = rows.into_iter().flatten().collect();

        let deg: Vec<f64> = rows.iter().map(|r| r.deg).collect();
        let lb: Vec<f64> = rows.iter().map(|r| r.lb).collect();
        let pruned_sizes: Vec<f64> = rows.iter().map(|r| r.pruned).collect();
        let greedy_idx = Algorithm::ALL
            .iter()
            .position(|&a| a == Algorithm::GreedyConnect)
            .expect("registry contains greedy");
        let greedy_over_lb: Vec<f64> = rows
            .iter()
            .map(|r| r.trials[greedy_idx].solution.len() as f64 / r.lb)
            .collect();

        let mut row: Vec<String> = vec![
            cell.n.to_string(),
            f2(cell.side),
            f2(stats::mean(&deg)),
            f2(stats::mean(&lb)),
        ];
        for i in 0..Algorithm::ALL.len() {
            let sizes: Vec<f64> = rows
                .iter()
                .map(|r| r.trials[i].solution.len() as f64)
                .collect();
            row.push(f2(stats::mean(&sizes)));
        }
        row.push(f2(stats::mean(&pruned_sizes)));
        row.push(f2(stats::mean(&greedy_over_lb)));
        table.row(&row);
        if let Some(w) = csv.as_mut() {
            w.row(&row);
        }
        if let Some(w) = timing_csv.as_mut() {
            for (i, alg) in Algorithm::ALL.iter().enumerate() {
                let per_alg: Vec<Trial> = rows.iter().map(|r| r.trials[i].clone()).collect();
                let t = mean_timings(&per_alg);
                w.row(&[
                    cell.n.to_string(),
                    f2(cell.side),
                    alg.name().to_string(),
                    ms(t.build),
                    ms(t.phase1),
                    ms(t.phase2),
                    ms(t.verify),
                ]);
            }
        }
    }
    table.print();
    println!();
    println!(
        "RESULT: within the shared-phase-1 pair, greedy <= waf (same MIS, more \
         economical connectors). The greedy covers (chvatal, gk-grow) are often \
         competitive on random inputs — their weakness is the missing constant \
         worst-case guarantee, not average size. 'greedy/lb' is a conservative \
         upper estimate of the true ratio (denominator is a gamma_c lower bound)."
    );
}
