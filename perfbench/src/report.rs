//! The result line and the human-readable notes printed before it.

use crate::stats::Pct;

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value, printed with all its digits.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one run prints as its last line.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that failed a check, errored, or were never sent.
    pub failed: usize,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Appends a metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The share of attempted operations that succeeded.
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }

    /// The one-line JSON object the benchmark ends its output with.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // Rust's shortest round-trip float formatting keeps every
                // significant digit.  JSON has no infinity: a latency made
                // infinite by failed requests prints as the largest f64.
                let value = m.value.clamp(f64::MIN, f64::MAX);
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The end-to-end figures every workload reports (`--trace 0`).
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    /// Median one-time set-up on the generated input, seconds.
    pub setup_s: f64,
    /// Median latency of the workload's operation over the median time
    /// of the reference sweep run beside it.
    pub op_norm: f64,
    /// Backbone size of the result (exact).
    pub cds_size: usize,
    /// Peak resident set of the process doing the work, MiB.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// Appends the end-to-end metrics in `BENCHMARK.json` order.
    pub fn put(self, r: &mut RunResult) {
        let ok_share = r.ok_share();
        r.put("setup_s", self.setup_s, "s");
        r.put("op_norm", self.op_norm, "ratio");
        r.put("cds_size", self.cds_size as f64, "count");
        r.put("peak_rss_mb", self.peak_rss_mb, "MiB");
        r.put("ok_share", ok_share, "ratio");
    }
}

/// The per-layer figures (`--trace 1`).  A layer the workload never
/// reaches keeps its zero: that is the measured figure, and the
/// prediction for it is "no change".
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    pub udg_build_ms: f64,
    pub udg_edges: usize,
    pub graph_giant_ms: f64,
    pub mis_phase1_ms: f64,
    pub mis_dominators: usize,
    pub cds_phase2_ms: f64,
    pub cds_candidates_scanned: u64,
    pub cds_connectors: usize,
    pub cds_verify_ms: f64,
    pub cds_prune_ms: f64,
    pub cds_prune_removed: usize,
    pub cds_prune_yield: f64,
    pub maintain_apply_ms: f64,
    pub maintain_baseline_ms: f64,
    pub maintain_self_ms: f64,
    pub maintain_repaired: u64,
    pub maintain_recomputed: u64,
    pub maintain_damage_region_mean: f64,
    pub serve_read_p50_ms: f64,
    pub serve_tick_p50_ms: f64,
    pub serve_read_p90_ms: f64,
    pub serve_tick_p90_ms: f64,
    pub serve_stats_shadow_ms: f64,
    pub serve_read_wait_ms: f64,
    pub serve_request_p90_ms: f64,
    pub serve_requests: u64,
    pub serve_ticks: u64,
    pub serve_churn_admitted: u64,
    pub serve_churn_rejected: u64,
    pub gen_late_p90_ms: f64,
    pub gen_offered_per_s: f64,
    pub gen_completed_per_s: f64,
    pub obs_overhead_pct: f64,
    pub obs_attributed_pct: f64,
}

impl Layers {
    /// Appends the per-layer metrics in `BENCHMARK.json` order.
    pub fn put(self, r: &mut RunResult) {
        r.put("udg.build_ms", self.udg_build_ms, "ms");
        r.put("udg.edges", self.udg_edges as f64, "count");
        r.put("graph.giant_ms", self.graph_giant_ms, "ms");
        r.put("mis.phase1_ms", self.mis_phase1_ms, "ms");
        r.put("mis.dominators", self.mis_dominators as f64, "count");
        r.put("cds.phase2_ms", self.cds_phase2_ms, "ms");
        r.put(
            "cds.candidates_scanned",
            self.cds_candidates_scanned as f64,
            "count",
        );
        r.put("cds.connectors", self.cds_connectors as f64, "count");
        r.put("cds.verify_ms", self.cds_verify_ms, "ms");
        r.put("cds.prune_ms", self.cds_prune_ms, "ms");
        r.put("cds.prune_removed", self.cds_prune_removed as f64, "count");
        r.put("cds.prune_yield", self.cds_prune_yield, "ratio");
        r.put("maintain.apply_ms", self.maintain_apply_ms, "ms");
        r.put("maintain.baseline_ms", self.maintain_baseline_ms, "ms");
        r.put("maintain.self_ms", self.maintain_self_ms, "ms");
        r.put("maintain.repaired", self.maintain_repaired as f64, "count");
        r.put(
            "maintain.recomputed",
            self.maintain_recomputed as f64,
            "count",
        );
        r.put(
            "maintain.damage_region_mean",
            self.maintain_damage_region_mean,
            "nodes",
        );
        r.put("serve.read_p50_ms", self.serve_read_p50_ms, "ms");
        r.put("serve.read_p90_ms", self.serve_read_p90_ms, "ms");
        r.put("serve.tick_p50_ms", self.serve_tick_p50_ms, "ms");
        r.put("serve.tick_p90_ms", self.serve_tick_p90_ms, "ms");
        r.put("serve.stats_shadow_ms", self.serve_stats_shadow_ms, "ms");
        r.put("serve.read_wait_ms", self.serve_read_wait_ms, "ms");
        r.put("serve.request_p90_ms", self.serve_request_p90_ms, "ms");
        r.put("serve.requests", self.serve_requests as f64, "count");
        r.put("serve.ticks", self.serve_ticks as f64, "count");
        r.put(
            "serve.churn_admitted",
            self.serve_churn_admitted as f64,
            "count",
        );
        r.put(
            "serve.churn_rejected",
            self.serve_churn_rejected as f64,
            "count",
        );
        r.put("gen.late_p90_ms", self.gen_late_p90_ms, "ms");
        r.put("gen.offered_per_s", self.gen_offered_per_s, "1/s");
        r.put("gen.completed_per_s", self.gen_completed_per_s, "1/s");
        r.put("obs.overhead_pct", self.obs_overhead_pct, "%");
        r.put("obs.attributed_pct", self.obs_attributed_pct, "%");
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB; 0 where the kernel
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Prints a `note` line: a figure with its percentile and sample count,
/// for the log and the A/A report; the result is only the last line.
pub fn note(name: &str, p: Option<Pct>) {
    match p {
        Some(p) => println!("note {name} p{} = {:.4} ms (n = {})", p.level, p.value, p.n),
        None => println!("note {name}: too few samples for this percentile"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_the_contract_shape() {
        let mut r = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: Vec::new(),
        };
        r.put("setup_s", 0.8125, "s");
        r.put("cds_size", 1234.0, "count");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8125, \"unit\": \"s\"}, \
             \"cds_size\": {\"value\": 1234.0, \"unit\": \"count\"}}}"
        );
        assert_eq!(r.ok_share(), 1.0);
    }
}
