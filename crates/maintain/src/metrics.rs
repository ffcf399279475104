//! Aggregated stability metrics over a stream of [`RepairReport`]s.
//!
//! The per-event reports answer "what did this event cost"; the
//! [`StabilityMetrics`] accumulator answers the questions the churn
//! experiments plot: how stable is the backbone (mean survival), how
//! local is repair (locality histogram), how often does the engine give
//! up and recompute (decision counts by reason), and how far from the
//! fresh greedy baseline does maintenance drift (size-ratio statistics).

use std::time::Duration;

use crate::engine::{RecomputeReason, RepairDecision, RepairReport};

/// Running aggregation of [`RepairReport`]s.
///
/// All fields are public so experiment binaries can serialize them
/// directly; use [`StabilityMetrics::record`] to feed reports in.
///
/// ```
/// use mcds_geom::Point;
/// use mcds_maintain::{MaintainConfig, Maintainer, StabilityMetrics, TopologyEvent};
///
/// let pts = (0..6).map(|i| Point::new(i as f64 * 0.9, 0.0)).collect();
/// let mut engine = Maintainer::with_population(MaintainConfig::default(), pts);
/// let mut metrics = StabilityMetrics::new();
/// metrics.record(&engine.apply(TopologyEvent::Join { pos: Point::new(5.4, 0.0) }));
/// metrics.record(&engine.apply(TopologyEvent::Leave { node: 0 }));
/// assert_eq!(metrics.events, 2);
/// assert_eq!(metrics.invalid_events, 0);
/// assert!(metrics.mean_survival() > 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StabilityMetrics {
    /// Total events recorded.
    pub events: usize,
    /// Events resolved by local repair.
    pub repaired: usize,
    /// Full recomputes by reason: `[ColdStart, Stalled, Invalid, Drift]`.
    pub recomputed: [usize; 4],
    /// Events whose maintained set failed verification (should stay 0).
    pub invalid_events: usize,
    /// Sum of [`RepairReport::violations`] — nodes an event undominated
    /// before repair, the robustness figure of the failure-injection
    /// experiment (E22).
    pub violations_sum: usize,
    /// Events that undominated at least one node before repair.
    pub violated_events: usize,
    /// Sum of per-event survival fractions.
    pub survival_sum: f64,
    /// Minimum per-event survival fraction seen (1.0 before any event).
    pub survival_min: f64,
    /// Repair-locality histogram: events bucketed by
    /// `nodes_touched / alive` into `[0–10%, 10–25%, 25–50%, 50–100%]`.
    /// Recomputes count in the last bucket (they touch everything).
    pub locality_hist: [usize; 4],
    /// Sum of `nodes_touched` over locally repaired events.
    pub touched_sum: usize,
    /// Sum of maintained-over-baseline size ratios.
    pub ratio_sum: f64,
    /// Worst maintained-over-baseline size ratio seen.
    pub ratio_max: f64,
    /// Total wall time across events.
    pub wall_total: Duration,
    /// Longest single-event wall time.
    pub wall_max: Duration,
}

impl StabilityMetrics {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        StabilityMetrics {
            survival_min: 1.0,
            ..StabilityMetrics::default()
        }
    }

    /// Folds one report into the aggregate.
    pub fn record(&mut self, report: &RepairReport) {
        self.events += 1;
        match report.decision {
            RepairDecision::Repaired => {
                self.repaired += 1;
                self.touched_sum += report.nodes_touched;
                let frac = if report.alive == 0 {
                    0.0
                } else {
                    report.nodes_touched as f64 / report.alive as f64
                };
                self.locality_hist[locality_bucket(frac)] += 1;
            }
            RepairDecision::Recomputed(reason) => {
                self.recomputed[reason_index(reason)] += 1;
                self.locality_hist[3] += 1;
            }
        }
        if !report.valid {
            self.invalid_events += 1;
        }
        self.violations_sum += report.violations;
        if report.violations > 0 {
            self.violated_events += 1;
        }
        self.survival_sum += report.survival;
        if report.survival < self.survival_min {
            self.survival_min = report.survival;
        }
        let ratio = report.size_ratio();
        self.ratio_sum += ratio;
        if ratio > self.ratio_max {
            self.ratio_max = ratio;
        }
        self.wall_total += report.wall;
        if report.wall > self.wall_max {
            self.wall_max = report.wall;
        }
    }

    /// Fraction of events resolved by local repair.
    pub fn repair_rate(&self) -> f64 {
        if self.events == 0 {
            return 1.0;
        }
        self.repaired as f64 / self.events as f64
    }

    /// Total recomputes across all reasons.
    pub fn recompute_total(&self) -> usize {
        self.recomputed.iter().sum()
    }

    /// Mean backbone survival fraction per event.
    pub fn mean_survival(&self) -> f64 {
        if self.events == 0 {
            return 1.0;
        }
        self.survival_sum / self.events as f64
    }

    /// Mean maintained-over-baseline size ratio.
    pub fn mean_ratio(&self) -> f64 {
        if self.events == 0 {
            return 1.0;
        }
        self.ratio_sum / self.events as f64
    }

    /// Mean nodes touched per locally repaired event.
    pub fn mean_touched(&self) -> f64 {
        if self.repaired == 0 {
            return 0.0;
        }
        self.touched_sum as f64 / self.repaired as f64
    }

    /// Mean wall time per event.
    pub fn mean_wall(&self) -> Duration {
        if self.events == 0 {
            return Duration::ZERO;
        }
        self.wall_total / self.events as u32
    }

    /// Mean wall time per event, in microseconds — the unit the churn
    /// artifacts report (wall-clock data is quarantined from comparable
    /// CSVs; see DESIGN.md §8).
    pub fn mean_wall_us(&self) -> f64 {
        self.mean_wall().as_secs_f64() * 1e6
    }

    /// Longest single-event wall time, in microseconds.
    pub fn max_wall_us(&self) -> f64 {
        self.wall_max.as_secs_f64() * 1e6
    }
}

/// Maps a touched-fraction to its [`StabilityMetrics::locality_hist`]
/// bucket.
fn locality_bucket(frac: f64) -> usize {
    if frac <= 0.10 {
        0
    } else if frac <= 0.25 {
        1
    } else if frac <= 0.50 {
        2
    } else {
        3
    }
}

/// Fixed index of each reason in [`StabilityMetrics::recomputed`].
fn reason_index(reason: RecomputeReason) -> usize {
    match reason {
        RecomputeReason::ColdStart => 0,
        RecomputeReason::Stalled => 1,
        RecomputeReason::Invalid => 2,
        RecomputeReason::Drift => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TopologyEvent;
    use mcds_geom::Point;

    fn report(decision: RepairDecision, touched: usize, survival: f64) -> RepairReport {
        RepairReport {
            seq: 0,
            event: TopologyEvent::Join {
                pos: Point::new(0.0, 0.0),
            },
            node: 0,
            alive: 100,
            giant: 100,
            nodes_touched: touched,
            violations: 0,
            dominators_added: 0,
            dominators_removed: 0,
            connectors_added: 0,
            connectors_removed: 0,
            decision,
            cds_size: 12,
            baseline_size: 10,
            survival,
            wall: Duration::from_micros(50),
            valid: true,
        }
    }

    #[test]
    fn empty_metrics_have_neutral_summaries() {
        let m = StabilityMetrics::new();
        assert_eq!(m.events, 0);
        assert_eq!(m.repair_rate(), 1.0);
        assert_eq!(m.mean_survival(), 1.0);
        assert_eq!(m.mean_ratio(), 1.0);
        assert_eq!(m.mean_wall(), Duration::ZERO);
    }

    #[test]
    fn records_split_by_decision() {
        let mut m = StabilityMetrics::new();
        m.record(&report(RepairDecision::Repaired, 5, 1.0));
        m.record(&report(RepairDecision::Repaired, 30, 0.8));
        m.record(&report(
            RepairDecision::Recomputed(RecomputeReason::Drift),
            0,
            0.5,
        ));
        assert_eq!(m.events, 3);
        assert_eq!(m.repaired, 2);
        assert_eq!(m.recompute_total(), 1);
        assert_eq!(m.recomputed[3], 1);
        // 5/100 → bucket 0; 30/100 → bucket 2; recompute → bucket 3.
        assert_eq!(m.locality_hist, [1, 0, 1, 1]);
        assert!((m.mean_survival() - (1.0 + 0.8 + 0.5) / 3.0).abs() < 1e-12);
        assert!((m.survival_min - 0.5).abs() < 1e-12);
        assert!((m.mean_ratio() - 1.2).abs() < 1e-12);
        assert!((m.ratio_max - 1.2).abs() < 1e-12);
        assert!((m.mean_touched() - 17.5).abs() < 1e-12);
    }

    #[test]
    fn locality_buckets_are_inclusive_on_the_left_edge() {
        assert_eq!(locality_bucket(0.0), 0);
        assert_eq!(locality_bucket(0.10), 0);
        assert_eq!(locality_bucket(0.11), 1);
        assert_eq!(locality_bucket(0.25), 1);
        assert_eq!(locality_bucket(0.50), 2);
        assert_eq!(locality_bucket(0.51), 3);
        assert_eq!(locality_bucket(1.0), 3);
    }
}
