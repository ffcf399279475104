//! `EventSource::drive` against the loops it replaced, kept here verbatim
//! as oracles: `mcds-cli churn`'s synthetic and random-waypoint loops and
//! E22's `build_trace`.  Each oracle records what it applied where its
//! original printed, aggregated or discarded it.
//!
//! Over ten seeds per case, the driver must apply the same events, yield
//! equal [`RepairReport`]s (every field but `wall`) and the same count
//! of burst events: plain churn, one-move streams, fault bursts at m = 1
//! and m = 2, an `events` limit that cuts a burst short, a waypoint walk,
//! and a waypoint pause long enough to hit the epoch cap.

use std::time::Duration;

use mcds_geom::{Aabb, Point};
use mcds_maintain::{
    waypoint_epoch, ChurnConfig, ChurnGen, EventSource, FaultConfig, FaultGen, MaintainConfig,
    Maintainer, RepairReport, TopologyEvent,
};
use mcds_rng::rngs::StdRng;
use mcds_rng::SeedableRng;
use mcds_udg::gen;
use mcds_udg::mobility::RandomWaypoint;

const SEEDS: std::ops::Range<u64> = 1..11;

/// What a run applied, in order: each report with its wall time zeroed,
/// as text (so it holds the event), and whether a fault burst produced
/// it.
type Applied = Vec<(String, bool)>;

fn key(report: &RepairReport) -> String {
    let mut report = report.clone();
    report.wall = Duration::ZERO;
    format!("{report:?}")
}

fn bursts(run: &Applied) -> usize {
    run.iter().filter(|(_, burst)| *burst).count()
}

/// A synthetic churn run of `mcds-cli churn`.
#[derive(Debug, Clone, Copy)]
struct Churn {
    n: usize,
    side: f64,
    events: usize,
    m: usize,
    p_join: f64,
    p_leave: f64,
    /// `(every, radius, kill)`: a burst every `every`-th slot.
    faults: Option<(usize, f64, usize)>,
}

impl Churn {
    const PLAIN: Churn = Churn {
        n: 60,
        side: 5.0,
        events: 60,
        m: 1,
        p_join: 0.1,
        p_leave: 0.1,
        faults: None,
    };

    /// The CLI's set-up: the deployment is the first draw of the run's
    /// generator, which then draws the events.
    fn start(&self, seed: u64) -> (Maintainer, StdRng, ChurnGen, Option<FaultGen>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = MaintainConfig {
            m: self.m,
            ..MaintainConfig::default()
        };
        let pts = gen::uniform_in_square(&mut rng, self.n, self.side);
        let churn = ChurnGen::new(ChurnConfig {
            region: Aabb::square(self.side),
            p_join: self.p_join,
            p_leave: self.p_leave,
            move_radius: 0.5,
            min_population: 4,
        });
        let faults = self.faults.map(|(_, radius, batch)| {
            FaultGen::new(FaultConfig {
                radius,
                batch,
                min_population: 4,
            })
        });
        (Maintainer::with_population(cfg, pts), rng, churn, faults)
    }

    fn driven(&self, seed: u64) -> Applied {
        let (mut engine, mut rng, churn, faults) = self.start(seed);
        let faults = faults.zip(self.faults.map(|(every, ..)| every));
        let mut out = Vec::new();
        EventSource::Churn(churn, faults).drive(&mut engine, &mut rng, self.events, |r, b| {
            out.push((key(r), b))
        });
        out
    }

    fn oracle(&self, seed: u64) -> Applied {
        let (mut engine, mut rng, churn, faults) = self.start(seed);
        let every = self.faults.map_or(0, |(every, ..)| every);
        cli_churn_loop(&mut engine, &mut rng, churn, faults, every, self.events)
    }

    /// Asserts that the driver matches the oracle on every seed, and
    /// returns the oracle runs.
    fn check(&self) -> Vec<Applied> {
        SEEDS
            .map(|seed| {
                let want = self.oracle(seed);
                assert_eq!(want.len(), self.events, "{self:?} seed {seed}");
                assert_eq!(self.driven(seed), want, "{self:?} seed {seed}");
                want
            })
            .collect()
    }
}

/// `mcds-cli churn`'s synthetic loop before the driver.
fn cli_churn_loop(
    engine: &mut Maintainer,
    rng: &mut StdRng,
    mut source: ChurnGen,
    mut faults: Option<FaultGen>,
    fault_every: usize,
    events: usize,
) -> Applied {
    let mut out = Vec::new();
    let mut applied = 0usize;
    let mut slot = 0usize;
    // Alternate the two failure models on successive fault slots so a
    // single run exercises both correlated and independent deaths.
    let mut regional = true;
    while applied < events {
        slot += 1;
        let mut burst: Vec<TopologyEvent> = Vec::new();
        if let Some(f) = faults.as_mut() {
            if slot.is_multiple_of(fault_every) {
                let alive = engine.alive();
                burst = if regional {
                    f.regional_kill(rng, &alive)
                } else {
                    f.batch_kill(rng, &alive)
                };
                regional = !regional;
            }
        }
        let from_burst = !burst.is_empty();
        if burst.is_empty() {
            // Ordinary churn slot (or a fault burst suppressed by the
            // population floor — fall back to churn so the loop always
            // makes progress).
            burst.push(source.next_event(rng, &engine.alive()));
        }
        for event in burst {
            if applied == events {
                break;
            }
            let report = engine.apply(event);
            out.push((key(&report), from_burst));
            applied += 1;
        }
    }
    out
}

/// A random-waypoint run of `mcds-cli churn --waypoint`.
#[derive(Debug, Clone, Copy)]
struct Walk {
    n: usize,
    pause: f64,
    dt: f64,
    events: usize,
}

impl Walk {
    fn start(&self, seed: u64) -> (Maintainer, StdRng, RandomWaypoint) {
        let mut rng = StdRng::seed_from_u64(seed);
        let walk = RandomWaypoint::new(&mut rng, self.n, Aabb::square(6.0), (0.5, 1.5), self.pause);
        let pts = walk.positions().to_vec();
        (
            Maintainer::with_population(MaintainConfig::default(), pts),
            rng,
            walk,
        )
    }

    fn driven(&self, seed: u64) -> Applied {
        let (mut engine, mut rng, walk) = self.start(seed);
        let mut out = Vec::new();
        EventSource::Waypoint(walk, self.dt).drive(&mut engine, &mut rng, self.events, |r, b| {
            out.push((key(r), b))
        });
        out
    }

    fn oracle(&self, seed: u64) -> Applied {
        let (mut engine, mut rng, walk) = self.start(seed);
        cli_waypoint_loop(&mut engine, &mut rng, walk, self.n, self.dt, self.events)
    }
}

/// `mcds-cli churn --waypoint`'s loop before the driver.
fn cli_waypoint_loop(
    engine: &mut Maintainer,
    rng: &mut StdRng,
    mut walk: RandomWaypoint,
    n: usize,
    dt: f64,
    events: usize,
) -> Applied {
    let mut out = Vec::new();
    let ids: Vec<usize> = (0..n).collect();
    let mut applied = 0;
    let mut epochs = 0usize;
    // A long --pause can make whole epochs eventless; bound the number
    // of epochs so the loop terminates regardless.
    let max_epochs = events.saturating_mul(50).max(1000);
    while applied < events && epochs < max_epochs {
        epochs += 1;
        let epoch = waypoint_epoch(&mut walk, rng, dt, &ids);
        for event in epoch {
            if applied == events {
                break;
            }
            let report = engine.apply(event);
            out.push((key(&report), false));
            applied += 1;
        }
    }
    out
}

/// E22's shared trace of `events` events: the trace, its count of burst
/// events and the reports of the engine that drew it.
type Trace = (Vec<TopologyEvent>, usize, Vec<String>);

/// E22's `build_trace` before its m = 1 arm recorded the trace, which
/// also returns its scratch engine's reports.
fn build_trace(
    rng: &mut StdRng,
    pts: &[Point],
    side: f64,
    events: usize,
    fault_every: usize,
) -> Trace {
    let mut engine = Maintainer::with_population(MaintainConfig::default(), pts.to_vec());
    let mut churn = ChurnGen::new(ChurnConfig {
        region: Aabb::square(side),
        // Joins outpace leaves so the injected deaths do not drain the
        // population over the run.
        p_join: 0.2,
        p_leave: 0.05,
        move_radius: 0.5,
        min_population: 4,
    });
    let mut faults = FaultGen::new(FaultConfig {
        radius: 1.25,
        batch: 3,
        min_population: pts.len() / 2,
    });
    let mut trace = Vec::with_capacity(events);
    let mut reports = Vec::with_capacity(events);
    let mut fault_deaths = 0usize;
    let mut slot = 0usize;
    let mut regional = true;
    while trace.len() < events {
        slot += 1;
        let mut burst = if slot.is_multiple_of(fault_every) {
            let alive = engine.alive();
            let b = if regional {
                faults.regional_kill(rng, &alive)
            } else {
                faults.batch_kill(rng, &alive)
            };
            regional = !regional;
            fault_deaths += b.len().min(events - trace.len());
            b
        } else {
            Vec::new()
        };
        if burst.is_empty() {
            burst.push(churn.next_event(rng, &engine.alive()));
        }
        for event in burst {
            if trace.len() == events {
                break;
            }
            reports.push(key(&engine.apply(event)));
            trace.push(event);
        }
    }
    (trace, fault_deaths, reports)
}

/// E22's deployment (`n` points, then the trace from the same
/// generator), through [`build_trace`] or through the driver as E22's
/// m = 1 arm runs it.
fn e22_trace(seed: u64, events: usize, oracle: bool) -> Trace {
    let (n, side, fault_every) = (50, 5.5, 3);
    let mut rng = StdRng::seed_from_u64(seed);
    let pts = gen::uniform_in_square(&mut rng, n, side);
    if oracle {
        return build_trace(&mut rng, &pts, side, events, fault_every);
    }
    let churn = ChurnGen::new(ChurnConfig {
        region: Aabb::square(side),
        p_join: 0.2,
        p_leave: 0.05,
        move_radius: 0.5,
        min_population: 4,
    });
    let faults = FaultGen::new(FaultConfig {
        radius: 1.25,
        batch: 3,
        min_population: n / 2,
    });
    let source = EventSource::Churn(churn, Some((faults, fault_every)));
    let mut engine = Maintainer::with_population(MaintainConfig::default(), pts);
    let (mut trace, mut deaths, mut reports) = (Vec::new(), 0, Vec::new());
    source.drive(&mut engine, &mut rng, events, |report, burst| {
        trace.push(report.event);
        deaths += usize::from(burst);
        reports.push(key(report));
    });
    (trace, deaths, reports)
}

/// The first limit below the run's length that cuts a burst short: two
/// burst events in a row belong to one burst when a churn slot separates
/// bursts (every second slot or sparser).
fn first_cut(run: &Applied) -> Option<usize> {
    (1..run.len()).find(|&i| run[i - 1].1 && run[i].1)
}

#[test]
fn plain_churn_matches_the_cli_loop() {
    let runs = Churn::PLAIN.check();
    assert!(runs.iter().all(|run| bursts(run) == 0));
}

#[test]
fn one_move_streams_match_the_cli_loop() {
    for m in [1, 2] {
        let case = Churn {
            p_join: 0.0,
            p_leave: 0.0,
            m,
            ..Churn::PLAIN
        };
        for run in case.check() {
            assert!(run.iter().all(|(report, _)| report.contains("event: Move")));
        }
    }
}

#[test]
fn fault_bursts_match_the_cli_loop_at_m_1_and_2() {
    for m in [1, 2] {
        let case = Churn {
            n: 80,
            m,
            faults: Some((3, 1.5, 2)),
            ..Churn::PLAIN
        };
        let runs = case.check();
        assert!(runs.iter().all(|run| bursts(run) > 0), "{case:?}");
    }
}

#[test]
fn fault_bursts_match_e22s_trace() {
    for seed in SEEDS {
        let want = e22_trace(seed, 80, true);
        assert_eq!(want.0.len(), 80);
        assert!(want.1 > 0, "seed {seed}: no burst");
        assert_eq!(e22_trace(seed, 80, false), want, "seed {seed}");
    }
}

#[test]
fn an_events_limit_cuts_a_burst_short_alike() {
    let case = Churn {
        n: 80,
        m: 2,
        faults: Some((2, 1.5, 3)),
        ..Churn::PLAIN
    };
    for (seed, run) in SEEDS.zip(case.check()) {
        let events = first_cut(&run).expect("a burst of two or more");
        let cut = Churn { events, ..case };
        assert_eq!(cut.driven(seed), cut.oracle(seed), "seed {seed}");
        assert_eq!(cut.oracle(seed)[..], run[..events], "seed {seed}");
    }
    // E22 at every limit up to 30 events: the oracle's burst counts give
    // each event's flag, `deaths[l + 1] - deaths[l]` for event `l`.
    for seed in SEEDS {
        let mut deaths = vec![0];
        for events in 1..=30 {
            let want = e22_trace(seed, events, true);
            assert_eq!(
                e22_trace(seed, events, false),
                want,
                "seed {seed}, {events} events"
            );
            deaths.push(want.1);
        }
        let burst = |l: usize| deaths[l + 1] > deaths[l];
        assert!(
            (1..29).any(|l| burst(l - 1) && burst(l)),
            "seed {seed}: no limit cut a burst"
        );
    }
}

#[test]
fn waypoint_walks_match_the_cli_loop() {
    let case = Walk {
        n: 40,
        pause: 0.2,
        dt: 0.25,
        events: 60,
    };
    for seed in SEEDS {
        let want = case.oracle(seed);
        assert_eq!(want.len(), case.events);
        assert_eq!(case.driven(seed), want, "seed {seed}");
    }
}

#[test]
fn a_long_pause_stops_at_the_epoch_cap_alike() {
    // Each leg ends within one epoch and is followed by a 600-epoch
    // pause, so the cap at 10 events, 1 000 epochs (50 × 10 would be
    // 500), yields about two moves per node: short of the limit.
    let case = Walk {
        n: 3,
        pause: 6e4,
        dt: 100.0,
        events: 10,
    };
    for seed in SEEDS {
        let want = case.oracle(seed);
        assert!(
            want.len() < case.events,
            "seed {seed}: {} events",
            want.len()
        );
        assert_eq!(case.driven(seed), want, "seed {seed}");
    }
}
