//! An open-loop request schedule.
//!
//! Requests are due at fixed times regardless of how fast earlier ones
//! completed.  One connection sends them in order: a request goes out at
//! its due time, or as soon as the previous one finished when the
//! connection runs behind.  Latency is measured from the *due* time, so a
//! stall shows as later latencies for every request queued behind it, not
//! as fewer requests.  Requests still unsent at the deadline count as
//! failed.

use std::time::{Duration, Instant};

/// The time source, so tests can drive the schedule with a fake clock.
pub trait Clock {
    /// Time since the schedule's origin.
    fn now(&self) -> Duration;
    /// Blocks until `now() >= t`.
    fn sleep_until(&self, t: Duration);
}

/// The wall clock, with its origin at construction.
#[derive(Debug, Clone, Copy)]
pub struct WallClock(Instant);

impl WallClock {
    /// A clock whose origin is now.
    pub fn start() -> WallClock {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        let now = self.now();
        if t > now {
            std::thread::sleep(t - now);
        }
    }
}

/// What happened to one scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// When it was due.
    pub due: Duration,
    /// How late it was sent (0 when on time; `None` if never sent).
    pub late: Option<Duration>,
    /// Completion minus due time (`None` if never sent).
    pub latency: Option<Duration>,
    /// Whether the request was sent and its response passed the check.
    pub ok: bool,
}

/// `count` due times `offset + i · period`.
pub fn fixed_rate(count: usize, period: Duration, offset: Duration) -> Vec<Duration> {
    (0..count).map(|i| offset + period * i as u32).collect()
}

/// Runs `send(i)` for every due time in order and times it from its due
/// time.  `send` returns whether the response was correct.  Requests not
/// yet sent when the clock passes `deadline` are reported unsent and
/// failed.
pub fn run<C: Clock>(
    clock: &C,
    due: &[Duration],
    deadline: Duration,
    mut send: impl FnMut(usize) -> bool,
) -> Vec<Outcome> {
    let mut out = Vec::with_capacity(due.len());
    for (i, &d) in due.iter().enumerate() {
        if clock.now() > deadline {
            out.push(Outcome {
                due: d,
                late: None,
                latency: None,
                ok: false,
            });
            continue;
        }
        clock.sleep_until(d);
        let sent = clock.now();
        let ok = send(i);
        let done = clock.now();
        out.push(Outcome {
            due: d,
            late: Some(sent - d),
            latency: Some(done - d),
            ok,
        });
    }
    out
}

/// Generator-side figures of one schedule.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Latencies in ms; a failed request counts as infinitely late.
    pub latency_ms: Vec<f64>,
    /// Send lateness in ms of the requests that were sent.
    pub late_ms: Vec<f64>,
    /// Requests scheduled.
    pub attempted: usize,
    /// Requests unsent or answered wrongly.
    pub failed: usize,
    /// Time of the last completion.
    pub last_done: Duration,
}

impl Tally {
    /// Folds outcomes into the tally.
    pub fn add(&mut self, outcomes: &[Outcome]) {
        for o in outcomes {
            self.attempted += 1;
            if let Some(late) = o.late {
                self.late_ms.push(ms(late));
            }
            match (o.ok, o.latency) {
                (true, Some(lat)) => {
                    self.latency_ms.push(ms(lat));
                    self.last_done = self.last_done.max(o.due + lat);
                }
                _ => {
                    self.failed += 1;
                    self.latency_ms.push(f64::INFINITY);
                }
            }
        }
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to.
    struct FakeClock(Cell<Duration>);

    impl FakeClock {
        fn advance(&self, d: Duration) {
            self.0.set(self.0.get() + d);
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&self, t: Duration) {
            if t > self.0.get() {
                self.0.set(t);
            }
        }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn on_time_requests_cost_their_service_time() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let due = fixed_rate(50, 10 * MS, Duration::ZERO);
        let out = run(&clock, &due, 10_000 * MS, |_| {
            clock.advance(2 * MS);
            true
        });
        assert_eq!(out.len(), 50);
        assert!(out.iter().all(|o| o.late == Some(Duration::ZERO)));
        assert!(out.iter().all(|o| o.latency == Some(2 * MS)));
    }

    #[test]
    fn a_stall_shows_as_later_latencies_not_fewer_requests() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let due = fixed_rate(100, 10 * MS, Duration::ZERO);
        let out = run(&clock, &due, 10_000 * MS, |i| {
            // Request 10 stalls for 500 ms; every other one takes 2 ms.
            clock.advance(if i == 10 { 500 * MS } else { 2 * MS });
            true
        });
        assert_eq!(out.len(), 100, "a stall must not drop requests");
        assert_eq!(out[10].latency, Some(500 * MS));
        // Request 11 was due at 110 ms but could only go out at 600 ms.
        assert_eq!(out[11].late, Some(490 * MS));
        assert_eq!(out[11].latency, Some(492 * MS));
        // The backlog drains at 8 ms per request, so lateness falls
        // steadily until the schedule catches up.
        let late: Vec<Duration> = out[11..].iter().map(|o| o.late.unwrap()).collect();
        assert!(late.windows(2).all(|w| w[1] <= w[0]));
        assert_eq!(*late.last().unwrap(), Duration::ZERO);
        let mut tally = Tally::default();
        tally.add(&out);
        assert_eq!((tally.attempted, tally.failed), (100, 0));
        let slow = tally.latency_ms.iter().filter(|&&l| l > 2.0).count();
        assert!(slow > 50, "only {slow} requests saw the stall");
    }

    #[test]
    fn requests_past_the_deadline_fail_instead_of_vanishing() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let due = fixed_rate(20, 10 * MS, Duration::ZERO);
        let out = run(&clock, &due, 100 * MS, |i| {
            clock.advance(if i == 5 { 1_000 * MS } else { MS });
            i != 3
        });
        assert_eq!(out.len(), 20);
        let mut tally = Tally::default();
        tally.add(&out);
        // Request 3 answered wrongly; 6..20 were never sent.
        assert_eq!(tally.attempted, 20);
        assert_eq!(tally.failed, 1 + 14);
        assert_eq!(tally.late_ms.len(), 6);
        assert!(tally.latency_ms.iter().filter(|l| l.is_infinite()).count() == 15);
    }
}
