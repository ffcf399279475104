//! The property runner: corpus replay, random exploration, shrinking,
//! and failure reporting.
//!
//! # Seed derivation
//!
//! Every run has a *master seed* (default [`DEFAULT_SEED`], overridable
//! with [`Property::seed`] or the `MCDS_CHECK_SEED` environment
//! variable).  The property's name is folded in with
//! [`mcds_rng::split_seed`], and case `i` draws from
//! `StdRng::from_stream(property_master, i)` — so each case's input is a
//! pure function of `(seed, name, i)`, independent of execution order,
//! thread count, and every other property in the binary.
//!
//! # Replay
//!
//! A failure report prints `MCDS_CHECK_REPLAY=<master>:<stream>`.
//! Exporting that variable makes every property in the process replay
//! exactly that one case (properties whose derived master does not match
//! simply pass), which turns a red CI log into a local single-case
//! debugging session.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use mcds_rng::rngs::StdRng;
use mcds_rng::{split_seed, SeedableRng};

use crate::corpus::{self, Case};
use crate::gen::Gen;

/// The default master seed: the paper's venue year, ICDCS 2008.
pub const DEFAULT_SEED: u64 = 2008;

/// The default number of passing cases a property must accumulate.
pub const DEFAULT_CASES: usize = 64;

/// Upper bound on property evaluations spent shrinking one failure.
const MAX_SHRINK_STEPS: usize = 1000;

/// The outcome of running a property on one generated value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestResult {
    /// The property held.
    Pass,
    /// The input did not satisfy the property's preconditions; the case
    /// counts toward neither passes nor failures.
    Discard,
    /// The property failed with the given message.
    Fail(String),
}

/// Runner configuration (normally reached through the [`Property`]
/// builder methods).
#[derive(Debug, Clone)]
pub struct Config {
    /// Passing cases required (default [`DEFAULT_CASES`]).
    pub cases: usize,
    /// Master seed (default [`DEFAULT_SEED`]).
    pub seed: u64,
    /// Directory of `*.case` regression files to replay before random
    /// exploration, and into which new failures are persisted.
    pub corpus_dir: Option<PathBuf>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: DEFAULT_CASES,
            seed: DEFAULT_SEED,
            corpus_dir: None,
        }
    }
}

/// Statistics of a passing run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Random cases that passed.
    pub cases: usize,
    /// Cases discarded by `prop_assume!`.
    pub discards: usize,
    /// Corpus entries replayed (all passed).
    pub corpus_replayed: usize,
    /// True if exploration stopped early because the discard budget
    /// (10× the case count) ran out.  [`Property::run`] treats this as
    /// an error; `run_report` callers can inspect it.
    pub gave_up: bool,
}

/// A failed property: the replay coordinates, the original failing
/// input, and the shrunk counterexample.
#[derive(Debug, Clone)]
pub struct Failure<T> {
    /// The property name.
    pub property: String,
    /// The derived master seed generation used (print-ready for
    /// `MCDS_CHECK_REPLAY`).
    pub master: u64,
    /// The failing case's stream index.
    pub stream: u64,
    /// The input as originally generated.
    pub original: T,
    /// The smallest failing input shrinking reached (equals `original`
    /// when nothing smaller failed).
    pub shrunk: T,
    /// Property evaluations spent shrinking.
    pub shrink_steps: usize,
    /// The failure message of the *shrunk* counterexample.
    pub message: String,
    /// The corpus file this failure was replayed from, if any.
    pub replayed_from: Option<PathBuf>,
    /// Where the failure was persisted, if a corpus directory is
    /// configured and the write succeeded.
    pub persisted_to: Option<PathBuf>,
}

impl<T: Debug> Failure<T> {
    /// The human-readable report [`Property::run`] panics with.
    pub fn report(&self) -> String {
        let mut out = format!(
            "property `{}` failed\n  replay: MCDS_CHECK_REPLAY={}:{} (master:stream)\n",
            self.property, self.master, self.stream
        );
        if let Some(path) = &self.replayed_from {
            out.push_str(&format!("  replayed from corpus: {}\n", path.display()));
        }
        out.push_str(&format!(
            "  original input (case {}): {:?}\n  shrunk counterexample ({} steps): {:?}\n  failure: {}\n",
            self.stream, self.original, self.shrink_steps, self.shrunk, self.message
        ));
        if let Some(path) = &self.persisted_to {
            out.push_str(&format!("  persisted to corpus: {}\n", path.display()));
        }
        out
    }
}

/// A named property with its run configuration.  See the crate docs for
/// an end-to-end example.
#[derive(Debug, Clone)]
pub struct Property {
    name: String,
    config: Config,
}

impl Property {
    /// A property named `name` with default configuration, honoring the
    /// `MCDS_CHECK_SEED` and `MCDS_CHECK_CASES` environment overrides.
    pub fn new(name: &str) -> Self {
        let mut config = Config::default();
        if let Some(seed) = env_u64("MCDS_CHECK_SEED") {
            config.seed = seed;
        }
        if let Some(cases) = env_u64("MCDS_CHECK_CASES") {
            config.cases = cases as usize;
        }
        Property {
            name: name.to_string(),
            config,
        }
    }

    /// Sets the number of passing cases required.
    pub fn cases(mut self, cases: usize) -> Self {
        self.config.cases = cases;
        self
    }

    /// Sets the master seed (still overridden by `MCDS_CHECK_SEED` set
    /// in [`Property::new`] only if the variable is present).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Points the property at a regression-corpus directory: matching
    /// `*.case` files replay before random exploration, and new
    /// failures are persisted there.
    pub fn corpus(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.corpus_dir = Some(dir.into());
        self
    }

    /// The property's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The derived master seed this property generates from.
    pub fn derived_master(&self) -> u64 {
        split_seed(self.config.seed, name_hash(&self.name))
    }

    /// Runs the property, panicking with a [`Failure::report`] on the
    /// first (shrunk) counterexample, or if the discard budget runs out.
    pub fn run<G, P>(&self, gen: &G, prop: P)
    where
        G: Gen,
        P: Fn(&G::Value) -> TestResult,
    {
        match self.run_report(gen, prop) {
            Ok(stats) if stats.gave_up => panic!(
                "property `{}` gave up: {} discards before reaching {} cases \
                 (weaken the prop_assume! or strengthen the generator)",
                self.name, stats.discards, self.config.cases
            ),
            Ok(_) => {}
            Err(failure) => panic!("{}", failure.report()),
        }
    }

    /// Runs the property and returns the outcome instead of panicking —
    /// the meta-testable core of [`Property::run`].
    ///
    /// # Errors
    ///
    /// The shrunk [`Failure`] of the first counterexample found.
    pub fn run_report<G, P>(&self, gen: &G, prop: P) -> Result<RunStats, Box<Failure<G::Value>>>
    where
        G: Gen,
        P: Fn(&G::Value) -> TestResult,
    {
        let master = self.derived_master();

        // Focused replay of a single case, when requested.
        if let Some((replay_master, replay_stream)) = env_replay() {
            if replay_master == master {
                if let Some(failure) = self.run_case(gen, &prop, master, replay_stream, None) {
                    return Err(failure);
                }
            }
            return Ok(RunStats::default());
        }

        let mut stats = RunStats::default();

        // Phase 1: replay the regression corpus.
        if let Some(dir) = &self.config.corpus_dir {
            let entries = corpus::load_dir(dir)
                .unwrap_or_else(|e| panic!("property `{}`: corpus: {e}", self.name));
            for (path, case) in entries {
                if case.prop != self.name {
                    continue;
                }
                if let Some(failure) =
                    self.run_case(gen, &prop, case.master, case.stream, Some(path))
                {
                    return Err(failure);
                }
                stats.corpus_replayed += 1;
            }
        }

        // Phase 2: random exploration on split streams.
        let max_attempts = self.config.cases.saturating_mul(10).max(1);
        let mut stream = 0u64;
        while stats.cases < self.config.cases {
            if (stream as usize) >= max_attempts {
                stats.gave_up = true;
                return Ok(stats);
            }
            let value = gen.generate(&mut StdRng::from_stream(master, stream));
            match run_protected(&prop, &value) {
                TestResult::Pass => stats.cases += 1,
                TestResult::Discard => stats.discards += 1,
                TestResult::Fail(message) => {
                    let mut failure = self.shrink(gen, &prop, master, stream, value, message);
                    if let Some(dir) = &self.config.corpus_dir {
                        let case = Case {
                            prop: self.name.clone(),
                            master,
                            stream,
                        };
                        // Persistence is best-effort: a read-only
                        // checkout must not mask the real failure.
                        failure.persisted_to = corpus::save_case(dir, &case).ok();
                    }
                    return Err(failure);
                }
            }
            stream += 1;
        }
        Ok(stats)
    }

    /// Replays one `(master, stream)` case: generate, test, and shrink
    /// on failure.  Returns `None` when the case passes or discards.
    fn run_case<G, P>(
        &self,
        gen: &G,
        prop: &P,
        master: u64,
        stream: u64,
        replayed_from: Option<PathBuf>,
    ) -> Option<Box<Failure<G::Value>>>
    where
        G: Gen,
        P: Fn(&G::Value) -> TestResult,
    {
        let value = gen.generate(&mut StdRng::from_stream(master, stream));
        match run_protected(prop, &value) {
            TestResult::Pass | TestResult::Discard => None,
            TestResult::Fail(message) => {
                let mut failure = self.shrink(gen, prop, master, stream, value, message);
                failure.replayed_from = replayed_from;
                Some(failure)
            }
        }
    }

    /// Greedy shrink descent: try candidates in generator order, move to
    /// the first that still fails, repeat until a local minimum or
    /// [`MAX_SHRINK_STEPS`].
    fn shrink<G, P>(
        &self,
        gen: &G,
        prop: &P,
        master: u64,
        stream: u64,
        original: G::Value,
        mut message: String,
    ) -> Box<Failure<G::Value>>
    where
        G: Gen,
        P: Fn(&G::Value) -> TestResult,
    {
        let mut current = original.clone();
        let mut steps = 0usize;
        'descend: while steps < MAX_SHRINK_STEPS {
            for candidate in gen.shrink(&current) {
                steps += 1;
                if let TestResult::Fail(m) = run_protected(prop, &candidate) {
                    current = candidate;
                    message = m;
                    continue 'descend;
                }
                if steps >= MAX_SHRINK_STEPS {
                    break 'descend;
                }
            }
            break; // No candidate failed: `current` is locally minimal.
        }
        Box::new(Failure {
            property: self.name.clone(),
            master,
            stream,
            original,
            shrunk: current,
            shrink_steps: steps,
            message,
            replayed_from: None,
            persisted_to: None,
        })
    }
}

/// Replays one corpus [`Case`] against a generator and property,
/// returning a canonical outcome string (`"pass"`, `"discard"`, or the
/// full shrunk failure report).
///
/// The string is a pure function of the case and the code under test —
/// no clocks, no thread identity — which is what the thread-count
/// invariance regression tests diff.
pub fn replay_outcome<G, P>(case: &Case, gen: &G, prop: P) -> String
where
    G: Gen,
    P: Fn(&G::Value) -> TestResult,
{
    let value = gen.generate(&mut StdRng::from_stream(case.master, case.stream));
    match run_protected(&prop, &value) {
        TestResult::Pass => "pass".to_string(),
        TestResult::Discard => "discard".to_string(),
        TestResult::Fail(message) => {
            let failure = Property::new(&case.prop).shrink(
                gen,
                &prop,
                case.master,
                case.stream,
                value,
                message,
            );
            failure.report()
        }
    }
}

/// Runs the property, converting panics (plain `assert!` in ported
/// suites) into [`TestResult::Fail`] so they shrink like any other
/// failure.
fn run_protected<T, P>(prop: &P, value: &T) -> TestResult
where
    P: Fn(&T) -> TestResult,
{
    match catch_unwind(AssertUnwindSafe(|| prop(value))) {
        Ok(result) => result,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "panicked with a non-string payload".to_string()
            };
            TestResult::Fail(format!("panic: {msg}"))
        }
    }
}

/// FNV-1a, folding a property name into the seed space.
fn name_hash(name: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn env_u64(key: &str) -> Option<u64> {
    let raw = std::env::var(key).ok()?;
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) => panic!("{key} must be a u64, got `{raw}`"),
    }
}

/// Parses `MCDS_CHECK_REPLAY=<master>:<stream>`.
fn env_replay() -> Option<(u64, u64)> {
    let raw = std::env::var("MCDS_CHECK_REPLAY").ok()?;
    let parsed = raw
        .split_once(':')
        .and_then(|(m, s)| Some((m.parse().ok()?, s.parse().ok()?)));
    match parsed {
        Some(pair) => Some(pair),
        None => panic!("MCDS_CHECK_REPLAY must be `<master>:<stream>`, got `{raw}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{usizes, vecs};

    #[test]
    fn passing_property_reports_stats() {
        let stats = Property::new("always_passes")
            .cases(40)
            .run_report(&usizes(0..=10), |_| TestResult::Pass)
            .unwrap();
        assert_eq!(stats.cases, 40);
        assert_eq!(stats.discards, 0);
        assert!(!stats.gave_up);
    }

    #[test]
    fn discards_do_not_count_as_cases() {
        let stats = Property::new("half_discarded")
            .cases(30)
            .run_report(&usizes(0..=9), |v| {
                if *v < 5 {
                    TestResult::Discard
                } else {
                    TestResult::Pass
                }
            })
            .unwrap();
        assert_eq!(stats.cases, 30);
        assert!(stats.discards > 0);
    }

    #[test]
    fn impossible_assumption_gives_up() {
        let stats = Property::new("always_discarded")
            .cases(10)
            .run_report(&usizes(0..=9), |_| TestResult::Discard)
            .unwrap();
        assert!(stats.gave_up);
        assert_eq!(stats.cases, 0);
    }

    #[test]
    fn failure_shrinks_to_the_minimal_counterexample() {
        // Fails iff any element is >= 10: the unique minimal failing
        // input under this generator is the one-element vector [10].
        let failure = Property::new("all_elements_small")
            .cases(200)
            .run_report(&vecs(usizes(0..=100), 0..=30), |v| {
                if v.iter().any(|&x| x >= 10) {
                    TestResult::Fail(format!("element >= 10 in {v:?}"))
                } else {
                    TestResult::Pass
                }
            })
            .expect_err("property must fail");
        assert_eq!(failure.shrunk, vec![10], "not fully shrunk");
        assert!(failure.shrunk.len() <= failure.original.len());
        assert!(failure.shrink_steps > 0);
        let report = failure.report();
        assert!(report.contains("MCDS_CHECK_REPLAY="), "{report}");
        assert!(report.contains(&format!("{}:{}", failure.master, failure.stream)));
        assert!(report.contains("[10]"), "{report}");
    }

    #[test]
    fn failures_are_deterministic_across_runs() {
        let run = || {
            Property::new("det")
                .cases(100)
                .run_report(&vecs(usizes(0..=50), 0..=20), |v| {
                    if v.len() >= 3 {
                        TestResult::Fail("too long".into())
                    } else {
                        TestResult::Pass
                    }
                })
                .expect_err("fails")
        };
        let (a, b) = (run(), run());
        assert_eq!(a.stream, b.stream);
        assert_eq!(a.original, b.original);
        assert_eq!(a.shrunk, b.shrunk);
        assert_eq!(a.report(), b.report());
        assert_eq!(a.shrunk.len(), 3, "minimal length for `len >= 3`");
    }

    #[test]
    fn panics_are_caught_and_shrunk() {
        let failure = Property::new("panicky")
            .cases(50)
            .run_report(&usizes(0..=100), |v| {
                assert!(*v < 7, "boom at {v}");
                TestResult::Pass
            })
            .expect_err("must fail");
        assert_eq!(failure.shrunk, 7);
        assert!(failure.message.contains("panic"), "{}", failure.message);
        assert!(failure.message.contains("boom"), "{}", failure.message);
    }

    #[test]
    fn different_properties_draw_different_streams() {
        let value_of = |name: &str| {
            let p = Property::new(name);
            let mut rng = StdRng::from_stream(p.derived_master(), 0);
            vecs(usizes(0..=1000), 5..=5).generate(&mut rng)
        };
        assert_ne!(value_of("prop_a"), value_of("prop_b"));
    }

    #[test]
    fn seed_changes_the_explored_inputs() {
        let explore = |seed: u64| {
            let p = Property::new("seeded").seed(seed);
            let mut rng = StdRng::from_stream(p.derived_master(), 3);
            usizes(0..=1_000_000).generate(&mut rng)
        };
        assert_eq!(explore(1), explore(1));
        assert_ne!(explore(1), explore(2));
    }

    #[test]
    fn replay_outcome_is_canonical() {
        let case = Case {
            prop: "replayable".into(),
            master: 99,
            stream: 4,
        };
        let gen = vecs(usizes(0..=20), 0..=10);
        let pass = replay_outcome(&case, &gen, |_| TestResult::Pass);
        assert_eq!(pass, "pass");
        let fail_a = replay_outcome(&case, &gen, |v| {
            if v.iter().sum::<usize>() > 0 {
                TestResult::Fail("nonzero".into())
            } else {
                TestResult::Pass
            }
        });
        let fail_b = replay_outcome(&case, &gen, |v| {
            if v.iter().sum::<usize>() > 0 {
                TestResult::Fail("nonzero".into())
            } else {
                TestResult::Pass
            }
        });
        assert_eq!(fail_a, fail_b);
        assert!(fail_a == "pass" || fail_a.contains("replayable"));
    }

    #[test]
    fn corpus_failures_persist_and_replay_first() {
        let dir =
            std::env::temp_dir().join(format!("mcds-check-runner-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let gen = usizes(0..=1000);
        let prop = |v: &usize| {
            if *v >= 500 {
                TestResult::Fail(format!("{v} too big"))
            } else {
                TestResult::Pass
            }
        };
        let failure = Property::new("persists")
            .cases(100)
            .corpus(&dir)
            .run_report(&gen, prop)
            .expect_err("must fail");
        let persisted = failure.persisted_to.clone().expect("persisted");
        assert!(persisted.exists());
        assert_eq!(failure.shrunk, 500);

        // A second run replays the corpus entry before exploring and
        // reproduces the identical shrunk counterexample.
        let replayed = Property::new("persists")
            .cases(100)
            .corpus(&dir)
            .run_report(&gen, prop)
            .expect_err("corpus replay must fail");
        assert_eq!(replayed.replayed_from.as_deref(), Some(persisted.as_path()));
        assert_eq!(replayed.shrunk, failure.shrunk);
        assert_eq!(replayed.stream, failure.stream);

        // Cases for other properties are skipped.
        let stats = Property::new("unrelated")
            .cases(5)
            .corpus(&dir)
            .run_report(&gen, |_| TestResult::Pass)
            .unwrap();
        assert_eq!(stats.corpus_replayed, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
