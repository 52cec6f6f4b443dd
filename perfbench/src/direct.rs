//! Direct sweeps: `synthesize_union_up_to_with_stats` calls with the
//! library defaults, each output checked against the committed key list
//! and, outside the timed region, against the SAT-independent
//! consistency checker.

use crate::spans::span;
use crate::stats::Samples;
use litsynth_core::{synthesize_union_up_to_with_stats, CanonicalSuite, SweepStats, SynthConfig};
use litsynth_models::{check, MemoryModel};
use litsynth_serve::models::{dispatch, ModelOp};
use std::time::{Duration, Instant};

/// A suite to synthesize: a model name (as the serve layer spells it) and
/// an inclusive bound range.
#[derive(Clone, Copy, Debug)]
pub struct Target {
    pub model: &'static str,
    pub lo: usize,
    pub hi: usize,
}

impl Target {
    pub fn label(&self) -> String {
        format!("{} {}..={}", self.model, self.lo, self.hi)
    }
}

/// Runs one sweep of `target` with `SynthConfig::new` (one solver thread,
/// every knob on) and returns its wall time, suite and stats.
pub fn sweep(target: Target) -> (Duration, CanonicalSuite, SweepStats) {
    struct Sweep(Target);
    impl ModelOp for Sweep {
        type Out = (Duration, CanonicalSuite, SweepStats);
        fn run<M: MemoryModel + Sync>(self, model: &M) -> Self::Out {
            let t = Instant::now();
            let (suite, stats) =
                synthesize_union_up_to_with_stats(model, self.0.lo..=self.0.hi, SynthConfig::new);
            (t.elapsed(), suite, stats)
        }
    }
    dispatch(target.model, Sweep(target)).expect("benchmark targets name known models")
}

/// The emitted (test, outcome) pairs the SAT-independent consistency
/// checker finds observable under the target's model, by key.
pub fn observable_keys(target: Target, suite: &CanonicalSuite) -> Vec<&str> {
    struct Observable<'a>(&'a CanonicalSuite);
    impl<'a> ModelOp for Observable<'a> {
        type Out = Vec<&'a str>;
        fn run<M: MemoryModel + Sync>(self, model: &M) -> Self::Out {
            self.0
                .iter()
                .filter(|(_, (t, o))| !check::forbidden(model, t, o))
                .map(|(k, _)| k.as_str())
                .collect()
        }
    }
    dispatch(target.model, Observable(suite)).expect("known model")
}

/// Output-check failures of one emitted suite: a key list different from
/// `expected`, or [`observable_keys`] different from `observable`, the
/// committed list of known exceptions (tests whose outcome leaves the
/// coherence order of three or more same-address writes open, so some
/// allowed execution matches it).
pub fn suite_failures(
    target: Target,
    suite: &CanonicalSuite,
    expected: &[&str],
    observable: &[&str],
) -> Vec<String> {
    let mut failures = Vec::new();
    if !suite
        .keys()
        .map(String::as_str)
        .eq(expected.iter().copied())
    {
        failures.push(format!(
            "{}: {} keys differ from the {} committed keys",
            target.label(),
            suite.len(),
            expected.len()
        ));
    }
    let found = observable_keys(target, suite);
    if found != observable {
        failures.push(format!(
            "{}: emitted tests the checker finds observable {found:?} differ from the committed {observable:?}",
            target.label()
        ));
    }
    failures
}

/// What the direct sweeps of a run measured.
#[derive(Default)]
pub struct DirectRun {
    pub sweeps: Samples,
    /// Sweeps run without spans while tracing, for the overhead figure.
    pub untraced: Samples,
    pub attempted: u64,
    /// One entry per sweep that failed an output check.
    pub failures: Vec<String>,
    /// The first sweep's stats (deterministic across runs).
    pub stats: SweepStats,
    pub suite: CanonicalSuite,
}

impl DirectRun {
    /// Runs and checks one sweep of `target`. While tracing, every other
    /// sweep runs outside any span so the run can report its own tracing
    /// overhead.
    pub fn sweep(&mut self, target: Target, expected: &[&str], observable: &[&str], traced: bool) {
        let request = self.attempted;
        let in_span = !traced || request.is_multiple_of(2);
        let (wall, suite, stats) = if in_span {
            span("core", "synthesize_union_up_to_with_stats", request, || {
                sweep(target)
            })
        } else {
            sweep(target)
        };
        if in_span {
            self.sweeps.push(wall);
        } else {
            self.untraced.push(wall);
        }
        let failures = suite_failures(target, &suite, expected, observable);
        if !failures.is_empty() {
            self.failures
                .push(format!("sweep {request}: {}", failures.join("; ")));
        }
        if self.attempted == 0 {
            self.stats = stats;
            self.suite = suite;
        }
        self.attempted += 1;
    }
}
