//! Server passes: each over a fresh loopback server, with one client
//! connection and two sequential phases.
//!
//! * Phase A: a cold `QUERY` script in seeded order, each query followed
//!   by warm repeats that must come back byte-identical from the cache.
//! * Phase B: `CHECK` over a seeded diy corpus for sc, tso and power —
//!   one pass of misses, then a reshuffled pass of hits — with every
//!   verdict compared against the enumeration oracle.
//!
//! Cold queries run on all of the process's CPUs; warm repeats and phase
//! B run with every thread on one CPU (see `pin.rs`).

use crate::direct::Target;
use crate::pin;
use crate::spans::span;
use crate::stats::Samples;
use litsynth_core::CanonicalSuite;
use litsynth_litmus::diy::{DiyConfig, DiyGenerator};
use litsynth_litmus::{wire, LitmusTest, Outcome, SplitMix64};
use litsynth_models::{oracle, MemoryModel};
use litsynth_serve::models::{dispatch, ModelOp};
use litsynth_serve::{CheckRequest, Client, QueryRequest, ServeConfig, Server, ServerStats};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Phase A's cold queries, before the seeded shuffle.
pub const SCRIPT: [Target; 6] = [
    Target {
        model: "tso",
        lo: 2,
        hi: 4,
    },
    Target {
        model: "power",
        lo: 2,
        hi: 4,
    },
    Target {
        model: "scc",
        lo: 2,
        hi: 4,
    },
    Target {
        model: "c11",
        lo: 2,
        hi: 3,
    },
    Target {
        model: "sc",
        lo: 2,
        hi: 4,
    },
    Target {
        model: "armv7",
        lo: 2,
        hi: 3,
    },
];

/// The models phase B checks the corpus under.
pub const CHECK_MODELS: [&str; 3] = ["sc", "tso", "power"];

/// Warm repeats after each cold query: enough that one pass holds over
/// 1000 warm samples, so its p99 has at least ten samples beyond it.
const WARM_REPEATS: usize = 170;

/// Diy tests drawn for the CHECK corpus (before deduplication); three
/// models times the corpus gives each pass over 1000 misses and hits.
const CORPUS_TESTS: usize = 360;

/// One CHECK request with the oracle's verdict, computed before timing.
pub struct CheckCase {
    pub model: &'static str,
    pub request: CheckRequest,
    pub test: LitmusTest,
    pub outcome: Outcome,
    pub forbidden: bool,
}

/// The seeded inputs of the serving phase.
pub struct Inputs {
    pub script: Vec<Target>,
    pub cases: Vec<CheckCase>,
    rng: SplitMix64,
}

/// The enumeration oracle's verdict for `(test, outcome)` under `model`.
pub fn oracle_forbidden(model: &str, test: &LitmusTest, outcome: &Outcome) -> bool {
    struct Oracle<'a>(&'a LitmusTest, &'a Outcome);
    impl ModelOp for Oracle<'_> {
        type Out = bool;
        fn run<M: MemoryModel + Sync>(self, model: &M) -> bool {
            oracle::forbidden(model, self.0, self.1)
        }
    }
    dispatch(model, Oracle(test, outcome)).expect("known model")
}

impl Inputs {
    /// Draws the corpus and the script order from `seed` and computes the
    /// oracle verdicts.
    pub fn generate(seed: u64) -> Inputs {
        let mut seen = BTreeSet::new();
        let corpus: Vec<(LitmusTest, Outcome)> = DiyGenerator::new(seed, DiyConfig::default())
            .generate(CORPUS_TESTS)
            .into_iter()
            .filter(|(t, o)| seen.insert(wire::encode(t, o)))
            .collect();
        let mut cases = Vec::new();
        for model in CHECK_MODELS {
            for (test, outcome) in &corpus {
                cases.push(CheckCase {
                    model,
                    request: CheckRequest {
                        model: model.to_string(),
                        test: wire::encode(test, outcome),
                    },
                    forbidden: oracle_forbidden(model, test, outcome),
                    test: test.clone(),
                    outcome: outcome.clone(),
                });
            }
        }
        let mut rng = SplitMix64::new(seed ^ 0x05ee_d0f5_e27e);
        let mut script = SCRIPT.to_vec();
        rng.shuffle(&mut script);
        Inputs { script, cases, rng }
    }
}

/// Latencies of one request class: pooled over the run's passes, and the
/// p99 of each pass on its own. A tail reported as the median of per-pass
/// p99s is not moved by one pass that a noisy neighbour happened to hit.
#[derive(Default)]
pub struct Latency {
    pub pooled: Samples,
    pub pass_p99: Samples,
}

impl Latency {
    fn add_pass(&mut self, pass: &Samples) {
        for &s in pass.values() {
            self.pooled.push_secs(s);
        }
        self.pass_p99.push_secs(pass.percentile(99.0));
    }
}

/// What the serving phase measured over its passes.
#[derive(Default)]
pub struct ServeRun {
    pub passes: usize,
    pub setup: Samples,
    pub cold_script: Samples,
    pub cold_by_model: BTreeMap<&'static str, Samples>,
    pub warm: Latency,
    pub check_qps: Samples,
    pub miss: Latency,
    pub hit: Latency,
    pub attempted: u64,
    /// One entry per operation that failed an output check.
    pub failures: Vec<String>,
    /// Server counters, one snapshot per pass.
    pub stats: Vec<ServerStats>,
    /// The last pass's cold reply bodies, per model.
    pub bodies: BTreeMap<&'static str, String>,
    /// Times a phase could not move every thread onto, or back off, one
    /// CPU.
    pub pin_failures: usize,
}

/// Runs one pass over a fresh server. `expected` gives a script target's
/// committed key list.
pub fn pass(
    inputs: &mut Inputs,
    expected: fn(Target) -> &'static [&'static str],
    out: &mut ServeRun,
) {
    let req_base = (out.passes as u64) << 32;
    let t0 = Instant::now();
    let (server, mut client) = span("serve", "pass_setup", req_base, || {
        let server = span("serve", "Server::start", req_base, || {
            Server::start(ServeConfig::default()).expect("loopback server starts")
        });
        let client = span("serve", "Client::connect", req_base, || {
            Client::connect(server.addr()).expect("client connects")
        });
        (server, client)
    });
    out.setup.push(t0.elapsed());

    // Phase A: cold script with warm repeats.
    let mut script_s = 0.0;
    let mut warm_lat = Samples::default();
    let mut request = req_base;
    for &target in &inputs.script {
        let query = QueryRequest::sweep(target.model, target.lo, target.hi);
        request += 1;
        let t = Instant::now();
        let cold = span("serve", "Client::query.cold", request, || {
            client.query(&query)
        });
        let cold_s = t.elapsed().as_secs_f64();
        out.attempted += 1;
        script_s += cold_s;
        out.cold_by_model
            .entry(target.model)
            .or_default()
            .push_secs(cold_s);
        let cold = match cold {
            Ok(c) => c,
            Err(e) => {
                out.failures.push(format!("cold {}: {e}", target.label()));
                continue;
            }
        };
        check_cold(target, &cold.reply, cold.suite(), expected(target), out);
        out.pin_failures += usize::from(!pin::one_cpu());
        for _ in 0..WARM_REPEATS {
            request += 1;
            let t = Instant::now();
            let warm = span("serve", "Client::query.warm", request, || {
                client.query(&query)
            });
            warm_lat.push(t.elapsed());
            out.attempted += 1;
            match warm {
                Ok(w)
                    if w.reply.cached
                        && w.reply.compilations == 0
                        && w.reply.suite == cold.reply.suite => {}
                Ok(_) => out.failures.push(format!(
                    "warm {}: not a byte-identical cache hit",
                    target.label()
                )),
                Err(e) => out.failures.push(format!("warm {}: {e}", target.label())),
            }
        }
        out.pin_failures += usize::from(!pin::all_cpus());
        out.bodies.insert(target.model, cold.reply.suite);
    }
    out.cold_script.push_secs(script_s);
    out.warm.add_pass(&warm_lat);

    // Phase B: all misses, then all hits in a fresh order.
    let mut order: Vec<usize> = (0..inputs.cases.len()).collect();
    let (mut miss_lat, mut hit_lat) = (Samples::default(), Samples::default());
    out.pin_failures += usize::from(!pin::one_cpu());
    let tb = Instant::now();
    for hits in [false, true] {
        inputs.rng.shuffle(&mut order);
        for &i in &order {
            let case = &inputs.cases[i];
            request += 1;
            let name = if hits {
                "Client::check.hit"
            } else {
                "Client::check.miss"
            };
            let t = Instant::now();
            let reply = span("serve", name, request, || client.check_raw(&case.request));
            let dt = t.elapsed();
            out.attempted += 1;
            if hits {
                hit_lat.push(dt)
            } else {
                miss_lat.push(dt)
            }
            match reply {
                Ok(r) if r.cached == hits && r.consistent != case.forbidden => {}
                Ok(r) => out.failures.push(format!(
                    "CHECK {} {}: cached={} consistent={}, oracle forbidden={}",
                    case.model,
                    case.test.name(),
                    r.cached,
                    r.consistent,
                    case.forbidden
                )),
                Err(e) => {
                    out.failures
                        .push(format!("CHECK {} {}: {e}", case.model, case.test.name()))
                }
            }
        }
    }
    out.check_qps
        .push_secs((2 * inputs.cases.len()) as f64 / tb.elapsed().as_secs_f64());
    out.pin_failures += usize::from(!pin::all_cpus());
    out.miss.add_pass(&miss_lat);
    out.hit.add_pass(&hit_lat);
    drop(client);
    out.stats.push(server.stats());
    server.shutdown();
    out.passes += 1;
}

fn check_cold(
    target: Target,
    reply: &litsynth_serve::QueryReply,
    suite: Option<CanonicalSuite>,
    expected: &[&str],
    out: &mut ServeRun,
) {
    let problem = match suite {
        _ if reply.cached => "served from the cache".to_string(),
        Some(s) if s.keys().map(String::as_str).eq(expected.iter().copied()) => return,
        Some(s) => format!(
            "{} keys differ from the {} committed keys",
            s.len(),
            expected.len()
        ),
        None => "suite body does not decode".to_string(),
    };
    out.failures
        .push(format!("cold {}: {problem}", target.label()));
}
